#include "src/model/gating.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "src/common/logging.h"
#include "src/cpu/activation.h"

namespace ktx {

namespace {

using Slot = GatingScratch::Slot;

template <class T>
void GrowTo(std::vector<T>* v, std::int64_t n) {
  if (static_cast<std::int64_t>(v->size()) < n) {
    v->resize(static_cast<std::size_t>(n));
  }
}

void SoftmaxTopK(const MoeModelConfig& config, const float* logits, GatingScratch* s) {
  float* probs = s->scores.data();
  std::copy(logits, logits + config.num_experts, probs);
  Softmax(probs, config.num_experts);
  int* idx = s->order.data();
  std::iota(idx, idx + config.num_experts, 0);
  std::partial_sort(idx, idx + config.top_k, idx + config.num_experts,
                    [&](int a, int b) { return probs[a] > probs[b]; });
  s->slots.clear();
  for (int slot = 0; slot < config.top_k; ++slot) {
    const int e = idx[slot];
    s->slots.push_back(Slot{e, probs[e], probs[e]});
  }
}

void GroupedSigmoidTopK(const MoeModelConfig& config, const float* logits, const float* bias,
                        GatingScratch* s) {
  const int experts = config.num_experts;
  const int groups = config.n_group;
  KTX_CHECK_EQ(experts % groups, 0);
  const int per_group = experts / groups;

  float* scores = s->scores.data();
  float* selection = s->selection.data();
  for (int e = 0; e < experts; ++e) {
    scores[e] = 1.0f / (1.0f + std::exp(-logits[e]));
    selection[e] = scores[e] + (bias != nullptr ? bias[e] : 0.0f);
  }

  // Group score = sum of the group's top-2 selection scores.
  std::vector<std::pair<float, int>>& group_scores = s->groups;
  group_scores.clear();
  for (int g = 0; g < groups; ++g) {
    float best = -1e30f;
    float second = -1e30f;
    for (int i = 0; i < per_group; ++i) {
      const float v = selection[g * per_group + i];
      if (v > best) {
        second = best;
        best = v;
      } else if (v > second) {
        second = v;
      }
    }
    group_scores.emplace_back(best + (per_group > 1 ? second : 0.0f), g);
  }
  std::partial_sort(group_scores.begin(), group_scores.begin() + config.topk_group,
                    group_scores.end(), std::greater<>());

  int* eligible = s->order.data();
  int n_eligible = 0;
  for (int gi = 0; gi < config.topk_group; ++gi) {
    const int g = group_scores[static_cast<std::size_t>(gi)].second;
    for (int i = 0; i < per_group; ++i) {
      eligible[n_eligible++] = g * per_group + i;
    }
  }
  std::partial_sort(eligible, eligible + config.top_k, eligible + n_eligible,
                    [&](int a, int b) { return selection[a] > selection[b]; });
  s->slots.clear();
  float sum = 0.0f;
  for (int slot = 0; slot < config.top_k; ++slot) {
    const int e = eligible[slot];
    sum += scores[e];
    s->slots.push_back(Slot{e, scores[e], selection[e]});
  }
  // Normalize weights over the selected set (bias affects selection only).
  for (Slot& sc : s->slots) {
    sc.score = sum > 0.0f ? sc.score / sum : 1.0f / config.top_k;
  }
}

}  // namespace

void ComputeRouting(const MoeModelConfig& config, const Linear& router, const Tensor& bias,
                    const float* x, std::int64_t tokens, GatingScratch* scratch,
                    MoeRouting* routing) {
  KTX_CHECK_EQ(router.out_features(), config.num_experts);
  const int experts = config.num_experts;
  GrowTo(&scratch->logits, tokens * experts);
  GrowTo(&scratch->scores, experts);
  GrowTo(&scratch->selection, experts);
  GrowTo(&scratch->order, experts);
  scratch->groups.reserve(static_cast<std::size_t>(config.n_group));
  scratch->slots.reserve(static_cast<std::size_t>(config.top_k));
  router.Apply(x, tokens, config.hidden, scratch->logits.data(), experts);

  routing->tokens = tokens;
  routing->top_k = config.top_k;
  routing->expert_ids.clear();
  routing->weights.clear();
  const float* bias_ptr = bias.numel() == experts ? bias.f32() : nullptr;
  for (std::int64_t t = 0; t < tokens; ++t) {
    const float* logits = scratch->logits.data() + t * experts;
    if (config.gating == GatingKind::kSoftmaxTopK) {
      SoftmaxTopK(config, logits, scratch);
    } else {
      GroupedSigmoidTopK(config, logits, bias_ptr, scratch);
    }
    // Slots ordered by descending selection score (deferral depends on this).
    std::sort(scratch->slots.begin(), scratch->slots.end(),
              [](const Slot& a, const Slot& b) { return a.selection > b.selection; });
    for (const Slot& slot : scratch->slots) {
      routing->expert_ids.push_back(slot.expert);
      routing->weights.push_back(slot.score * config.routed_scaling);
    }
  }
}

MoeRouting ComputeRouting(const MoeModelConfig& config, const Tensor& router,
                          const Tensor& bias, const float* x, std::int64_t tokens) {
  KTX_CHECK_EQ(router.dim(1), config.hidden);
  GatingScratch scratch;
  MoeRouting routing;
  routing.expert_ids.reserve(static_cast<std::size_t>(tokens * config.top_k));
  routing.weights.reserve(static_cast<std::size_t>(tokens * config.top_k));
  ComputeRouting(config, router, bias, x, tokens, &scratch, &routing);
  return routing;
}

}  // namespace ktx
