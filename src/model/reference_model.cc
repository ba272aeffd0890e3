#include "src/model/reference_model.h"

#include <cstring>

#include "src/common/logging.h"
#include "src/cpu/activation.h"
#include "src/cpu/gemm.h"
#include "src/cpu/moe_cpu.h"
#include "src/model/attention.h"
#include "src/model/gating.h"

namespace ktx {

void DenseFfnAdd(const Linear& gate, const Linear& up, const Linear& down, const float* x,
                 std::int64_t tokens, std::int64_t hidden, FfnScratch* scratch, float* out) {
  const std::int64_t inter = gate.out_features();
  const auto n = static_cast<std::size_t>(tokens * inter);
  if (scratch->gate.size() < n) {
    scratch->gate.resize(n);
    scratch->up.resize(n);
  }
  float* g = scratch->gate.data();
  float* u = scratch->up.data();
  gate.Apply(x, tokens, hidden, g, inter);
  up.Apply(x, tokens, hidden, u, inter);
  SiluMul(g, u, g, tokens * inter);
  down.Apply(g, tokens, inter, out, hidden, /*accumulate=*/true);
}

RefModel::RefModel(MoeModelConfig config, std::shared_ptr<const ModelWeights> weights)
    : config_(std::move(config)), weights_(std::move(weights)) {
  KTX_CHECK(weights_ != nullptr);
  KTX_CHECK_EQ(static_cast<int>(weights_->layers.size()), config_.num_layers);
}

Tensor RefModel::Forward(const std::vector<int>& tokens, KvCache* cache,
                         const ForwardOptions& options) const {
  const std::int64_t m = static_cast<std::int64_t>(tokens.size());
  const std::int64_t hidden = config_.hidden;
  const std::int64_t pos0 = cache->position();
  KTX_CHECK_GE(options.n_deferred, 0);
  KTX_CHECK_LE(options.n_deferred, config_.top_k);

  // Trusted entry point: callers validated capacity (or accept the abort).
  // Paged caches also need their block table extended before rows are written.
  const Status prepared = cache->PrepareAppend(m);
  KTX_CHECK(prepared.ok()) << "KV cache overflow: " << prepared.ToString();

  Tensor x({m, hidden}, DType::kF32);
  for (std::int64_t t = 0; t < m; ++t) {
    KTX_CHECK(tokens[static_cast<std::size_t>(t)] >= 0 &&
              tokens[static_cast<std::size_t>(t)] < config_.vocab);
    std::memcpy(x.f32() + t * hidden,
                weights_->embedding.f32() + tokens[static_cast<std::size_t>(t)] * hidden,
                static_cast<std::size_t>(hidden) * sizeof(float));
  }

  Tensor normed({m, hidden}, DType::kF32);
  Tensor attn_out({m, hidden}, DType::kF32);
  FfnScratch ffn_scratch;
  Tensor pending_deferred;  // R_{k-1}^def(I_{k-1}), empty when none
  const int last_moe_layer = config_.num_layers - 1;

  for (int l = 0; l < config_.num_layers; ++l) {
    const LayerWeights& lw = weights_->layers[static_cast<std::size_t>(l)];
    // Attention block.
    for (std::int64_t t = 0; t < m; ++t) {
      RmsNorm(x.f32() + t * hidden, lw.attn_norm.f32(), normed.f32() + t * hidden, hidden);
    }
    const Status attn =
        AttentionForward(config_, lw.attn, normed.f32(), m, pos0, cache->layer(l),
                         attn_out.f32());
    KTX_CHECK(attn.ok()) << "KV cache overflow: " << attn.ToString();
    AddInPlace(x.f32(), attn_out.f32(), m * hidden);

    // FFN block.
    for (std::int64_t t = 0; t < m; ++t) {
      RmsNorm(x.f32() + t * hidden, lw.ffn_norm.f32(), normed.f32() + t * hidden, hidden);
    }
    if (!config_.is_moe_layer(l)) {
      DenseFfnAdd(lw.dense_gate, lw.dense_up, lw.dense_down, normed.f32(), m, hidden,
                  &ffn_scratch, x.f32());
      continue;
    }

    // MoE layer. `normed` is I_k.
    Tensor moe_out({m, hidden}, DType::kF32);
    if (config_.n_shared_experts > 0) {
      DenseFfnAdd(lw.shared_gate, lw.shared_up, lw.shared_down, normed.f32(), m, hidden,
                  &ffn_scratch, moe_out.f32());
    }
    const MoeRouting routing =
        ComputeRouting(config_, lw.router, lw.router_bias, normed.f32(), m);

    const bool is_last = l == last_moe_layer;
    const int affected = options.n_deferred;
    int immediate_end = config_.top_k;
    if (affected > 0 && (options.expert_skipping || !is_last)) {
      immediate_end = config_.top_k - affected;
    }
    RefMoeForward(lw.expert_gate, lw.expert_up, lw.expert_down, normed.f32(), m, routing, 0,
                  immediate_end, moe_out.f32());

    // Fold in the previous layer's deferred experts (deferral mode only).
    if (pending_deferred.numel() > 0) {
      AddInPlace(moe_out.f32(), pending_deferred.f32(), m * hidden);
      pending_deferred = Tensor();
    }
    // Compute this layer's deferred experts for the next layer.
    if (affected > 0 && !options.expert_skipping && !is_last) {
      pending_deferred = Tensor({m, hidden}, DType::kF32);
      RefMoeForward(lw.expert_gate, lw.expert_up, lw.expert_down, normed.f32(), m, routing,
                    immediate_end, config_.top_k, pending_deferred.f32());
    }
    AddInPlace(x.f32(), moe_out.f32(), m * hidden);
  }
  // A deferred contribution from the final layer would be lost; the formula
  // guarantees there is none.
  KTX_CHECK_EQ(pending_deferred.numel(), 0);

  Tensor logits({m, config_.vocab}, DType::kF32);
  for (std::int64_t t = 0; t < m; ++t) {
    RmsNorm(x.f32() + t * hidden, weights_->final_norm.f32(), normed.f32() + t * hidden,
            hidden);
  }
  RefGemm(normed.f32(), m, hidden, weights_->lm_head, logits.f32(), config_.vocab);
  cache->Advance(m);
  return logits;
}

std::vector<int> RefModel::GenerateGreedy(const std::vector<int>& prompt, int max_new,
                                          const ForwardOptions& options) const {
  KvCache cache(config_);
  std::vector<int> out;
  Tensor logits = Forward(prompt, &cache, options);
  int next = ArgmaxLastToken(logits);
  for (int i = 0; i < max_new; ++i) {
    out.push_back(next);
    logits = Forward({next}, &cache, options);
    next = ArgmaxLastToken(logits);
  }
  return out;
}

int ArgmaxLastToken(const Tensor& logits) {
  const std::int64_t vocab = logits.dim(1);
  const float* row = logits.f32() + (logits.dim(0) - 1) * vocab;
  int best = 0;
  for (std::int64_t v = 1; v < vocab; ++v) {
    if (row[v] > row[best]) {
      best = static_cast<int>(v);
    }
  }
  return best;
}

}  // namespace ktx
