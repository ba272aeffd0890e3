#include "src/model/weights.h"

#include <cmath>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/common/trace.h"

namespace ktx {

namespace {

// Fan-in-scaled init keeps activation magnitudes stable through depth, which
// matters for the deferral/skipping perturbation experiments: the model must
// behave like a trained network numerically (bounded activations), even
// though its outputs are synthetic.
float InitStddev(std::int64_t fan_in) {
  return 1.0f / std::sqrt(static_cast<float>(fan_in));
}

// One random stream and the tensors it fills, in fill order. Add allocates
// on the calling thread; Fill draws the values, on whichever thread runs it.
struct Stream {
  explicit Stream(Rng stream_rng) : rng(stream_rng) {}

  void Add(Tensor* t, std::vector<std::int64_t> shape, float stddev) {
    *t = Tensor(std::move(shape), DType::kF32);
    fills.emplace_back(t, stddev);
    elements += t->numel();
  }
  void Init(Tensor* t, std::vector<std::int64_t> shape) {
    const float stddev = InitStddev(shape.back());
    Add(t, std::move(shape), stddev);
  }
  void Fill() {
    for (const auto& [t, stddev] : fills) {
      t->FillRandn(rng, stddev);
    }
  }

  Rng rng;
  std::vector<std::pair<Tensor*, float>> fills;
  std::int64_t elements = 0;
};

}  // namespace

ModelWeights ModelWeights::Generate(const MoeModelConfig& config, std::uint64_t seed) {
  const Rng root(seed);
  const std::int64_t hidden = config.hidden;
  const auto num_layers = static_cast<std::size_t>(config.num_layers);
  const auto experts = static_cast<std::size_t>(config.num_experts);
  ModelWeights w;
  w.final_norm = Tensor::Full({hidden}, 1.0f);
  w.layers.resize(num_layers);

  // Allocate every tensor here and record which stream fills it: one stream
  // per layer for its shared weights, then the embedding stream.
  std::vector<Stream> streams;
  streams.reserve(num_layers + 1);
  std::int64_t expert_elements = 0;
  for (int l = 0; l < config.num_layers; ++l) {
    Stream& s = streams.emplace_back(root.Split(static_cast<std::uint64_t>(l) + 1));
    LayerWeights& lw = w.layers[static_cast<std::size_t>(l)];
    lw.attn_norm = Tensor::Full({hidden}, 1.0f);
    lw.ffn_norm = Tensor::Full({hidden}, 1.0f);

    if (config.attention == AttentionKind::kMla) {
      const std::int64_t qk_head = config.head_dim + config.rope_dim;
      if (config.q_lora_rank > 0) {
        s.Init(&lw.attn.w_dq, {config.q_lora_rank, hidden});
        s.Init(&lw.attn.w_uq, {config.num_heads * qk_head, config.q_lora_rank});
      } else {
        s.Init(&lw.attn.w_uq, {config.num_heads * qk_head, hidden});
      }
      s.Init(&lw.attn.w_dkv, {config.kv_lora_rank + config.rope_dim, hidden});
      s.Init(&lw.attn.w_uk, {config.num_heads * config.head_dim, config.kv_lora_rank});
      s.Init(&lw.attn.w_uv, {config.num_heads * config.v_head_dim, config.kv_lora_rank});
      s.Init(&lw.attn.wo, {hidden, config.num_heads * config.v_head_dim});
    } else {
      s.Init(&lw.attn.wq, {config.num_heads * config.head_dim, hidden});
      s.Init(&lw.attn.wk, {config.num_kv_heads * config.head_dim, hidden});
      s.Init(&lw.attn.wv, {config.num_kv_heads * config.head_dim, hidden});
      s.Init(&lw.attn.wo, {hidden, config.num_heads * config.head_dim});
    }

    if (!config.is_moe_layer(l)) {
      s.Init(&lw.dense_gate, {config.dense_inter, hidden});
      s.Init(&lw.dense_up, {config.dense_inter, hidden});
      s.Init(&lw.dense_down, {hidden, config.dense_inter});
      continue;
    }
    s.Init(&lw.router, {config.num_experts, hidden});
    if (config.gating == GatingKind::kGroupedSigmoidTopK) {
      s.Add(&lw.router_bias, {config.num_experts}, 0.01f);
    }
    if (config.n_shared_experts > 0) {
      s.Init(&lw.shared_gate, {config.shared_inter(), hidden});
      s.Init(&lw.shared_up, {config.shared_inter(), hidden});
      s.Init(&lw.shared_down, {hidden, config.shared_inter()});
    }
    lw.expert_gate.resize(experts);
    lw.expert_up.resize(experts);
    lw.expert_down.resize(experts);
    for (std::size_t e = 0; e < experts; ++e) {
      lw.expert_gate[e] = Tensor({config.moe_inter, hidden}, DType::kF32);
      lw.expert_up[e] = Tensor({config.moe_inter, hidden}, DType::kF32);
      lw.expert_down[e] = Tensor({hidden, config.moe_inter}, DType::kF32);
      expert_elements +=
          lw.expert_gate[e].numel() + lw.expert_up[e].numel() + lw.expert_down[e].numel();
    }
  }
  Stream& embedding = streams.emplace_back(root.Split(0xE0B));
  embedding.Init(&w.embedding, {config.vocab, hidden});
  embedding.Init(&w.lm_head, {config.vocab, hidden});

  // Expert streams split off their layer's stream once it has drawn the
  // shared weights, so they wait for phase 1; the embedding stream depends on
  // no other and rides in phase 2, first, as its longest task. MoE layers are
  // the last num_layers - first_dense_layers.
  const auto first_moe = static_cast<std::size_t>(config.first_dense_layers);
  const std::size_t expert_streams =
      num_layers > first_moe ? (num_layers - first_moe) * experts : 0;

  // A one-worker pool runs every task on the calling thread.
  ThreadPool pool(AffinityCpuCount(), /*pin_workers=*/true);
  std::int64_t layer_elements = 0;
  for (std::size_t l = 0; l < num_layers; ++l) {
    layer_elements += streams[l].elements;
  }
  {
    KTX_TRACE_SPAN_ARG("model", "generate_weights", "elements", layer_elements);
    pool.ParallelFor(num_layers, [&](std::size_t l) { streams[l].Fill(); });
  }
  KTX_TRACE_SPAN_ARG("model", "generate_weights", "elements",
                     streams[num_layers].elements + expert_elements);
  pool.ParallelFor(expert_streams + 1, [&](std::size_t i) {
    if (i == 0) {
      streams[num_layers].Fill();
      return;
    }
    const std::size_t l = first_moe + (i - 1) / experts;
    const std::size_t e = (i - 1) % experts;
    Rng rng = streams[l].rng.Split(static_cast<std::uint64_t>(e) + 100);
    LayerWeights& lw = w.layers[l];
    const float in_stddev = InitStddev(hidden);
    lw.expert_gate[e].FillRandn(rng, in_stddev);
    lw.expert_up[e].FillRandn(rng, in_stddev);
    lw.expert_down[e].FillRandn(rng, InitStddev(config.moe_inter));
  });
  return w;
}

}  // namespace ktx
