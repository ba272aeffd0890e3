// Synthetic model weights.
//
// Real DeepSeek/Qwen checkpoints are 100 GB - 1.3 TB and unavailable here;
// weights are generated from a seed with fan-in-scaled Gaussian init so every
// functional experiment is reproducible. All layout, quantization, packing,
// placement and scheduling code consumes these tensors exactly as it would
// consume a loaded checkpoint.

#ifndef KTX_SRC_MODEL_WEIGHTS_H_
#define KTX_SRC_MODEL_WEIGHTS_H_

#include <cstdint>
#include <vector>

#include "src/model/attention.h"
#include "src/model/config.h"
#include "src/tensor/tensor.h"

namespace ktx {

struct LayerWeights {
  Tensor attn_norm;  // [hidden]
  Tensor ffn_norm;   // [hidden]
  AttentionWeights attn;

  // Dense layers (config.first_dense_layers).
  Tensor dense_gate;  // [dense_inter, hidden]
  Tensor dense_up;
  Tensor dense_down;  // [hidden, dense_inter]

  // MoE layers.
  Tensor router;       // [num_experts, hidden]
  Tensor router_bias;  // [num_experts] (grouped gating selection bias)
  Tensor shared_gate;  // [shared_inter, hidden]
  Tensor shared_up;
  Tensor shared_down;  // [hidden, shared_inter]
  std::vector<Tensor> expert_gate;  // num_experts x [moe_inter, hidden]
  std::vector<Tensor> expert_up;
  std::vector<Tensor> expert_down;  // num_experts x [hidden, moe_inter]
};

struct ModelWeights {
  Tensor embedding;   // [vocab, hidden]
  Tensor final_norm;  // [hidden]
  Tensor lm_head;     // [vocab, hidden]
  std::vector<LayerWeights> layers;

  // Draws every weight from seeded random streams split off one root Rng:
  //   * the embedding stream, root.Split(0xE0B): embedding, then lm_head;
  //   * one stream per layer, root.Split(l + 1): attention, then the dense
  //     FFN or the router, router bias and shared expert, in that order;
  //   * one stream per routed expert, split off its layer's stream once that
  //     stream has drawn the shared weights: Split(e + 100), gate, up, down.
  // Rng::Split is const and a stream's values depend only on its own state,
  // so the streams are independent once their seeds are known. Generate
  // fills them in two parallel phases, the layer streams and then the
  // embedding and expert streams, on a pool pinned across the calling
  // thread's CPUs (serially when it has one). Each tensor is filled by the
  // same stream in the same order as a serial loop would, so the bytes never
  // depend on the thread count; model_test pins them with a golden hash.
  // Every tensor is allocated on the calling thread, so the model's memory
  // comes from one malloc arena.
  static ModelWeights Generate(const MoeModelConfig& config, std::uint64_t seed);
};

}  // namespace ktx

#endif  // KTX_SRC_MODEL_WEIGHTS_H_
