// Expert routing (paper §2.1).
//
// Two gating flavours cover the evaluated models:
//   * kSoftmaxTopK (DeepSeek-V2, Qwen2): softmax over router logits, top-k
//     experts, weights renormalized over the selected set;
//   * kGroupedSigmoidTopK (DeepSeek-V3): sigmoid scores, experts organized in
//     n_group groups, only the topk_group best groups (by sum of their top-2
//     scores) stay eligible, then top-k within the survivors; weights are the
//     selected scores renormalized and scaled by routed_scaling.
//
// Routing slots come out sorted by descending score. Expert Deferral (§4.1)
// relies on this order: the immediate experts are the highest-scored slots.

#ifndef KTX_SRC_MODEL_GATING_H_
#define KTX_SRC_MODEL_GATING_H_

#include <utility>
#include <vector>

#include "src/cpu/moe_cpu.h"
#include "src/model/config.h"
#include "src/model/linear.h"
#include "src/tensor/tensor.h"

namespace ktx {

// Reusable working memory for ComputeRouting: grown on demand, never shrunk,
// so a caller that keeps one alive routes without heap allocations.
struct GatingScratch {
  struct Slot {
    int expert;
    float score;      // used for the output weight
    float selection;  // used for ranking (score + bias for DS-3)
  };
  std::vector<float> logits;     // [tokens, num_experts]
  std::vector<float> scores;     // [num_experts]
  std::vector<float> selection;  // [num_experts]
  std::vector<int> order;        // expert permutation for the top-k sort
  std::vector<std::pair<float, int>> groups;
  std::vector<Slot> slots;       // [top_k]
};

// Computes routing for `tokens` rows of x (f32, [tokens, hidden]) into
// `routing`, reusing its capacity. `router` is [num_experts, hidden] and runs
// once over all rows; `bias` is [num_experts] (grouped gating selection bias;
// pass an empty tensor when unused).
void ComputeRouting(const MoeModelConfig& config, const Linear& router, const Tensor& bias,
                    const float* x, std::int64_t tokens, GatingScratch* scratch,
                    MoeRouting* routing);
// Reference spelling: RefGemm router, call-local scratch, fresh routing.
MoeRouting ComputeRouting(const MoeModelConfig& config, const Tensor& router,
                          const Tensor& bias, const float* x, std::int64_t tokens);

}  // namespace ktx

#endif  // KTX_SRC_MODEL_GATING_H_
