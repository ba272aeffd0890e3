// f32-packed copies of every weight the vGPU plane multiplies by, and the
// Linear handles (linear.h) its kernels call them through: attention
// projections, router, shared-expert or dense FFN, and lm_head.
//
// The hybrid engine packs once at construction and owns the result for its
// lifetime; the handles point into this object, which is therefore neither
// copyable nor movable. Ownership is per engine on purpose: a process-wide
// cache keyed by weight address would hand a later model, whose weights reuse
// the freed addresses, a stale pack.

#ifndef KTX_SRC_MODEL_PACKED_WEIGHTS_H_
#define KTX_SRC_MODEL_PACKED_WEIGHTS_H_

#include <deque>
#include <vector>

#include "src/cpu/kernel_registry.h"
#include "src/cpu/layout.h"
#include "src/model/attention.h"
#include "src/model/config.h"
#include "src/model/linear.h"
#include "src/model/weights.h"

namespace ktx {

class PackedModelWeights {
 public:
  struct Layer {
    AttentionProjections attn;
    Linear router;  // MoE layers
    // Shared experts on MoE layers (empty handles without any), the dense
    // FFN on dense layers.
    Linear ffn_gate;
    Linear ffn_up;
    Linear ffn_down;
  };

  // Every handle runs on `variant`, which must have an f32 kernel.
  PackedModelWeights(const MoeModelConfig& config, const ModelWeights& weights,
                     const KernelVariant& variant);
  PackedModelWeights(const PackedModelWeights&) = delete;
  PackedModelWeights& operator=(const PackedModelWeights&) = delete;

  const Layer& layer(int l) const { return layers_[static_cast<std::size_t>(l)]; }
  const Linear& lm_head() const { return lm_head_; }

 private:
  // Packs `w` as f32 and returns its handle; an empty tensor (a weight the
  // config does not use) gets an empty handle.
  Linear Pack(const Tensor& w);

  const KernelVariant* variant_;
  std::deque<PackedMatrix> packs_;  // deque: handles keep their addresses
  std::vector<Layer> layers_;
  Linear lm_head_;
};

}  // namespace ktx

#endif  // KTX_SRC_MODEL_PACKED_WEIGHTS_H_
