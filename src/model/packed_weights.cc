#include "src/model/packed_weights.h"

#include <utility>

#include "src/common/logging.h"

namespace ktx {

PackedModelWeights::PackedModelWeights(const MoeModelConfig& config, const ModelWeights& weights,
                                       const KernelVariant& variant)
    : variant_(&variant) {
  KTX_CHECK_EQ(static_cast<int>(weights.layers.size()), config.num_layers);
  layers_.resize(weights.layers.size());
  for (int l = 0; l < config.num_layers; ++l) {
    const LayerWeights& lw = weights.layers[static_cast<std::size_t>(l)];
    Layer& out = layers_[static_cast<std::size_t>(l)];
    const AttentionWeights& a = lw.attn;
    out.attn.wq = Pack(a.wq);
    out.attn.wk = Pack(a.wk);
    out.attn.wv = Pack(a.wv);
    out.attn.w_dq = Pack(a.w_dq);
    out.attn.w_uq = Pack(a.w_uq);
    out.attn.w_dkv = Pack(a.w_dkv);
    out.attn.w_uk = Pack(a.w_uk);
    out.attn.w_uv = Pack(a.w_uv);
    out.attn.wo = Pack(a.wo);
    if (config.is_moe_layer(l)) {
      out.router = Pack(lw.router);
      out.ffn_gate = Pack(lw.shared_gate);
      out.ffn_up = Pack(lw.shared_up);
      out.ffn_down = Pack(lw.shared_down);
    } else {
      out.ffn_gate = Pack(lw.dense_gate);
      out.ffn_up = Pack(lw.dense_up);
      out.ffn_down = Pack(lw.dense_down);
    }
  }
  lm_head_ = Pack(weights.lm_head);
}

Linear PackedModelWeights::Pack(const Tensor& w) {
  if (w.numel() == 0) {
    return Linear();
  }
  auto packed = PackedMatrix::Pack(w, DType::kF32);
  KTX_CHECK(packed.ok()) << packed.status().ToString();
  packs_.push_back(std::move(*packed));
  return Linear(packs_.back(), *variant_);
}

}  // namespace ktx
