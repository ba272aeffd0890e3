// Reference fp32 transformer: the functional ground truth.
//
// Runs the full architecture (RMSNorm, GQA/MLA attention with KV cache,
// dense + MoE FFNs with shared experts, gating) in plain f32. It also
// implements the Expert Deferral formula of §4.1 *directly* — the hybrid
// engine's asynchronous implementation is tested against this:
//
//   O_k = I_k + S_k(I_k) + R_k^imm(I_k)                          k = 1
//   O_k = I_k + S_k(I_k) + R_{k-1}^def(I_{k-1}) + R_k^imm(I_k)   1 < k < L
//   O_k = I_k + S_k(I_k) + R_{k-1}^def(I_{k-1}) + R_k^all(I_k)   k = L
//
// and Expert Skipping (the Fig. 13 baseline), which simply discards the
// lowest-scored experts instead of deferring them.

#ifndef KTX_SRC_MODEL_REFERENCE_MODEL_H_
#define KTX_SRC_MODEL_REFERENCE_MODEL_H_

#include <memory>
#include <vector>

#include "src/model/config.h"
#include "src/model/kv_cache.h"
#include "src/model/linear.h"
#include "src/model/weights.h"

namespace ktx {

struct ForwardOptions {
  // Number of lowest-scored routing slots deferred to the next layer
  // (0 = standard execution). Not applied at the last MoE layer (§4.1).
  int n_deferred = 0;
  // Fig. 13 baseline: discard the affected experts instead of deferring.
  bool expert_skipping = false;
};

class RefModel {
 public:
  RefModel(MoeModelConfig config, std::shared_ptr<const ModelWeights> weights);

  const MoeModelConfig& config() const { return config_; }
  const ModelWeights& weights() const { return *weights_; }
  std::shared_ptr<const ModelWeights> weights_ptr() const { return weights_; }

  // Processes `tokens` starting at cache->position(); returns logits
  // [tokens.size(), vocab] and advances the cache.
  Tensor Forward(const std::vector<int>& tokens, KvCache* cache,
                 const ForwardOptions& options = {}) const;

  // Greedy generation: prefills `prompt`, then decodes `max_new` tokens.
  std::vector<int> GenerateGreedy(const std::vector<int>& prompt, int max_new,
                                  const ForwardOptions& options = {}) const;

 private:
  MoeModelConfig config_;
  std::shared_ptr<const ModelWeights> weights_;
};

// Argmax over the last row of a [tokens, vocab] logits tensor.
int ArgmaxLastToken(const Tensor& logits);

// Working memory of DenseFfnAdd, reused across calls (grown on demand).
struct FfnScratch {
  std::vector<float> gate;  // [tokens, inter], then the SwiGLU activation
  std::vector<float> up;    // [tokens, inter]
};

// out[tokens, hidden] += SwiGLU(x W_gate^T, x W_up^T) W_down^T — the dense /
// shared-expert FFN. Shared by the reference model (weight tensors) and the
// hybrid engine's GPU-side dense / shared-expert kernels (packed f32); each
// projection runs once over all rows.
void DenseFfnAdd(const Linear& gate, const Linear& up, const Linear& down, const float* x,
                 std::int64_t tokens, std::int64_t hidden, FfnScratch* scratch, float* out);

}  // namespace ktx

#endif  // KTX_SRC_MODEL_REFERENCE_MODEL_H_
