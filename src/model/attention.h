// Attention: GQA (Qwen2-style) and MLA (DeepSeek-style multi-head latent
// attention).
//
// One implementation serves both planes. Projections go through Linear
// handles (linear.h): RefModel passes the weight tensors (RefGemm, the f32
// ground truth); the hybrid engine passes its f32-packed copies (the kernel
// registry's GemmPacked), where they run as vcuda GPU kernels (the paper
// injects FlashInfer's MLA kernel here). Every projection covers all rows of
// a call in one GEMM. The MLA path materializes per-position keys/values from
// the cached latent on every step — the paper's matrix-absorption
// optimization changes arithmetic cost, not results, so it is modeled in the
// cost model rather than re-implemented.

#ifndef KTX_SRC_MODEL_ATTENTION_H_
#define KTX_SRC_MODEL_ATTENTION_H_

#include <vector>

#include "src/common/status.h"
#include "src/model/config.h"
#include "src/model/kv_cache.h"
#include "src/model/linear.h"
#include "src/tensor/tensor.h"

namespace ktx {

struct AttentionWeights {
  // GQA.
  Tensor wq;  // [heads*head_dim, hidden]
  Tensor wk;  // [kv_heads*head_dim, hidden]
  Tensor wv;  // [kv_heads*head_dim, hidden]
  // MLA.
  Tensor w_dq;   // [q_lora, hidden]
  Tensor w_uq;   // [heads*(head_dim+rope_dim), q_lora]
  Tensor w_dkv;  // [kv_lora+rope_dim, hidden] (joint latent + decoupled key)
  Tensor w_uk;   // [heads*head_dim, kv_lora]
  Tensor w_uv;   // [heads*v_head_dim, kv_lora]
  // Both.
  Tensor wo;  // [hidden, heads*{head_dim|v_head_dim}]
};

// The projections of one attention layer as Linear handles: built from an
// AttentionWeights they run RefGemm; the engine builds them over its packed
// f32 copies.
struct AttentionProjections {
  AttentionProjections() = default;
  explicit AttentionProjections(const AttentionWeights& w);

  Linear wq, wk, wv;                     // GQA
  Linear w_dq, w_uq, w_dkv, w_uk, w_uv;  // MLA (w_dq only when q_lora_rank > 0)
  Linear wo;                             // both
};

// The RoPE rotation at one position (theta base 10000): cos/sin of every
// (even, odd) pair of a `dim`-wide vector, computed once and applied to as
// many heads as share the position.
class RopeRotation {
 public:
  void Set(std::int64_t dim, std::int64_t pos);
  void Apply(float* vec) const;

 private:
  std::vector<float> cos_;
  std::vector<float> sin_;
};

// Rotates `dim` leading values of vec in (even, odd) pairs by position
// `pos` (theta base 10000) — standard RoPE.
void ApplyRope(float* vec, std::int64_t dim, std::int64_t pos);

// Working memory of one attention call, reused across calls: buffers grow on
// demand and never shrink, so a caller that keeps one alive (the engine's
// decode buffers) runs attention without heap allocations once it is warm.
struct AttentionScratch {
  // Sizes every buffer for `rows` query rows attending over windows of up to
  // `window` positions. Calls grow it themselves; callers that must not
  // allocate later (the decode path) reserve the worst case up front.
  void Reserve(const MoeModelConfig& config, std::int64_t rows, std::int64_t window);

  std::vector<float> q;         // [rows, q_dim] queries
  std::vector<float> q_latent;  // [rows, q_lora_rank] (MLA)
  std::vector<float> k;         // [rows, kv_dim] new keys (MLA: [rows, lora+rope])
  std::vector<float> v;         // [rows, kv_dim] new values (GQA)
  std::vector<float> heads_out; // [rows, heads * v_dim] pre-wo attention output
  std::vector<float> scores;    // [window] (GQA: [heads per KV head, window])
  std::vector<const float*> k_rows;  // [window] resolved KV row addresses
  std::vector<const float*> v_rows;
  std::vector<float> k_nope;    // [window, heads * head_dim] (MLA)
  std::vector<float> v_all;     // [window, heads * v_head_dim] (MLA)
  RopeRotation rope;
};

// Processes `m` new tokens whose first absolute position is `pos0`
// (the cache already holds positions [0, pos0)). Appends to the cache through
// the row view and writes attention output (pre-residual) to out[m, hidden].
// Causal masking. Rows are addressed via KvLayerView, so contiguous and paged
// caches produce bit-identical results (paged windowed GEMMs run per
// physically-contiguous block run). Returns kResourceExhausted — without
// touching the cache — when [pos0, pos0+m) overflows config.max_seq or the
// view's prepared capacity; engine Try* entry points propagate this instead
// of aborting.
Status AttentionForward(const MoeModelConfig& config, const AttentionProjections& w,
                        const float* x, std::int64_t m, std::int64_t pos0,
                        const KvLayerView& cache, AttentionScratch* scratch, float* out);
// Reference spelling: RefGemm projections and call-local scratch.
Status AttentionForward(const MoeModelConfig& config, const AttentionWeights& w, const float* x,
                        std::int64_t m, std::int64_t pos0, const KvLayerView& cache, float* out);

// Batched decode: `rows` independent single-token streams, one per row of
// x[rows, hidden]. Row r attends against caches[r]->layer(layer) at absolute
// position positions[r]. Projections run once over all rows; each row's
// attention core is the m=1 AttentionForward math against its own cache, so
// outputs are bit-identical to `rows` sequential single-session decode steps
// in any batch composition. Every row's capacity is checked before any cache
// is written: an overflow returns kResourceExhausted and writes nothing.
Status AttentionDecodeBatch(const MoeModelConfig& config, const AttentionProjections& w,
                            const float* x, std::int64_t rows, const std::int64_t* positions,
                            KvCache* const* caches, int layer, AttentionScratch* scratch,
                            float* out);
// Reference spelling: RefGemm projections and call-local scratch.
Status AttentionDecodeBatch(const MoeModelConfig& config, const AttentionWeights& w,
                            const float* x, std::int64_t rows, const std::int64_t* positions,
                            KvCache* const* caches, int layer, float* out);

// The GQA attention core for one query row and one KV head: for each of the
// `heads` query heads that share the KV head (consecutive head_dim-wide
// vectors from q), the QK dots against key rows k_rows[j] + kv_off for j in
// [0, len), the softmax, and the softmax-weighted sum of value rows
// v_rows[j] + kv_off into the head's slice of out. `scores` is [heads, len]
// scratch. Attention runs one spelling, chosen once from the host's
// features; tests hold each to the scalar reference bit for bit.
struct GqaGroup {
  const float* q = nullptr;  // [heads, head_dim]
  const float* const* k_rows = nullptr;
  const float* const* v_rows = nullptr;
  std::int64_t kv_off = 0;
  std::int64_t len = 0;
  std::int64_t head_dim = 0;
  int heads = 1;
  float scale = 1.0f;
  float* scores = nullptr;  // [heads, len]
  float* out = nullptr;     // [heads, head_dim]
};
// Scalar spelling, any head_dim: the reference, and the core on hosts (or
// builds) without AVX2.
void AttendGqaGroupScalar(const GqaGroup& group);
// 8-wide spelling of the same op sequence, lane for lane (no FMA, the same
// fold order). Requires head_dim % 8 == 0 and NativeAvx2Available().
void AttendGqaGroupAvx2(const GqaGroup& group);

// FLOP / byte estimates for the cost model (per layer, given m new tokens at
// context length `seq`). Accounts for MLA matrix absorption on the decode
// path when config.attention == kMla.
struct AttentionCost {
  double flops = 0.0;
  double bytes = 0.0;
};
AttentionCost EstimateAttentionCost(const MoeModelConfig& config, std::int64_t m,
                                    std::int64_t seq, double bytes_per_weight);

}  // namespace ktx

#endif  // KTX_SRC_MODEL_ATTENTION_H_
