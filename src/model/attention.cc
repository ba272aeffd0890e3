#include "src/model/attention.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/cpu/cpu_features.h"

#if defined(KTX_HAVE_NATIVE_SIMD)
#include <immintrin.h>
#endif

namespace ktx {

void RopeRotation::Set(std::int64_t dim, std::int64_t pos) {
  if (dim == dim_ && pos == pos_) {
    return;
  }
  if (dim != dim_) {
    freqs_.clear();
    for (std::int64_t i = 0; i + 1 < dim; i += 2) {
      freqs_.push_back(std::pow(10000.0, -static_cast<double>(i) / static_cast<double>(dim)));
    }
    cos_.resize(freqs_.size());
    sin_.resize(freqs_.size());
    dim_ = dim;
  }
  pos_ = pos;
  for (std::size_t i = 0; i < freqs_.size(); ++i) {
    const double angle = static_cast<double>(pos) * freqs_[i];
    cos_[i] = static_cast<float>(std::cos(angle));
    sin_[i] = static_cast<float>(std::sin(angle));
  }
}

void RopeRotation::Apply(float* vec) const {
  for (std::size_t i = 0; i < cos_.size(); ++i) {
    const float c = cos_[i];
    const float s = sin_[i];
    const float a = vec[2 * i];
    const float b = vec[2 * i + 1];
    vec[2 * i] = a * c - b * s;
    vec[2 * i + 1] = a * s + b * c;
  }
}

void ApplyRope(float* vec, std::int64_t dim, std::int64_t pos) {
  RopeRotation rotation;
  rotation.Set(dim, pos);
  rotation.Apply(vec);
}

AttentionProjections::AttentionProjections(const AttentionWeights& w)
    : wq(w.wq),
      wk(w.wk),
      wv(w.wv),
      w_dq(w.w_dq),
      w_uq(w.w_uq),
      w_dkv(w.w_dkv),
      w_uk(w.w_uk),
      w_uv(w.w_uv),
      wo(w.wo) {}

namespace {

template <class T>
void GrowTo(std::vector<T>* v, std::int64_t n) {
  if (static_cast<std::int64_t>(v->size()) < n) {
    v->resize(static_cast<std::size_t>(n));
  }
}

}  // namespace

void AttentionScratch::Reserve(const MoeModelConfig& config, std::int64_t rows,
                               std::int64_t window) {
  const std::int64_t heads = config.num_heads;
  if (config.attention == AttentionKind::kMla) {
    GrowTo(&q, rows * heads * (config.head_dim + config.rope_dim));
    GrowTo(&q_latent, rows * config.q_lora_rank);
    GrowTo(&k, rows * (config.kv_lora_rank + config.rope_dim));
    GrowTo(&heads_out, rows * heads * config.v_head_dim);
    GrowTo(&k_nope, window * heads * config.head_dim);
    GrowTo(&v_all, window * heads * config.v_head_dim);
  } else {
    const std::int64_t kv_dim = config.num_kv_heads * config.head_dim;
    GrowTo(&q, rows * heads * config.head_dim);
    GrowTo(&k, rows * kv_dim);
    GrowTo(&v, rows * kv_dim);
    GrowTo(&heads_out, rows * heads * config.head_dim);
  }
  // GQA scores one window per query head of a KV group.
  const std::int64_t score_rows =
      config.attention == AttentionKind::kMla ? 1 : heads / config.num_kv_heads;
  GrowTo(&scores, score_rows * window);
  GrowTo(&k_rows, window);
  GrowTo(&v_rows, window);
}

namespace {

// A dot product split into fixed lanes with a fixed reduction order: lane j
// sums the products at indices = j (mod kLanes) in ascending order, then the
// lanes fold pairwise. Plain C++ (no intrinsics), so every ISA and every
// caller gets the same bits; the independent lanes let the compiler keep
// several partial sums in flight instead of one serial chain.
class LaneDot {
 public:
  void Add(const float* a, const float* b, std::int64_t n) {
    std::int64_t d = 0;
    for (; d + kLanes <= n; d += kLanes) {
      for (int j = 0; j < kLanes; ++j) {
        lanes_[j] += a[d + j] * b[d + j];
      }
    }
    for (int j = 0; d < n; ++d, ++j) {
      lanes_[j] += a[d] * b[d];
    }
  }
  float Sum() const {
    return ((lanes_[0] + lanes_[4]) + (lanes_[1] + lanes_[5])) +
           ((lanes_[2] + lanes_[6]) + (lanes_[3] + lanes_[7]));
  }

 private:
  static constexpr int kLanes = 8;
  float lanes_[kLanes] = {};
};

// Constants of SoftmaxExp (the Cephes expf reduction and polynomial), shared
// with its 8-lane spelling.
constexpr float kExpClamp = -87.0f;  // below FLT_MIN's exponent range
constexpr float kExpLog2e = 1.44269504088896341f;
constexpr float kExpLn2Hi = 0.693359375f;
constexpr float kExpLn2Lo = -2.12194440e-4f;
constexpr float kExpPoly[] = {1.9875691500e-4f, 1.3981999507e-3f, 8.3334519073e-3f,
                              4.1665795894e-2f, 1.6666665459e-1f, 5.0000001201e-1f};

// exp(x) for the softmax's x = score - max <= 0, in plain float arithmetic
// (~1 ulp): no libm call per position, and the same bits on every ISA.
// exp(0) is exactly 1.
inline float SoftmaxExp(float x) {
  if (x < kExpClamp) {
    return 0.0f;
  }
  if (x != x) {
    return x;  // NaN propagates
  }
  // Round x / ln2 to nearest (x <= 0: truncating t - 0.5 rounds half away).
  const int n = static_cast<int>(x * kExpLog2e - 0.5f);
  const float nf = static_cast<float>(n);
  float r = x - nf * kExpLn2Hi;
  r = r - nf * kExpLn2Lo;
  float p = kExpPoly[0];
  p = p * r + kExpPoly[1];
  p = p * r + kExpPoly[2];
  p = p * r + kExpPoly[3];
  p = p * r + kExpPoly[4];
  p = p * r + kExpPoly[5];
  const float y = p * (r * r) + r + 1.0f;
  // Scale by 2^n through the exponent bits (n >= -126 given the clamp).
  const std::uint32_t bits = static_cast<std::uint32_t>(n + 127) << 23;
  float scale;
  std::memcpy(&scale, &bits, sizeof(scale));
  return y * scale;
}

// Softmax-weighted sum over scores[0..len) and values value_at(j) -> out.
// Overwrites scores with the unnormalized weights. Each output element sums
// its weighted values in ascending j, whatever the blocking below: the
// kLanes-wide blocks only keep a block's sums in registers while j runs.
template <class ValueAt>
void AttendRow(float* scores, std::int64_t len, ValueAt value_at, std::int64_t v_dim,
               float* out) {
  constexpr std::int64_t kLanes = 8;
  float max_s = -1e30f;
  for (std::int64_t j = 0; j < len; ++j) {
    max_s = std::max(max_s, scores[j]);
  }
  float denom = 0.0f;
  for (std::int64_t j = 0; j < len; ++j) {
    scores[j] = SoftmaxExp(scores[j] - max_s);
    denom += scores[j];
  }
  const float inv = 1.0f / denom;
  std::int64_t d0 = 0;
  for (; d0 + kLanes <= v_dim; d0 += kLanes) {
    float acc[kLanes] = {};
    for (std::int64_t j = 0; j < len; ++j) {
      const float w = scores[j];
      const float* v = value_at(j) + d0;
      for (std::int64_t d = 0; d < kLanes; ++d) {
        acc[d] += w * v[d];
      }
    }
    for (std::int64_t d = 0; d < kLanes; ++d) {
      out[d0 + d] = acc[d] * inv;
    }
  }
  for (; d0 < v_dim; ++d0) {
    float acc = 0.0f;
    for (std::int64_t j = 0; j < len; ++j) {
      acc += scores[j] * value_at(j)[d0];
    }
    out[d0] = acc * inv;
  }
}

}  // namespace

void AttendGqaGroupScalar(const GqaGroup& g) {
  const std::int64_t hd = g.head_dim;
  for (int h = 0; h < g.heads; ++h) {
    const float* q = g.q + h * hd;
    float* scores = g.scores + h * g.len;
    for (std::int64_t j = 0; j < g.len; ++j) {
      LaneDot dot;
      dot.Add(q, g.k_rows[j] + g.kv_off, hd);
      scores[j] = dot.Sum() * g.scale;
    }
    AttendRow(
        scores, g.len, [&](std::int64_t j) { return g.v_rows[j] + g.kv_off; }, hd,
        g.out + h * hd);
  }
}

#if defined(KTX_HAVE_NATIVE_SIMD)

namespace {

// SoftmaxExp on eight lanes: the same float ops in the same order, the
// early-outs done as blends.
__attribute__((target("avx2"))) __m256 SoftmaxExp8(__m256 x) {
  const __m256 fx =
      _mm256_sub_ps(_mm256_mul_ps(x, _mm256_set1_ps(kExpLog2e)), _mm256_set1_ps(0.5f));
  const __m256i n = _mm256_cvttps_epi32(fx);
  const __m256 nf = _mm256_cvtepi32_ps(n);
  __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(nf, _mm256_set1_ps(kExpLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(nf, _mm256_set1_ps(kExpLn2Lo)));
  __m256 p = _mm256_set1_ps(kExpPoly[0]);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpPoly[1]));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpPoly[2]));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpPoly[3]));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpPoly[4]));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpPoly[5]));
  const __m256 y = _mm256_add_ps(
      _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r), _mm256_set1_ps(1.0f));
  const __m256 scale =
      _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23));
  __m256 e = _mm256_mul_ps(y, scale);
  e = _mm256_blendv_ps(e, _mm256_setzero_ps(),
                       _mm256_cmp_ps(x, _mm256_set1_ps(kExpClamp), _CMP_LT_OQ));
  return _mm256_blendv_ps(e, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

// LaneDot of q and k over hd (a multiple of 8): vector lane i is LaneDot's
// lane i.
__attribute__((target("avx2"))) inline __m256 DotLanes(const float* q, const float* k,
                                                       std::int64_t hd) {
  __m256 acc = _mm256_setzero_ps();
  for (std::int64_t d = 0; d < hd; d += 8) {
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_loadu_ps(q + d), _mm256_loadu_ps(k + d)));
  }
  return acc;
}

// DotLanes of q against eight keys at once,
// acc[p] = DotLanes(q, k_rows[p] + kv_off, hd).
// The positions run inside the d loop, so one q load serves all eight; each
// acc[p] still adds its products in ascending d. The fixed-trip loops here
// and below carry unroll pragmas: gcc does not unroll them at -O2 by itself,
// and a vector array indexed by a loop counter stays in memory.
__attribute__((target("avx2"))) inline void DotLanes8(const float* q,
                                                      const float* const* k_rows,
                                                      std::int64_t kv_off, std::int64_t hd,
                                                      __m256 (&acc)[8]) {
  const float* k[8];
#pragma GCC unroll 8
  for (int p = 0; p < 8; ++p) {
    k[p] = k_rows[p] + kv_off;
    acc[p] = _mm256_setzero_ps();
  }
  for (std::int64_t d = 0; d < hd; d += 8) {
    const __m256 qd = _mm256_loadu_ps(q + d);
#pragma GCC unroll 8
    for (int p = 0; p < 8; ++p) {
      acc[p] = _mm256_add_ps(acc[p], _mm256_mul_ps(qd, _mm256_loadu_ps(k[p] + d)));
    }
  }
}

// LaneDot::Sum of one lane vector: ((l0 + l4) + (l1 + l5)) + ((l2 + l6) + (l3 + l7)).
__attribute__((target("avx2"))) inline float FoldLanes(__m256 acc) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
  s = _mm_hadd_ps(s, s);
  s = _mm_hadd_ps(s, s);
  return _mm_cvtss_f32(s);
}

// FoldLanes of eight lane vectors at once, result lane p = FoldLanes(a[p]).
// Per position the adds are FoldLanes's, in the same order.
__attribute__((target("avx2"))) inline __m256 FoldLanes8(const __m256 (&a)[8]) {
  __m256 s[4];  // s[i] = [a[2i].lo + a[2i].hi | a[2i+1].lo + a[2i+1].hi]
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    s[i] = _mm256_add_ps(_mm256_permute2f128_ps(a[2 * i], a[2 * i + 1], 0x20),
                         _mm256_permute2f128_ps(a[2 * i], a[2 * i + 1], 0x31));
  }
  // Lanes come out as positions [0 2 4 6 | 1 3 5 7].
  const __m256 f = _mm256_hadd_ps(_mm256_hadd_ps(s[0], s[1]), _mm256_hadd_ps(s[2], s[3]));
  return _mm256_permutevar8x32_ps(f, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
}

// The largest of the eight lanes.
__attribute__((target("avx2"))) inline float MaxLanes(__m256 v) {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return _mm_cvtss_f32(m);
}

// H query heads against one KV head. The running max is lane-wise over the
// 8-wide blocks and folded once after them; it equals the scalar core's
// serial max because max does not depend on order, both spellings drop a
// NaN score (max_ps(score, running) keeps `running` on NaN, as std::max does),
// and a +0/-0 tie can only reach SoftmaxExp(score - max) as +-0, which is
// exactly 1 either way. The softmax denominator stays serial per head; the V
// sums of the H heads run side by side, so their add chains overlap. Scores
// come eight positions at a time from DotLanes8. Every loop over heads,
// positions or fold steps has a fixed trip count and is unrolled, so the
// per-head and per-position vectors (acc, running, acc0/acc1, inv) live in
// registers rather than in stack arrays.
template <int H>
__attribute__((target("avx2"))) void AttendHeadsAvx2(const GqaGroup& g, int h0) {
  const std::int64_t hd = g.head_dim;
  const std::int64_t len = g.len;
  const float* q[H];
  float* scores[H];
  float max_s[H];
  __m256 running[H];
#pragma GCC unroll 2
  for (int h = 0; h < H; ++h) {
    q[h] = g.q + (h0 + h) * hd;
    scores[h] = g.scores + (h0 + h) * len;
    running[h] = _mm256_set1_ps(-1e30f);
  }
  const __m256 scale = _mm256_set1_ps(g.scale);
  std::int64_t j = 0;
  for (; j + 8 <= len; j += 8) {
#pragma GCC unroll 2
    for (int h = 0; h < H; ++h) {
      __m256 acc[8];
      DotLanes8(q[h], g.k_rows + j, g.kv_off, hd, acc);
      const __m256 block = _mm256_mul_ps(FoldLanes8(acc), scale);
      _mm256_storeu_ps(scores[h] + j, block);
      running[h] = _mm256_max_ps(block, running[h]);
    }
  }
#pragma GCC unroll 2
  for (int h = 0; h < H; ++h) {
    max_s[h] = MaxLanes(running[h]);
  }
  for (; j < len; ++j) {
#pragma GCC unroll 2
    for (int h = 0; h < H; ++h) {
      scores[h][j] = FoldLanes(DotLanes(q[h], g.k_rows[j] + g.kv_off, hd)) * g.scale;
      max_s[h] = std::max(max_s[h], scores[h][j]);
    }
  }
#pragma GCC unroll 2
  for (int h = 0; h < H; ++h) {
    const __m256 vmax = _mm256_set1_ps(max_s[h]);
    for (j = 0; j + 8 <= len; j += 8) {
      _mm256_storeu_ps(scores[h] + j,
                       SoftmaxExp8(_mm256_sub_ps(_mm256_loadu_ps(scores[h] + j), vmax)));
    }
    for (; j < len; ++j) {
      scores[h][j] = SoftmaxExp(scores[h][j] - max_s[h]);
    }
  }
  // Weighted V sums, 16 columns per pass over the rows (8 for an odd block);
  // each output element sums its weighted values in ascending j. The first
  // pass also accumulates each head's denominator.
  float denom[H];
#pragma GCC unroll 2
  for (int h = 0; h < H; ++h) {
    denom[h] = 0.0f;
  }
  __m256 inv[H];
  for (std::int64_t d0 = 0; d0 < hd; d0 += 16) {
    const bool pair = d0 + 16 <= hd;
    __m256 acc0[H];
    __m256 acc1[H];
#pragma GCC unroll 2
    for (int h = 0; h < H; ++h) {
      acc0[h] = _mm256_setzero_ps();
      acc1[h] = _mm256_setzero_ps();
    }
    for (j = 0; j < len; ++j) {
      const float* v = g.v_rows[j] + g.kv_off + d0;
      const __m256 v0 = _mm256_loadu_ps(v);
      const __m256 v1 = pair ? _mm256_loadu_ps(v + 8) : _mm256_setzero_ps();
#pragma GCC unroll 2
      for (int h = 0; h < H; ++h) {
        const __m256 w = _mm256_set1_ps(scores[h][j]);
        acc0[h] = _mm256_add_ps(acc0[h], _mm256_mul_ps(w, v0));
        acc1[h] = _mm256_add_ps(acc1[h], _mm256_mul_ps(w, v1));
        if (d0 == 0) {
          denom[h] += scores[h][j];
        }
      }
    }
#pragma GCC unroll 2
    for (int h = 0; h < H; ++h) {
      if (d0 == 0) {
        inv[h] = _mm256_set1_ps(1.0f / denom[h]);
      }
      float* out = g.out + (h0 + h) * hd + d0;
      _mm256_storeu_ps(out, _mm256_mul_ps(acc0[h], inv[h]));
      if (pair) {
        _mm256_storeu_ps(out + 8, _mm256_mul_ps(acc1[h], inv[h]));
      }
    }
  }
}

}  // namespace

void AttendGqaGroupAvx2(const GqaGroup& g) {
  KTX_DCHECK(g.head_dim % 8 == 0) << "AttendGqaGroupAvx2 needs head_dim % 8 == 0";
  int h = 0;
  for (; h + 2 <= g.heads; h += 2) {
    AttendHeadsAvx2<2>(g, h);
  }
  if (h < g.heads) {
    AttendHeadsAvx2<1>(g, h);
  }
}

#else

void AttendGqaGroupAvx2(const GqaGroup&) {
  KTX_LOG(Fatal) << "AVX2 attention core called but the build disabled native SIMD";
}

#endif

namespace {

// The GQA core this host runs for a head size: the AVX2 spelling where the
// host has it and the head splits into 8-wide blocks, else the scalar one.
using GqaGroupFn = void (*)(const GqaGroup&);
GqaGroupFn SelectGqaCore(std::int64_t head_dim) {
  static const bool avx2 = NativeAvx2Available();
  return avx2 && head_dim % 8 == 0 ? &AttendGqaGroupAvx2 : &AttendGqaGroupScalar;
}

// Query rows of one call that share a KV view: `rows` consecutive tokens at
// positions [pos0, pos0 + rows). AttentionForward has one span; a decode
// batch has one per row.
struct RowSpan {
  KvLayerView view;
  std::int64_t pos0 = 0;
  std::int64_t rows = 0;
};

// Resolves the addresses of rows [0, len) of `base(p)` once, walking the
// view's physically-contiguous runs: one block-table lookup per run instead
// of one per row per head.
template <class RowAt>
void ResolveRows(const KvLayerView& view, std::int64_t len, std::int64_t stride, RowAt base,
                 const float** rows) {
  for (std::int64_t p = 0; p < len;) {
    const std::int64_t run = view.run_length(p, len);
    const float* first = base(p);
    for (std::int64_t r = 0; r < run; ++r) {
      rows[p + r] = first + r * stride;
    }
    p += run;
  }
}

template <class SpanAt>
void GqaForward(const MoeModelConfig& config, const AttentionProjections& w, const float* x,
                std::int64_t total, std::int64_t spans, SpanAt span_at, AttentionScratch* s,
                float* out) {
  const std::int64_t hidden = config.hidden;
  const std::int64_t hd = config.head_dim;
  const int heads = config.num_heads;
  const int kv_heads = config.num_kv_heads;
  const int group = heads / kv_heads;
  const std::int64_t q_dim = heads * hd;
  const std::int64_t kv_dim = kv_heads * hd;

  float* q = s->q.data();
  w.wq.Apply(x, total, hidden, q, q_dim);
  w.wk.Apply(x, total, hidden, s->k.data(), kv_dim);
  w.wv.Apply(x, total, hidden, s->v.data(), kv_dim);

  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  const GqaGroupFn core = SelectGqaCore(hd);
  float* scores = s->scores.data();
  const float** k_rows = s->k_rows.data();
  const float** v_rows = s->v_rows.data();
  std::int64_t row = 0;
  for (std::int64_t sp = 0; sp < spans; ++sp) {
    const RowSpan span = span_at(sp);
    const KvLayerView& cache = span.view;
    for (std::int64_t i = 0; i < span.rows; ++i, ++row) {
      // Append this row's K/V (RoPE on K) before it attends: row i reads
      // positions <= its own, which earlier rows of the span have written.
      const std::int64_t pos = span.pos0 + i;
      s->rope.Set(hd, pos);
      float* krow = cache.k_row(pos);
      std::memcpy(krow, s->k.data() + row * kv_dim,
                  static_cast<std::size_t>(kv_dim) * sizeof(float));
      std::memcpy(cache.v_row(pos), s->v.data() + row * kv_dim,
                  static_cast<std::size_t>(kv_dim) * sizeof(float));
      for (int h = 0; h < kv_heads; ++h) {
        s->rope.Apply(krow + h * hd);
      }
      float* q_row = q + row * q_dim;
      for (int h = 0; h < heads; ++h) {
        s->rope.Apply(q_row + h * hd);
      }

      const std::int64_t len = pos + 1;  // causal window
      ResolveRows(cache, len, kv_dim, [&](std::int64_t p) { return cache.k_row(p); }, k_rows);
      ResolveRows(cache, len, kv_dim, [&](std::int64_t p) { return cache.v_row(p); }, v_rows);
      for (int kh = 0; kh < kv_heads; ++kh) {
        core(GqaGroup{q_row + kh * group * hd, k_rows, v_rows, kh * hd, len, hd, group, scale,
                      scores, s->heads_out.data() + row * q_dim + kh * group * hd});
      }
    }
  }
  w.wo.Apply(s->heads_out.data(), total, q_dim, out, hidden);
}

template <class SpanAt>
void MlaForward(const MoeModelConfig& config, const AttentionProjections& w, const float* x,
                std::int64_t total, std::int64_t spans, SpanAt span_at, AttentionScratch* s,
                float* out) {
  const std::int64_t hidden = config.hidden;
  const std::int64_t nope = config.head_dim;
  const std::int64_t rope = config.rope_dim;
  const std::int64_t vd = config.v_head_dim;
  const std::int64_t lora = config.kv_lora_rank;
  const int heads = config.num_heads;
  const std::int64_t qk_head = nope + rope;
  const std::int64_t q_dim = heads * qk_head;

  // Query path: optional low-rank compression, then up-projection.
  float* q = s->q.data();
  if (config.q_lora_rank > 0) {
    w.w_dq.Apply(x, total, hidden, s->q_latent.data(), config.q_lora_rank);
    w.w_uq.Apply(s->q_latent.data(), total, config.q_lora_rank, q, q_dim);
  } else {
    w.w_uq.Apply(x, total, hidden, q, q_dim);
  }
  // Joint KV compression [kv_lora | rope] of every new row.
  float* dkv = s->k.data();
  w.w_dkv.Apply(x, total, hidden, dkv, lora + rope);

  const float scale = 1.0f / std::sqrt(static_cast<float>(qk_head));
  float* scores = s->scores.data();
  const float** k_rope_rows = s->k_rows.data();
  std::int64_t row0 = 0;
  for (std::int64_t sp = 0; sp < spans; ++sp) {
    const RowSpan span = span_at(sp);
    const KvLayerView& cache = span.view;
    // Append the span's latents; RoPE on the decoupled key part and on each
    // query's rope part.
    for (std::int64_t i = 0; i < span.rows; ++i) {
      const std::int64_t pos = span.pos0 + i;
      const float* dkv_row = dkv + (row0 + i) * (lora + rope);
      s->rope.Set(rope, pos);
      std::memcpy(cache.ckv_row(pos), dkv_row, static_cast<std::size_t>(lora) * sizeof(float));
      float* krope = cache.k_rope_row(pos);
      std::memcpy(krope, dkv_row + lora, static_cast<std::size_t>(rope) * sizeof(float));
      s->rope.Apply(krope);
      for (int h = 0; h < heads; ++h) {
        s->rope.Apply(q + (row0 + i) * q_dim + h * qk_head + nope);
      }
    }

    // Materialize per-position K(nope)/V from the latent for the whole
    // window. Each GEMM row depends only on its own latent row, so running
    // the GEMM per physically-contiguous run (the whole window for a private
    // max_seq block, per block in a shared pool) is bit-identical to one
    // whole-window GEMM.
    const std::int64_t window = span.pos0 + span.rows;
    for (std::int64_t p = 0; p < window;) {
      const std::int64_t run = cache.run_length(p, window);
      w.w_uk.Apply(cache.ckv_row(p), run, lora, s->k_nope.data() + p * heads * nope,
                   heads * nope);
      w.w_uv.Apply(cache.ckv_row(p), run, lora, s->v_all.data() + p * heads * vd, heads * vd);
      p += run;
    }
    ResolveRows(cache, window, rope, [&](std::int64_t p) { return cache.k_rope_row(p); },
                k_rope_rows);

    for (std::int64_t i = 0; i < span.rows; ++i) {
      const std::int64_t row = row0 + i;
      const std::int64_t len = span.pos0 + i + 1;
      for (int h = 0; h < heads; ++h) {
        const float* qh = q + row * q_dim + h * qk_head;
        for (std::int64_t j = 0; j < len; ++j) {
          LaneDot dot;
          dot.Add(qh, s->k_nope.data() + (j * heads + h) * nope, nope);
          dot.Add(qh + nope, k_rope_rows[j], rope);
          scores[j] = dot.Sum() * scale;
        }
        const float* v_all = s->v_all.data();
        AttendRow(
            scores, len, [&](std::int64_t j) { return v_all + (j * heads + h) * vd; }, vd,
            s->heads_out.data() + (row * heads + h) * vd);
      }
    }
    row0 += span.rows;
  }
  w.wo.Apply(s->heads_out.data(), total, heads * vd, out, hidden);
}

template <class SpanAt>
void RunAttention(const MoeModelConfig& config, const AttentionProjections& w, const float* x,
                  std::int64_t total, std::int64_t spans, SpanAt span_at, AttentionScratch* s,
                  float* out) {
  if (config.attention == AttentionKind::kMla) {
    MlaForward(config, w, x, total, spans, span_at, s, out);
  } else {
    GqaForward(config, w, x, total, spans, span_at, s, out);
  }
}

Status CheckCapacity(const MoeModelConfig& config, const KvLayerView& cache, std::int64_t pos0,
                     std::int64_t m) {
  if (pos0 + m > config.max_seq || pos0 + m > cache.capacity_rows()) {
    return ResourceExhaustedError(
        "KV cache overflow: positions [" + std::to_string(pos0) + ", " +
        std::to_string(pos0 + m) + ") exceed max_seq " + std::to_string(config.max_seq) +
        " or prepared rows " + std::to_string(cache.capacity_rows()));
  }
  return OkStatus();
}

}  // namespace

Status AttentionForward(const MoeModelConfig& config, const AttentionProjections& w,
                        const float* x, std::int64_t m, std::int64_t pos0,
                        const KvLayerView& cache, AttentionScratch* scratch, float* out) {
  KTX_RETURN_IF_ERROR(CheckCapacity(config, cache, pos0, m));
  scratch->Reserve(config, m, pos0 + m);
  const RowSpan span{cache, pos0, m};
  RunAttention(config, w, x, m, 1, [&span](std::int64_t) { return span; }, scratch, out);
  return OkStatus();
}

Status AttentionForward(const MoeModelConfig& config, const AttentionWeights& w, const float* x,
                        std::int64_t m, std::int64_t pos0, const KvLayerView& cache, float* out) {
  AttentionScratch scratch;
  return AttentionForward(config, AttentionProjections(w), x, m, pos0, cache, &scratch, out);
}

Status AttentionDecodeBatch(const MoeModelConfig& config, const AttentionProjections& w,
                            const float* x, std::int64_t rows, const std::int64_t* positions,
                            KvCache* const* caches, int layer, AttentionScratch* scratch,
                            float* out) {
  std::int64_t window = 0;
  for (std::int64_t r = 0; r < rows; ++r) {
    const Status status = CheckCapacity(config, caches[r]->layer(layer), positions[r], 1);
    if (!status.ok()) {
      return status.WithContext("decode batch row " + std::to_string(r));
    }
    window = std::max(window, positions[r] + 1);
  }
  scratch->Reserve(config, rows, window);
  RunAttention(
      config, w, x, rows, rows,
      [&](std::int64_t r) { return RowSpan{caches[r]->layer(layer), positions[r], 1}; },
      scratch, out);
  return OkStatus();
}

Status AttentionDecodeBatch(const MoeModelConfig& config, const AttentionWeights& w,
                            const float* x, std::int64_t rows, const std::int64_t* positions,
                            KvCache* const* caches, int layer, float* out) {
  AttentionScratch scratch;
  return AttentionDecodeBatch(config, AttentionProjections(w), x, rows, positions, caches, layer,
                              &scratch, out);
}

AttentionCost EstimateAttentionCost(const MoeModelConfig& config, std::int64_t m,
                                    std::int64_t seq, double bytes_per_weight) {
  AttentionCost cost;
  const double md = static_cast<double>(m);
  const double sd = static_cast<double>(seq);
  const double h = static_cast<double>(config.hidden);
  if (config.attention == AttentionKind::kMla) {
    const double heads = config.num_heads;
    const double qk = static_cast<double>(config.head_dim + config.rope_dim);
    // Projections (with matrix absorption the score/value paths run in the
    // 512-dim latent space on decode; flops below follow the absorbed form).
    double proj_params = h * config.q_lora_rank + config.q_lora_rank * heads * qk +
                         h * (config.kv_lora_rank + config.rope_dim) +
                         config.kv_lora_rank * heads * (config.head_dim + config.v_head_dim) +
                         heads * config.v_head_dim * h;
    cost.flops += 2.0 * md * proj_params;
    // Scores + weighted values against the latent cache.
    cost.flops += 2.0 * md * sd * heads *
                  (static_cast<double>(config.kv_lora_rank) + config.rope_dim);
    cost.bytes += proj_params * bytes_per_weight;
    cost.bytes += sd * (config.kv_lora_rank + config.rope_dim) * 2.0;  // bf16 cache
  } else {
    const double q_dim = static_cast<double>(config.num_heads) * config.head_dim;
    const double kv_dim = static_cast<double>(config.num_kv_heads) * config.head_dim;
    const double proj_params = h * q_dim + 2.0 * h * kv_dim + q_dim * h;
    cost.flops += 2.0 * md * proj_params;
    cost.flops += 2.0 * md * sd * q_dim * 2.0;  // scores + values
    cost.bytes += proj_params * bytes_per_weight;
    cost.bytes += sd * kv_dim * 2.0 * 2.0;
  }
  return cost;
}

}  // namespace ktx
