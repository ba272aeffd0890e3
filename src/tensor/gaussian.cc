#include "src/tensor/gaussian.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"
#include "src/cpu/cpu_features.h"

#if defined(KTX_HAVE_NATIVE_SIMD)
#include <immintrin.h>
#endif

namespace ktx {

std::int64_t BoxMullerScalar(const double* u1, const double* u2, float stddev, float* out,
                             std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = BoxMuller(u1[i], u2[i]) * stddev;
  }
  return n;
}

#if defined(KTX_HAVE_NATIVE_SIMD)

// The AVX2 spelling evaluates y = sqrt(-2 ln u1) * cos(x), x = 2*pi*u2 (the
// double product BoxMuller forms), with polynomials:
//   - ln u1: u1 = m * 2^k with m in [sqrt(1/2), sqrt(2)); ln m = 2 atanh(s),
//     s = (m - 1) / (m + 1), |s| <= 0.1716, summed as f - f^2/2 + s (f^2/2 +
//     R(s^2)) with f = m - 1 exact and R the atanh series to s^20 (truncation
//     below 2^-60 relative);
//   - sqrt(-2 ln u1) as hi + lo: lo = (t - hi^2) / (2 hi) from one fma;
//   - cos x: Cody-Waite reduction r = x - q pi/2, q = round(x 2/pi) in 0..4;
//     fma(-q, pi/2_hi, x) is exact, so r is that plus the tiny -q pi/2_lo;
//     then the sin or cos Taylor polynomial of r (to r^17 and r^16,
//     truncation below 2^-58 relative on |r| <= pi/4), as hi + lo, with the
//     lo part of r folded in to first order;
//   - y as hi + lo from one fma and the cross terms.
//
// Exactness. Let Y be the exact sqrt(-2 ln u1) cos(x) for the double x, and
// u = 2^-53.
//   - libm path: glibc's log and cos are within 1 ulp (its documented
//     maxima), sqrt and the product round correctly, so
//     |y_libm - Y| <= (1 + 1 + 2 + 1) u |Y| = 5u |Y| (log's 2u halves under
//     the sqrt).
//   - polynomial path: ln u1 within 1 ulp (u after the sqrt), sqrt and the
//     product carried as hi + lo (< 0.1u), cos within 0.6u, so
//     |y_fast - Y| <= 2u |Y| + 2^-100 R, R = sqrt(-2 ln u1); the R term is
//     for x an exact multiple of pi/2 in double, where the cosine's hi part
//     is 0 and only its lo part carries the value.
//   - measured against a quad-precision reference over 2^24 draws plus 16 M
//     lanes swept over u1 near 1, u1 near the m boundaries, and x near the
//     zeros of cos and the octant edges: at most 1.09u (polynomial) and
//     3.18u (glibc).
// Together |y_libm - y_fast| <= 7u |Y| + 2^-100 R. A lane keeps its float
// only when every double within
//   delta = 2^-40 |y| + 2^-46 R
// of y_fast rounds to it: 2^-40 |y| = 8192u |y| is more than 2^10 times
// 7u |Y|, and 2^-46 R covers the R term and the rounding of the interval's
// two ends. So y_libm lies inside the interval and rounds to the same float.
// The other lanes (0.0024% of 2^24 draws: y within delta of a float
// rounding midpoint, or |cos x| below about 2^-46) are recomputed with
// BoxMuller.

namespace {

constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
constexpr double kMinU1 = 1e-300;
// bits(u1) + bits(1) - bits(sqrt(1/2)) carries into the exponent field when
// u1's mantissa reaches sqrt(2): its exponent field, less 1023, is the k that
// puts m = u1 / 2^k in [sqrt(1/2), sqrt(2)).
constexpr std::int64_t kOneBits = 0x3FF0000000000000;
constexpr std::int64_t kLogOffset = kOneBits - 0x3FE6A09E667F3BCD;
constexpr std::int64_t kExpMagicBits = 0x4330000000000000;  // 2^52
constexpr double kExpMagic = 0x1p52 + 1023.0;
constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 32 trailing zero bits
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kTwoOverPi = 0.63661977236758134308;
constexpr double kPio2Hi = 1.57079632679489655800e+00;  // double(pi / 2)
constexpr double kPio2Lo = 6.12323399573676603587e-17;  // pi / 2 - kPio2Hi
constexpr double kRoundMagic = 0x1p52;
// 2 atanh(s) = 2s + s R(s^2): R(z) = 2z/3 + 2z^2/5 + ... + 2z^10/21.
constexpr double kAtanh[10] = {2.0 / 3,  2.0 / 5,  2.0 / 7,  2.0 / 9,  2.0 / 11,
                               2.0 / 13, 2.0 / 15, 2.0 / 17, 2.0 / 19, 2.0 / 21};
// sin r = r + r z S(z), S(z) = -1/3! + z/5! - ... + z^7/17!.
constexpr double kSin[8] = {-1.0 / 6,           1.0 / 120,          -1.0 / 5040,
                            1.0 / 362880,       -1.0 / 39916800,    1.0 / 6227020800,
                            -1.0 / 1307674368000, 1.0 / 355687428096000};
// cos r = 1 - z/2 + z^2 K(z), K(z) = 1/4! - z/6! + ... + z^6/16!.
constexpr double kCos[7] = {1.0 / 24,          -1.0 / 720,           1.0 / 40320,
                            -1.0 / 3628800,    1.0 / 479001600,      -1.0 / 87178291200,
                            1.0 / 20922789888000};
constexpr double kRelDelta = 0x1p-40;
constexpr double kAbsDelta = 0x1p-46;

// Recomputes the lanes not set in `exact` (the first `live` lanes only).
std::int64_t FixLanes(unsigned exact, const double* u1, const double* u2, float stddev,
                      float* out, std::int64_t live) {
  std::int64_t fixed = 0;
  for (std::int64_t j = 0; j < live; ++j) {
    if (((exact >> j) & 1U) == 0) {
      out[j] = BoxMuller(u1[j], u2[j]) * stddev;
      ++fixed;
    }
  }
  return fixed;
}

// c[0] + c[1] z + ... + c[n-1] z^(n-1) by Estrin's scheme: pairs, then
// pairs of pairs, so the dependency chain is log2(n) deep.
__attribute__((target("avx2,fma"), always_inline)) inline __m256d Poly4(__m256d z,
                                                                       const double* c, int n) {
  __m256d t[8];
  int m = 0;
#pragma GCC unroll 8
  for (int i = 0; i < n; i += 2, ++m) {
    t[m] = i + 1 < n ? _mm256_fmadd_pd(_mm256_set1_pd(c[i + 1]), z, _mm256_set1_pd(c[i]))
                     : _mm256_set1_pd(c[i]);
  }
  __m256d zz = _mm256_mul_pd(z, z);
#pragma GCC unroll 4
  while (m > 1) {
    int k = 0;
#pragma GCC unroll 4
    for (int i = 0; i < m; i += 2, ++k) {
      t[k] = i + 1 < m ? _mm256_fmadd_pd(t[i + 1], zz, t[i]) : t[i];
    }
    m = k;
    zz = _mm256_mul_pd(zz, zz);
  }
  return t[0];
}

// Four lanes: writes out[0..4), recomputing with libm each of the first
// `live` lanes whose float the interval test does not prove, and returns how
// many it recomputed.
__attribute__((target("avx2,fma"), always_inline)) inline std::int64_t Lanes4(
    const double* pu1, const double* pu2, float stddev, float* out, std::int64_t live) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d u1 = _mm256_max_pd(_mm256_loadu_pd(pu1), _mm256_set1_pd(kMinU1));
  const __m256d x = _mm256_mul_pd(_mm256_set1_pd(kTwoPi), _mm256_loadu_pd(pu2));

  // ln u1 = k ln2 + ln m.
  const __m256i ix = _mm256_castpd_si256(u1);
  const __m256i e = _mm256_srli_epi64(_mm256_add_epi64(ix, _mm256_set1_epi64x(kLogOffset)), 52);
  const __m256d m = _mm256_castsi256_pd(_mm256_sub_epi64(
      ix, _mm256_slli_epi64(_mm256_sub_epi64(e, _mm256_set1_epi64x(1023)), 52)));
  const __m256d dk = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(e, _mm256_set1_epi64x(kExpMagicBits))),
      _mm256_set1_pd(kExpMagic));
  const __m256d f = _mm256_sub_pd(m, one);
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d zs = _mm256_mul_pd(s, s);
  const __m256d rs = _mm256_mul_pd(zs, Poly4(zs, kAtanh, 10));
  const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(half, f), f);
  const __m256d tail = _mm256_add_pd(_mm256_mul_pd(s, _mm256_add_pd(hfsq, rs)),
                                     _mm256_mul_pd(dk, _mm256_set1_pd(kLn2Lo)));
  const __m256d ln = _mm256_sub_pd(_mm256_mul_pd(dk, _mm256_set1_pd(kLn2Hi)),
                                   _mm256_sub_pd(_mm256_sub_pd(hfsq, tail), f));

  // sqrt(-2 ln u1) = rh + rl; a 12-bit reciprocal suffices for rl.
  const __m256d t = _mm256_mul_pd(_mm256_set1_pd(-2.0), ln);
  const __m256d rh = _mm256_sqrt_pd(t);
  const __m256d inv = _mm256_cvtps_pd(_mm_rcp_ps(_mm256_cvtpd_ps(rh)));
  const __m256d rl = _mm256_mul_pd(_mm256_fnmadd_pd(rh, rh, t), _mm256_mul_pd(half, inv));

  // cos x = ch + cl.
  const __m256d q = _mm256_round_pd(_mm256_mul_pd(x, _mm256_set1_pd(kTwoOverPi)),
                                    _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d r = _mm256_fnmadd_pd(q, _mm256_set1_pd(kPio2Hi), x);
  const __m256d r_lo = _mm256_mul_pd(q, _mm256_set1_pd(-kPio2Lo));
  const __m256d z = _mm256_mul_pd(r, r);
  const __m256d z_lo = _mm256_fmsub_pd(r, r, z);
  const __m256d hz = _mm256_mul_pd(half, z);
  const __m256d w = _mm256_sub_pd(one, hz);
  const __m256d cos_lo = _mm256_add_pd(
      _mm256_sub_pd(_mm256_sub_pd(one, w), hz),
      _mm256_sub_pd(_mm256_fmsub_pd(_mm256_mul_pd(z, z), Poly4(z, kCos, 7),
                                    _mm256_mul_pd(half, z_lo)),
                    _mm256_mul_pd(_mm256_mul_pd(r_lo, r),
                                  _mm256_fnmadd_pd(z, _mm256_set1_pd(1.0 / 6), one))));
  const __m256d sin_lo =
      _mm256_fmadd_pd(_mm256_mul_pd(r, z), Poly4(z, kSin, 8),
                      _mm256_mul_pd(r_lo, _mm256_fnmadd_pd(half, z, one)));
  const __m256i qi = _mm256_castpd_si256(_mm256_add_pd(q, _mm256_set1_pd(kRoundMagic)));
  const __m256d odd = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
      _mm256_and_si256(qi, _mm256_set1_epi64x(1)), _mm256_set1_epi64x(1)));
  // cos x is -sin r, -cos r, sin r for q = 1, 2, 3: negate when q + 1 has bit 1.
  const __m256d neg = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(qi, _mm256_set1_epi64x(1)), _mm256_set1_epi64x(2)), 62));
  const __m256d ch = _mm256_xor_pd(_mm256_blendv_pd(w, r, odd), neg);
  const __m256d cl = _mm256_xor_pd(_mm256_blendv_pd(cos_lo, sin_lo, odd), neg);

  // y = yh + yl, and the interval it must round within.
  const __m256d yh = _mm256_mul_pd(rh, ch);
  const __m256d yl = _mm256_add_pd(_mm256_fmsub_pd(rh, ch, yh),
                                   _mm256_fmadd_pd(rl, ch, _mm256_mul_pd(rh, cl)));
  const __m256d abs_yh = _mm256_andnot_pd(_mm256_set1_pd(-0.0), yh);
  const __m256d delta = _mm256_fmadd_pd(abs_yh, _mm256_set1_pd(kRelDelta),
                                        _mm256_mul_pd(rh, _mm256_set1_pd(kAbsDelta)));
  const __m128 lo = _mm256_cvtpd_ps(_mm256_add_pd(yh, _mm256_sub_pd(yl, delta)));
  const __m128 hi = _mm256_cvtpd_ps(_mm256_add_pd(yh, _mm256_add_pd(yl, delta)));
  const auto exact = static_cast<unsigned>(
      _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(_mm_castps_si128(lo),
                                                       _mm_castps_si128(hi)))));
  _mm_storeu_ps(out, _mm_mul_ps(lo, _mm_set1_ps(stddev)));
  return exact == 0xF ? 0 : FixLanes(exact, pu1, pu2, stddev, out, live);
}

}  // namespace

// Whole vectors, then a tail shorter than a vector on padded copies
// (u1 = 1/2, u2 = 0) whose extra lanes are discarded.
__attribute__((target("avx2,fma"))) std::int64_t BoxMullerAvx2(const double* u1,
                                                                const double* u2, float stddev,
                                                                float* out, std::int64_t n) {
  constexpr std::int64_t kLanes = 4;
  std::int64_t fallbacks = 0;
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    fallbacks += Lanes4(u1 + i, u2 + i, stddev, out + i, kLanes);
  }
  if (i < n) {
    double t1[kLanes] = {0.5, 0.5, 0.5, 0.5};
    double t2[kLanes] = {};
    const auto rest = static_cast<std::size_t>(n - i);
    std::memcpy(t1, u1 + i, rest * sizeof(double));
    std::memcpy(t2, u2 + i, rest * sizeof(double));
    float t_out[kLanes];
    fallbacks += Lanes4(t1, t2, stddev, t_out, n - i);
    std::memcpy(out + i, t_out, rest * sizeof(float));
  }
  return fallbacks;
}

#else

std::int64_t BoxMullerAvx2(const double*, const double*, float, float*, std::int64_t) {
  KTX_LOG(Fatal) << "AVX2 Box-Muller called but the build disabled native SIMD";
  return 0;
}

#endif

BoxMullerFn SelectBoxMuller() {
  static const bool avx2 = NativeAvx2Available();
  return avx2 ? &BoxMullerAvx2 : &BoxMullerScalar;
}

std::int64_t FillGaussian(Rng& rng, float stddev, float* out, std::int64_t n, BoxMullerFn fn) {
  constexpr std::int64_t kBlock = 256;
  double u1[kBlock];
  double u2[kBlock];
  std::int64_t fallbacks = 0;
  for (std::int64_t i0 = 0; i0 < n; i0 += kBlock) {
    const std::int64_t len = std::min(kBlock, n - i0);
    for (std::int64_t j = 0; j < len; ++j) {
      u1[j] = rng.NextDouble();
      u2[j] = rng.NextDouble();
    }
    fallbacks += fn(u1, u2, stddev, out + i0, len);
  }
  return fallbacks;
}

}  // namespace ktx
