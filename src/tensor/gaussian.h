// Bulk standard-normal draws, bit for bit what Rng::NextGaussian returns.
//
// FillGaussian writes n successive `rng.NextGaussian() * stddev` values and
// leaves `rng` where n NextGaussian calls would. It draws the uniform pairs in
// blocks, u1 then u2 per element as NextGaussian does, and hands each block to
// one spelling of the Box-Muller transform. Both spellings return the same
// floats as BoxMuller (src/common/rng.h): the AVX2 one evaluates it with
// polynomials and recomputes with libm every element whose float it cannot
// prove (gaussian.cc states the error bounds), so the choice of spelling never
// changes a bit.

#ifndef KTX_SRC_TENSOR_GAUSSIAN_H_
#define KTX_SRC_TENSOR_GAUSSIAN_H_

#include <cstdint>

#include "src/common/rng.h"

namespace ktx {

// out[i] = BoxMuller(u1[i], u2[i]) * stddev (a float product) for i < n.
// Returns how many elements it computed with libm.
using BoxMullerFn = std::int64_t (*)(const double* u1, const double* u2, float stddev,
                                     float* out, std::int64_t n);

// The plain loop: libm for every element. The spelling of builds without
// native SIMD and of hosts without AVX2.
std::int64_t BoxMullerScalar(const double* u1, const double* u2, float stddev, float* out,
                             std::int64_t n);
// Four lanes of doubles. Requires NativeAvx2Available().
std::int64_t BoxMullerAvx2(const double* u1, const double* u2, float stddev, float* out,
                           std::int64_t n);

// The AVX2 spelling where the host has it, else the plain loop; chosen once.
BoxMullerFn SelectBoxMuller();

// Writes n successive rng.NextGaussian() * stddev to out through `fn`.
// Returns how many elements `fn` computed with libm.
std::int64_t FillGaussian(Rng& rng, float stddev, float* out, std::int64_t n,
                          BoxMullerFn fn = SelectBoxMuller());

}  // namespace ktx

#endif  // KTX_SRC_TENSOR_GAUSSIAN_H_
