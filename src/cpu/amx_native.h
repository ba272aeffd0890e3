// Native AMX / AVX-512 kernel entry points.
//
// These are compiled in a dedicated translation unit with AMX/AVX-512 codegen
// enabled (see CMakeLists) and must only be called when cpu_features.h reports
// the corresponding capability; GemmPacked() performs that dispatch. When the
// build disables native SIMD entirely, these symbols exist but abort.

#ifndef KTX_SRC_CPU_AMX_NATIVE_H_
#define KTX_SRC_CPU_AMX_NATIVE_H_

#include <cstddef>
#include <cstdint>

#include "src/cpu/layout.h"

namespace ktx {

// Every entry point takes an optional caller-provided scratch region for its
// per-call temporaries (see GemmOptions::scratch); a null/short region falls
// back to the thread-local buffer behind GemmThreadScratch().

// Full-tile AMX kernel (TDPBF16PS / TDPBSSD) on the packed layout.
void NativeAmxGemm(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                   float* y, std::int64_t ldy, bool accumulate, std::int64_t nb_begin,
                   std::int64_t nb_end, void* scratch = nullptr, std::size_t scratch_bytes = 0);

// Row-at-a-time AVX-512 kernel (VDPBF16PS / VPDPBUSD) on the same layout.
void NativeAvx512Gemm(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                      float* y, std::int64_t ldy, bool accumulate, std::int64_t nb_begin,
                      std::int64_t nb_end, void* scratch = nullptr,
                      std::size_t scratch_bytes = 0);

// AVX2+FMA fallback for hosts without AVX-512 (bf16 weights).
void NativeAvx2GemmBf16(const float* x, std::int64_t m, std::int64_t ldx,
                        const PackedMatrix& w, float* y, std::int64_t ldy, bool accumulate,
                        std::int64_t nb_begin, std::int64_t nb_end, void* scratch = nullptr,
                        std::size_t scratch_bytes = 0);

// AVX2 int8/int4 fallback (PMADDWD on sign-extended nibble-unpacked tiles;
// integer math identical to the tile emulation).
void NativeAvx2GemmInt8(const float* x, std::int64_t m, std::int64_t ldx,
                        const PackedMatrix& w, float* y, std::int64_t ldy, bool accumulate,
                        std::int64_t nb_begin, std::int64_t nb_end, void* scratch = nullptr,
                        std::size_t scratch_bytes = 0);

// f32 kernels on the k-major kF32 layout. Both perform the identical per-lane
// fma sequence as the scalar emulation (gemm.cc), so all three tiers are
// bit-exact with each other. Neither uses scratch; the parameters exist for
// signature parity.
void NativeAvx512GemmF32(const float* x, std::int64_t m, std::int64_t ldx,
                         const PackedMatrix& w, float* y, std::int64_t ldy, bool accumulate,
                         std::int64_t nb_begin, std::int64_t nb_end, void* scratch = nullptr,
                         std::size_t scratch_bytes = 0);

void NativeAvx2GemmF32(const float* x, std::int64_t m, std::int64_t ldx,
                       const PackedMatrix& w, float* y, std::int64_t ldy, bool accumulate,
                       std::int64_t nb_begin, std::int64_t nb_end, void* scratch = nullptr,
                       std::size_t scratch_bytes = 0);

}  // namespace ktx

#endif  // KTX_SRC_CPU_AMX_NATIVE_H_
