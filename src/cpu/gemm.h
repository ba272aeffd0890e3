// Cache-friendly GEMM kernels on the AMX tile layout, with ARI-based dispatch
// (paper §3.2, Fig. 6 / Fig. 7).
//
// Four kernel kinds share the packed layout:
//   * kAmx    — full-tile kernel: 16 activation rows per pass, one TDP*
//               instruction per (A,B) tile pair, accumulators live in tile
//               registers. Best at high arithmetic intensity (prefill).
//   * kAvx512 — row-at-a-time vector kernel on the same tiles. Best at
//               <= ~4 tokens per expert (decode), where AMX wastes 16-row
//               tile passes on mostly-padding rows.
//   * kAvx2   — the same row kernel shape on 8-lane vectors, for hosts
//               without AVX-512.
//   * kScalar — the portable tile emulation, always available.
//
// Every kind follows ONE canonical op sequence per dtype (tile.h documents
// the bf16 sequence; f32 is a per-output ascending-k fma chain; the int8/int4
// integer dot is exact and its f32 rescale is a fixed mul/mul/add per
// k-block), so all selectable variants produce bit-identical results. The
// sequence is per output element: a kernel may interleave the chains of
// different outputs (the native row kernels run several n-blocks per pass
// over k) as long as each chain keeps its own ops in its own order. The
// kernel-variant registry (kernel_registry.h) is the authoritative table of
// {kind, impl} entries with availability predicates and per-variant scratch
// sizing; GemmPacked resolves through it.

#ifndef KTX_SRC_CPU_GEMM_H_
#define KTX_SRC_CPU_GEMM_H_

#include <cstddef>
#include <cstdint>

#include "src/cpu/layout.h"
#include "src/tensor/tensor.h"

namespace ktx {

enum class KernelKind {
  kAmx,
  kAvx512,
  kAvx2,
  kScalar,
};

enum class KernelImpl {
  kAuto,      // native when available, else next available tier down
  kEmulated,  // force the portable tile emulation
  kNative,    // force real instructions (caller must check availability)
};

struct GemmOptions {
  KernelKind kind = KernelKind::kAmx;
  KernelImpl impl = KernelImpl::kAuto;
  bool accumulate = false;  // y += result instead of y = result
  // Restrict the computation to output tile bands [nb_begin, nb_end) — the
  // unit the dynamic task scheduler chunks work by (Fig. 6 step 1). The
  // default covers the whole matrix. Output columns keep absolute indices.
  std::int64_t nb_begin = 0;
  std::int64_t nb_end = -1;  // -1: all n-blocks
  // Caller-provided scratch region for the kernel's per-call temporaries
  // (activation repack buffers, quantization scales, emulated tile registers).
  // Must hold at least GemmScratchBytes(w) bytes and be private to the calling
  // thread for the duration of the call. When absent or too small the kernel
  // falls back to a thread-local buffer — correct, but the buffer is a heap
  // allocation on first use per thread, which the zero-allocation decode path
  // cannot afford.
  void* scratch = nullptr;
  std::size_t scratch_bytes = 0;
};

// y[m][n] (f32, leading dim ldy) = x[m][k] (f32, leading dim ldx) * W^T,
// where W is `w` packed as [n, k].
void GemmPacked(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                float* y, std::int64_t ldy, const GemmOptions& opts);

// Scalar f32 reference (no bf16 rounding, no quantization): ground truth for
// error bounds in tests.
void RefGemm(const float* x, std::int64_t m, std::int64_t ldx, const Tensor& w, float* y,
             std::int64_t ldy, bool accumulate = false);

// The portable tile-emulation entry point (all dtypes): the reference every
// registered variant must match bit-exactly. Exposed for the kernel registry
// and the bit-identity matrix tests; ordinary callers go through GemmPacked.
void EmulatedGemm(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                  float* y, std::int64_t ldy, bool accumulate, std::int64_t nb_begin,
                  std::int64_t nb_end, void* scratch, std::size_t scratch_bytes);

// The ARI-based kernel switch (paper Fig. 7): a row kernel wins at or below
// `threshold` tokens per expert, the AMX tile kernel above it — restricted to
// kinds whose native kernels this host can actually run (a no-AVX-512 machine
// gets kAvx2, a plain machine kScalar; kAmx is never chosen without usable
// AMX). Defined in kernel_registry.cc; see SelectKernelWith for the
// availability-injected variant tests use.
KernelKind SelectKernel(std::int64_t tokens_per_expert, std::int64_t threshold = 4);

// True if the requested (kind, impl) combination can execute on this host.
bool KernelAvailable(KernelKind kind, KernelImpl impl);

// Upper bound on the scratch bytes any kernel (any kind/impl/dtype) needs for
// one GemmPacked call against `w`: the registry-wide max over every variant's
// own scratch requirement. Callers that preallocate per-worker scratch size it
// with this so a single region serves every dispatch decision.
std::size_t GemmScratchBytes(const PackedMatrix& w);

// Grow-only thread-local scratch: returns a 64-byte-aligned region of at least
// `bytes` bytes owned by the calling thread. Fallback for callers that did not
// provide GemmOptions::scratch; allocates at most O(log max-size) times per
// thread lifetime.
void* GemmThreadScratch(std::size_t bytes);

}  // namespace ktx

#endif  // KTX_SRC_CPU_GEMM_H_
