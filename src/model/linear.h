// One projection y[m, n] = x[m, k] * W^T behind a backend-neutral handle.
//
// The attention, gating and FFN math is written once against this handle;
// the form of the weight picks the arithmetic:
//
//   * a Tensor (W as [n, k] f32) runs RefGemm, the double-accumulating
//     ground truth RefModel computes with;
//   * a PackedMatrix (f32 tiles, layout.h) runs one kernel-registry variant
//     over all m rows in a single call — the engine's vGPU plane.
//
// Both backends compute every output row from that input row alone, so a
// row's bits never depend on how many rows share the call: batched decode
// equals sequential decode and a chunked prefill equals a whole one, at
// tolerance 0. Every registered f32 variant runs the same per-output fma
// chain (gemm.h), so packed results do not depend on the host's ISA either.

#ifndef KTX_SRC_MODEL_LINEAR_H_
#define KTX_SRC_MODEL_LINEAR_H_

#include <cstdint>
#include <span>

#include "src/cpu/kernel_registry.h"
#include "src/cpu/layout.h"
#include "src/tensor/tensor.h"

namespace ktx {

class Linear {
 public:
  Linear() = default;
  // Implicit on purpose: reference callers pass weight tensors directly.
  Linear(const Tensor& w) : tensor_(&w) {}  // NOLINT(google-explicit-constructor)
  // `w` must be packed as kF32 and outlive the handle.
  Linear(const PackedMatrix& w, const KernelVariant& variant);

  // Output features n.
  std::int64_t out_features() const;

  // The packed tiles Apply streams, for warming caches ahead of a call;
  // empty for a tensor-backed or empty handle.
  std::span<const std::byte> bytes() const;

  // y[m, n] (leading dim ldy) = x[m, k] (leading dim ldx) * W^T; with
  // `accumulate`, y += the product instead (each output rounded to f32
  // before the add, for both backends).
  void Apply(const float* x, std::int64_t m, std::int64_t ldx, float* y, std::int64_t ldy,
             bool accumulate = false) const;

 private:
  const Tensor* tensor_ = nullptr;
  const PackedMatrix* packed_ = nullptr;
  const KernelVariant* variant_ = nullptr;
};

// The registry variant packed f32 projections run on: the widest f32 row
// kernel this host can execute, or the KTX_FORCE_KERNEL variant when that
// override is set (the same override CpuMoe honours). f32 is bit-exact across
// every variant, so the choice never changes a result.
const KernelVariant& ResolveProjectionVariant();

}  // namespace ktx

#endif  // KTX_SRC_MODEL_LINEAR_H_
