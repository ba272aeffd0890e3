#include "src/model/linear.h"

#include "src/common/logging.h"
#include "src/cpu/gemm.h"

namespace ktx {

Linear::Linear(const PackedMatrix& w, const KernelVariant& variant)
    : packed_(&w), variant_(&variant) {
  KTX_CHECK(w.dtype() == DType::kF32) << "packed projections are f32";
  KTX_CHECK(variant.supports_dtype(DType::kF32)) << variant.name << " has no f32 kernel";
}

std::int64_t Linear::out_features() const {
  if (packed_ != nullptr) {
    return packed_->n();
  }
  KTX_CHECK(tensor_ != nullptr) << "empty projection handle";
  return tensor_->dim(0);
}

std::span<const std::byte> Linear::bytes() const {
  return packed_ != nullptr ? packed_->payload() : std::span<const std::byte>{};
}

void Linear::Apply(const float* x, std::int64_t m, std::int64_t ldx, float* y, std::int64_t ldy,
                   bool accumulate) const {
  if (packed_ != nullptr) {
    if (m > 0) {
      // f32 kernels carve no scratch (kernel_registry.cc), so none is passed.
      variant_->gemm(x, m, ldx, *packed_, y, ldy, accumulate, 0, packed_->n_blocks(), nullptr,
                     0);
    }
    return;
  }
  KTX_CHECK(tensor_ != nullptr) << "empty projection handle";
  RefGemm(x, m, ldx, *tensor_, y, ldy, accumulate);
}

const KernelVariant& ResolveProjectionVariant() {
  KernelKind kind = KernelKind::kAvx512;  // f32 has no AMX tile op: widest row kernel
  KernelImpl impl = KernelImpl::kAuto;
  if (const std::optional<ForcedKernel> forced = ForcedKernelFromEnv()) {
    kind = forced->kind;
    impl = forced->impl;
  }
  return ResolveKernelVariant(kind, impl, DType::kF32);
}

}  // namespace ktx
