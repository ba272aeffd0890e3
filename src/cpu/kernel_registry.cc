#include "src/cpu/kernel_registry.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>

#include "src/common/align.h"
#include "src/common/logging.h"
#include "src/cpu/amx_native.h"
#include "src/cpu/cpu_features.h"
#include "src/cpu/tile.h"

namespace ktx {

namespace {

bool AlwaysAvailable() { return true; }

bool AllDtypes(DType) { return true; }

// The AMX tile ISA has no f32 matmul instruction; everything else packs.
bool AmxDtypes(DType dtype) { return dtype != DType::kF32; }

// --- per-variant kernel entry points (dtype branches live HERE, not in the
// --- MoE operator) -----------------------------------------------------------

void Avx512VariantGemm(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                       float* y, std::int64_t ldy, bool accumulate, std::int64_t nb0,
                       std::int64_t nb1, void* scratch, std::size_t scratch_bytes) {
  if (w.dtype() == DType::kF32) {
    NativeAvx512GemmF32(x, m, ldx, w, y, ldy, accumulate, nb0, nb1, scratch, scratch_bytes);
  } else {
    NativeAvx512Gemm(x, m, ldx, w, y, ldy, accumulate, nb0, nb1, scratch, scratch_bytes);
  }
}

void Avx2VariantGemm(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                     float* y, std::int64_t ldy, bool accumulate, std::int64_t nb0,
                     std::int64_t nb1, void* scratch, std::size_t scratch_bytes) {
  if (w.dtype() == DType::kF32) {
    NativeAvx2GemmF32(x, m, ldx, w, y, ldy, accumulate, nb0, nb1, scratch, scratch_bytes);
  } else if (w.dtype() == DType::kBF16) {
    NativeAvx2GemmBf16(x, m, ldx, w, y, ldy, accumulate, nb0, nb1, scratch, scratch_bytes);
  } else {
    NativeAvx2GemmInt8(x, m, ldx, w, y, ldy, accumulate, nb0, nb1, scratch, scratch_bytes);
  }
}

// --- per-variant scratch demands (pure arithmetic, valid in every build) -----
// One kCacheLineBytes of slop per ScratchCarver::Take covers carve alignment.

std::size_t PortableScratchBytes(const PackedMatrix& w) {
  if (!w.quantized()) {
    return 0;  // bf16/f32 emulation carves nothing
  }
  const auto kb = static_cast<std::size_t>(w.k_blocks());
  return kb * kTileRows * sizeof(float) + kCacheLineBytes;  // x_scales
}

std::size_t AmxScratchBytes(const PackedMatrix& w) {
  const auto kb = static_cast<std::size_t>(w.k_blocks());
  // a_tiles + x_scales (both carved regardless of dtype).
  return kb * sizeof(TileReg) + kb * kTileRows * sizeof(float) + 2 * kCacheLineBytes;
}

std::size_t RowKernelScratchBytes(const PackedMatrix& w) {
  const auto kb = static_cast<std::size_t>(w.k_blocks());
  if (w.dtype() == DType::kF32) {
    return 0;
  }
  if (w.dtype() == DType::kBF16) {
    // One activation row widened to f32 after bf16 rounding, k padded to
    // full blocks.
    return kb * kKBlockBf16 * sizeof(float) + kCacheLineBytes;
  }
  // Quantized: per-block scales + one quantized activation row.
  return kb * sizeof(float) + kb * static_cast<std::size_t>(kKBlockInt8) +
         2 * kCacheLineBytes;
}

constexpr KernelKind kTierOrder[] = {KernelKind::kAmx, KernelKind::kAvx512,
                                     KernelKind::kAvx2};

int TierOf(KernelKind kind) {
  switch (kind) {
    case KernelKind::kAmx:
      return 0;
    case KernelKind::kAvx512:
      return 1;
    case KernelKind::kAvx2:
      return 2;
    case KernelKind::kScalar:
      return 3;
  }
  return 3;
}

const KernelVariant& ScalarVariant() { return KernelRegistry().back(); }

const KernelVariant* EmulatedEntryFor(KernelKind kind) {
  if (kind == KernelKind::kAvx2 || kind == KernelKind::kScalar) {
    return &ScalarVariant();
  }
  return FindKernelVariant(kind, KernelImpl::kEmulated);
}

}  // namespace

const std::vector<KernelVariant>& KernelRegistry() {
  // Order: natives by descending tier, then emulations, scalar last (so
  // ScalarVariant() == back()). Indexes are stable for the process lifetime.
  static const std::vector<KernelVariant> registry = {
      {KernelKind::kAmx, KernelImpl::kNative, "amx_native", &NativeAmxAvailable, &AmxDtypes,
       &NativeAmxGemm, &AmxScratchBytes},
      {KernelKind::kAvx512, KernelImpl::kNative, "avx512_native", &NativeAvx512Available,
       &AllDtypes, &Avx512VariantGemm, &RowKernelScratchBytes},
      {KernelKind::kAvx2, KernelImpl::kNative, "avx2_native", &NativeAvx2Available,
       &AllDtypes, &Avx2VariantGemm, &RowKernelScratchBytes},
      {KernelKind::kAmx, KernelImpl::kEmulated, "amx_emulated", &AlwaysAvailable, &AllDtypes,
       &EmulatedGemm, &PortableScratchBytes},
      {KernelKind::kAvx512, KernelImpl::kEmulated, "avx512_emulated", &AlwaysAvailable,
       &AllDtypes, &EmulatedGemm, &PortableScratchBytes},
      {KernelKind::kScalar, KernelImpl::kEmulated, "scalar", &AlwaysAvailable, &AllDtypes,
       &EmulatedGemm, &PortableScratchBytes},
  };
  return registry;
}

const KernelVariant* FindKernelVariant(KernelKind kind, KernelImpl impl) {
  for (const KernelVariant& v : KernelRegistry()) {
    if (v.kind == kind && v.impl == impl) {
      return &v;
    }
  }
  return nullptr;
}

int KernelVariantIndex(const KernelVariant& v) {
  return static_cast<int>(&v - KernelRegistry().data());
}

const KernelVariant& ResolveKernelVariant(KernelKind kind, KernelImpl impl, DType dtype) {
  if (kind == KernelKind::kScalar) {
    return ScalarVariant();  // one portable implementation, always runnable
  }
  if (impl == KernelImpl::kEmulated) {
    const KernelVariant* e = EmulatedEntryFor(kind);
    KTX_CHECK(e != nullptr);
    return *e;
  }
  const KernelVariant* exact = FindKernelVariant(kind, KernelImpl::kNative);
  if (impl == KernelImpl::kNative) {
    KTX_CHECK(exact != nullptr);
    if (exact->supports_dtype(dtype)) {
      KTX_CHECK(exact->available()) << "native kernel requested but unavailable";
      return *exact;
    }
    // The requested tier has no kernel for this dtype (f32 on AMX): the next
    // native tier down that does, else the portable path — f32 is bit-exact
    // across every tier, so this never changes results.
    for (KernelKind k : kTierOrder) {
      if (TierOf(k) <= TierOf(kind)) {
        continue;
      }
      const KernelVariant* v = FindKernelVariant(k, KernelImpl::kNative);
      if (v != nullptr && v->available() && v->supports_dtype(dtype)) {
        return *v;
      }
    }
    return ScalarVariant();
  }
  // kAuto: exact native first, then the down-tier ladder of available
  // natives, then the emulation under the requested kind's label.
  if (exact != nullptr && exact->available() && exact->supports_dtype(dtype)) {
    return *exact;
  }
  for (KernelKind k : kTierOrder) {
    if (TierOf(k) <= TierOf(kind)) {
      continue;
    }
    const KernelVariant* v = FindKernelVariant(k, KernelImpl::kNative);
    if (v != nullptr && v->available() && v->supports_dtype(dtype)) {
      return *v;
    }
  }
  const KernelVariant* e = EmulatedEntryFor(kind);
  KTX_CHECK(e != nullptr);
  return *e;
}

KernelAvailability KernelAvailability::Host() {
  KernelAvailability a;
  a.amx = NativeAmxAvailable();
  a.avx512 = NativeAvx512Available();
  a.avx2 = NativeAvx2Available();
  return a;
}

KernelKind SelectKernelWith(std::int64_t tokens_per_expert, std::int64_t threshold,
                            const KernelAvailability& avail) {
  if (avail.amx && tokens_per_expert > threshold) {
    return KernelKind::kAmx;
  }
  if (avail.avx512) {
    return KernelKind::kAvx512;
  }
  if (avail.avx2) {
    return KernelKind::kAvx2;
  }
  if (avail.amx) {
    return KernelKind::kAmx;  // tile kernel beats scalar even at low m
  }
  return KernelKind::kScalar;
}

KernelKind SelectKernel(std::int64_t tokens_per_expert, std::int64_t threshold) {
  return SelectKernelWith(tokens_per_expert, threshold, KernelAvailability::Host());
}

bool KernelAvailable(KernelKind kind, KernelImpl impl) {
  switch (impl) {
    case KernelImpl::kEmulated:
    case KernelImpl::kAuto:
      return true;
    case KernelImpl::kNative: {
      if (kind == KernelKind::kScalar) {
        return true;  // the portable path is its own "native"
      }
      const KernelVariant* v = FindKernelVariant(kind, KernelImpl::kNative);
      return v != nullptr && v->available();
    }
  }
  return false;
}

std::size_t GemmScratchBytes(const PackedMatrix& w) {
  // Registry-wide max: a region of this size satisfies EVERY variant, so the
  // thread-local heap fallback in AcquireGemmScratch can never fire on a
  // zero-allocation path regardless of which variant dispatch picks.
  std::size_t bytes = 0;
  for (const KernelVariant& v : KernelRegistry()) {
    if (v.supports_dtype(w.dtype())) {
      bytes = std::max(bytes, v.scratch_bytes(w));
    }
  }
  return bytes;
}

const char* KernelKindName(KernelKind kind) {
  switch (kind) {
    case KernelKind::kAmx:
      return "amx";
    case KernelKind::kAvx512:
      return "avx512";
    case KernelKind::kAvx2:
      return "avx2";
    case KernelKind::kScalar:
      return "scalar";
  }
  return "?";
}

const char* KernelImplName(KernelImpl impl) {
  switch (impl) {
    case KernelImpl::kAuto:
      return "auto";
    case KernelImpl::kEmulated:
      return "emulated";
    case KernelImpl::kNative:
      return "native";
  }
  return "?";
}

std::optional<ForcedKernel> ParseForcedKernel(std::string_view name) {
  for (const KernelVariant& v : KernelRegistry()) {
    if (name == v.name) {
      return ForcedKernel{v.kind, v.impl};
    }
  }
  if (name == "amx") {
    return ForcedKernel{KernelKind::kAmx, KernelImpl::kAuto};
  }
  if (name == "avx512") {
    return ForcedKernel{KernelKind::kAvx512, KernelImpl::kAuto};
  }
  if (name == "avx2") {
    return ForcedKernel{KernelKind::kAvx2, KernelImpl::kAuto};
  }
  return std::nullopt;
}

std::optional<ForcedKernel> ForcedKernelFromEnv() {
  const char* env = std::getenv("KTX_FORCE_KERNEL");
  if (env == nullptr || *env == '\0') {
    return std::nullopt;
  }
  std::optional<ForcedKernel> forced = ParseForcedKernel(env);
  if (!forced.has_value()) {
    static std::once_flag warned;
    std::call_once(warned, [env] {
      KTX_LOG(Warning) << "KTX_FORCE_KERNEL=" << env
                       << " names no registered kernel variant; ignoring";
    });
  }
  return forced;
}

}  // namespace ktx
