// Tests for the kernel-variant registry, the forced-kind x forced-impl
// bit-identity matrix, availability-aware dispatch, per-variant scratch
// sizing, and the calibrated dispatch table with its profile cache.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/align.h"
#include "src/common/rng.h"
#include "src/cpu/cpu_features.h"
#include "src/cpu/gemm.h"
#include "src/cpu/kernel_calibrate.h"
#include "src/cpu/kernel_registry.h"
#include "src/cpu/layout.h"

namespace ktx {
namespace {

float MaxAbsDiff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  float max_diff = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  return max_diff;
}

// Index of the first element whose bit pattern differs, or -1. Unlike a
// float compare, this tells -0 from +0 and compares NaNs by payload.
std::int64_t FirstBitMismatch(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      return static_cast<std::int64_t>(i);
    }
  }
  return -1;
}

TEST(KernelRegistryTest, RegistersSixDocumentedVariants) {
  const auto& registry = KernelRegistry();
  ASSERT_EQ(registry.size(), 6u);
  const char* expected[] = {"amx_native",   "avx512_native",   "avx2_native",
                            "amx_emulated", "avx512_emulated", "scalar"};
  for (std::size_t i = 0; i < registry.size(); ++i) {
    EXPECT_STREQ(registry[i].name, expected[i]);
    EXPECT_EQ(KernelVariantIndex(registry[i]), static_cast<int>(i));
    EXPECT_NE(registry[i].available, nullptr);
    EXPECT_NE(registry[i].supports_dtype, nullptr);
    EXPECT_NE(registry[i].gemm, nullptr);
    EXPECT_NE(registry[i].scratch_bytes, nullptr);
  }
  // Emulated entries are runnable on any host; that is the whole point.
  EXPECT_TRUE(FindKernelVariant(KernelKind::kAmx, KernelImpl::kEmulated)->available());
  EXPECT_TRUE(FindKernelVariant(KernelKind::kAvx512, KernelImpl::kEmulated)->available());
  EXPECT_TRUE(FindKernelVariant(KernelKind::kScalar, KernelImpl::kEmulated)->available());
  // AMX has no f32 tile instruction.
  EXPECT_FALSE(
      FindKernelVariant(KernelKind::kAmx, KernelImpl::kNative)->supports_dtype(DType::kF32));
}

// The tentpole acceptance criterion: every variant this host can execute is
// bit-identical (tolerance 0) to the emulated tile reference, for every
// dtype, including band-restricted and accumulate calls.
TEST(KernelRegistryTest, ForcedMatrixBitIdenticalToEmulatedReference) {
  Rng rng(42);
  // Every n-block count from 1 to 9, so the native row kernels' grouped
  // passes (several n-blocks per pass over k) run full groups, every
  // leftover group size and both together. n and k are mostly not multiples
  // of the tile sizes, so every kernel's tail handling is inside the
  // comparison too.
  for (std::int64_t n_blocks = 1; n_blocks <= 9; ++n_blocks) {
    const std::int64_t n = n_blocks * kNBlock - 3 * (n_blocks % 3);
    for (const std::int64_t k : {std::int64_t{48}, std::int64_t{90}}) {
      const Tensor wf = Tensor::Randn({n, k}, rng);
      for (DType dtype : {DType::kF32, DType::kBF16, DType::kI8, DType::kI4}) {
        auto packed = PackedMatrix::Pack(wf, dtype);
        ASSERT_TRUE(packed.ok());
        const PackedMatrix& w = packed.value();
        ASSERT_EQ(w.n_blocks(), n_blocks);
        for (std::int64_t m : {1, 2, 3, 4, 5, 16, 33}) {
          const Tensor x = Tensor::Randn({m, k}, rng);
          const std::string shape = " dtype=" + std::string(DTypeName(dtype)) +
                                    " n=" + std::to_string(n) + " k=" + std::to_string(k) +
                                    " m=" + std::to_string(m);
          // Reference stream: the portable emulation.
          std::vector<float> ref(static_cast<std::size_t>(m * n), -1.0f);
          EmulatedGemm(x.f32(), m, k, w, ref.data(), n, /*accumulate=*/false, 0, n_blocks,
                       nullptr, 0);
          std::vector<float> ref_acc = ref;
          EmulatedGemm(x.f32(), m, k, w, ref_acc.data(), n, /*accumulate=*/true, 0, n_blocks,
                       nullptr, 0);
          // Band windows [nb0, nb1), including ones that start or end inside
          // a group of a grouped pass. The decode widths (m <= 5) take every
          // window; the wide ones one middle window.
          std::vector<std::pair<std::int64_t, std::int64_t>> windows;
          for (std::int64_t nb0 = 0; nb0 < n_blocks; ++nb0) {
            for (std::int64_t nb1 = nb0 + 1; nb1 <= n_blocks; ++nb1) {
              if (m <= 5 || (nb0 == std::min<std::int64_t>(1, n_blocks - 1) &&
                             nb1 == std::max<std::int64_t>(nb0 + 1, n_blocks - 1))) {
                windows.emplace_back(nb0, nb1);
              }
            }
          }
          std::vector<std::vector<float>> ref_bands;
          for (const auto& [nb0, nb1] : windows) {
            ref_bands.emplace_back(static_cast<std::size_t>(m * n), 7.0f);
            EmulatedGemm(x.f32(), m, k, w, ref_bands.back().data(), n, false, nb0, nb1,
                         nullptr, 0);
          }

          for (const KernelVariant& v : KernelRegistry()) {
            if (!v.available() || !v.supports_dtype(dtype)) {
              continue;
            }
            SCOPED_TRACE(std::string(v.name) + shape);
            // A caller-provided region of the variant's declared size, as the
            // MoE workspace passes.
            AlignedBuffer scratch(std::max<std::size_t>(v.scratch_bytes(w), 1));
            std::vector<float> got(static_cast<std::size_t>(m * n), -1.0f);
            v.gemm(x.f32(), m, k, w, got.data(), n, false, 0, n_blocks, scratch.data(),
                   v.scratch_bytes(w));
            EXPECT_EQ(FirstBitMismatch(got, ref), -1);
            // accumulate: y += result on top of the first pass.
            v.gemm(x.f32(), m, k, w, got.data(), n, true, 0, n_blocks, scratch.data(),
                   v.scratch_bytes(w));
            EXPECT_EQ(FirstBitMismatch(got, ref_acc), -1);
            // Band-restricted: only [nb0, nb1) written, sentinel elsewhere.
            for (std::size_t b = 0; b < windows.size(); ++b) {
              std::vector<float> band(static_cast<std::size_t>(m * n), 7.0f);
              v.gemm(x.f32(), m, k, w, band.data(), n, false, windows[b].first,
                     windows[b].second, scratch.data(), v.scratch_bytes(w));
              EXPECT_EQ(FirstBitMismatch(band, ref_bands[b]), -1)
                  << "band [" << windows[b].first << ", " << windows[b].second << ")";
            }
          }
        }
      }
    }
  }
}

// GemmPacked with forced kinds/impls routes through the same registry and
// stays on the reference stream too (the seam ordinary callers use).
TEST(KernelRegistryTest, GemmPackedForcedKindsMatchReference) {
  Rng rng(7);
  const std::int64_t n = 48;
  const std::int64_t k = 64;
  const std::int64_t m = 5;
  const Tensor wf = Tensor::Randn({n, k}, rng);
  const Tensor x = Tensor::Randn({m, k}, rng);
  for (DType dtype : {DType::kF32, DType::kBF16, DType::kI8}) {
    auto packed = PackedMatrix::Pack(wf, dtype);
    ASSERT_TRUE(packed.ok());
    std::vector<float> ref(static_cast<std::size_t>(m * n));
    EmulatedGemm(x.f32(), m, k, packed.value(), ref.data(), n, false, 0,
                 packed->n_blocks(), nullptr, 0);
    for (KernelKind kind : {KernelKind::kAmx, KernelKind::kAvx512, KernelKind::kAvx2,
                            KernelKind::kScalar}) {
      for (KernelImpl impl : {KernelImpl::kAuto, KernelImpl::kEmulated, KernelImpl::kNative}) {
        if (!KernelAvailable(kind, impl)) {
          continue;
        }
        if (impl == KernelImpl::kNative && kind == KernelKind::kAmx &&
            dtype == DType::kF32 && !NativeAvx512Available() && !NativeAvx2Available()) {
          continue;  // nothing native can host the f32 down-tier
        }
        SCOPED_TRACE(std::string(KernelKindName(kind)) + "/" + KernelImplName(impl) +
                     " dtype=" + std::string(DTypeName(dtype)));
        GemmOptions opts;
        opts.kind = kind;
        opts.impl = impl;
        std::vector<float> got(static_cast<std::size_t>(m * n), -1.0f);
        GemmPacked(x.f32(), m, k, packed.value(), got.data(), n, opts);
        EXPECT_EQ(MaxAbsDiff(got, ref), 0.0f);
      }
    }
  }
}

TEST(KernelRegistryTest, SelectKernelHonorsAvailability) {
  // Full host: the paper's ARI switch — row kernel at/below threshold, tiles
  // above.
  KernelAvailability all;
  all.amx = all.avx512 = all.avx2 = true;
  EXPECT_EQ(SelectKernelWith(1, 4, all), KernelKind::kAvx512);
  EXPECT_EQ(SelectKernelWith(4, 4, all), KernelKind::kAvx512);
  EXPECT_EQ(SelectKernelWith(5, 4, all), KernelKind::kAmx);
  // No AVX-512: the satellite fix — never return kAvx512 on a host that
  // cannot run it.
  KernelAvailability no512;
  no512.avx2 = true;
  EXPECT_EQ(SelectKernelWith(1, 4, no512), KernelKind::kAvx2);
  EXPECT_EQ(SelectKernelWith(64, 4, no512), KernelKind::kAvx2);
  // AMX-only host: the tile kernel serves every size.
  KernelAvailability amx_only;
  amx_only.amx = true;
  EXPECT_EQ(SelectKernelWith(1, 4, amx_only), KernelKind::kAmx);
  // Nothing native: scalar.
  EXPECT_EQ(SelectKernelWith(1, 4, KernelAvailability{}), KernelKind::kScalar);
  EXPECT_EQ(SelectKernelWith(100, 4, KernelAvailability{}), KernelKind::kScalar);
  // The host-default overload never picks an unavailable kind.
  const KernelKind host_pick = SelectKernel(1);
  EXPECT_TRUE(KernelAvailable(host_pick, KernelImpl::kAuto));
  if (!NativeAvx512Available()) {
    EXPECT_NE(host_pick, KernelKind::kAvx512);
  }
  if (!NativeAmxAvailable()) {
    EXPECT_NE(SelectKernel(100), KernelKind::kAmx);
  }
}

TEST(KernelRegistryTest, ResolveSemantics) {
  // kScalar is one portable implementation no matter the impl knob.
  for (KernelImpl impl : {KernelImpl::kAuto, KernelImpl::kEmulated, KernelImpl::kNative}) {
    EXPECT_STREQ(ResolveKernelVariant(KernelKind::kScalar, impl, DType::kBF16).name,
                 "scalar");
  }
  // Emulated requests resolve under the requested kind's label.
  EXPECT_STREQ(
      ResolveKernelVariant(KernelKind::kAmx, KernelImpl::kEmulated, DType::kBF16).name,
      "amx_emulated");
  EXPECT_STREQ(
      ResolveKernelVariant(KernelKind::kAvx512, KernelImpl::kEmulated, DType::kI8).name,
      "avx512_emulated");
  EXPECT_STREQ(
      ResolveKernelVariant(KernelKind::kAvx2, KernelImpl::kEmulated, DType::kBF16).name,
      "scalar");
  // kAuto resolves to the exact native when this host has it.
  if (NativeAmxAvailable()) {
    EXPECT_STREQ(
        ResolveKernelVariant(KernelKind::kAmx, KernelImpl::kAuto, DType::kBF16).name,
        "amx_native");
    // ... but AMX cannot host f32; the next tier down takes it.
    const KernelVariant& f32v =
        ResolveKernelVariant(KernelKind::kAmx, KernelImpl::kAuto, DType::kF32);
    EXPECT_TRUE(f32v.supports_dtype(DType::kF32));
    EXPECT_NE(f32v.kind, KernelKind::kAmx);
  }
  if (NativeAvx512Available()) {
    EXPECT_STREQ(
        ResolveKernelVariant(KernelKind::kAvx512, KernelImpl::kAuto, DType::kI8).name,
        "avx512_native");
  }
  // Whatever kAuto resolves to is runnable right now.
  for (KernelKind kind : {KernelKind::kAmx, KernelKind::kAvx512, KernelKind::kAvx2}) {
    for (DType dtype : {DType::kF32, DType::kBF16, DType::kI8, DType::kI4}) {
      const KernelVariant& v = ResolveKernelVariant(kind, KernelImpl::kAuto, dtype);
      EXPECT_TRUE(v.available());
      EXPECT_TRUE(v.supports_dtype(dtype));
    }
  }
}

// Satellite: GemmScratchBytes is the registry-wide max, so one preallocated
// region satisfies every variant dispatch can pick (no thread-local heap
// fallback on the decode path).
TEST(KernelRegistryTest, GemmScratchBytesIsRegistryMax) {
  Rng rng(3);
  const Tensor wf = Tensor::Randn({64, 192}, rng);
  for (DType dtype : {DType::kF32, DType::kBF16, DType::kI8, DType::kI4}) {
    auto packed = PackedMatrix::Pack(wf, dtype);
    ASSERT_TRUE(packed.ok());
    const std::size_t max_bytes = GemmScratchBytes(packed.value());
    for (const KernelVariant& v : KernelRegistry()) {
      if (!v.supports_dtype(dtype)) {
        continue;
      }
      EXPECT_GE(max_bytes, v.scratch_bytes(packed.value()))
          << v.name << " dtype=" << DTypeName(dtype);
    }
  }
}

TEST(KernelRegistryTest, ParseForcedKernel) {
  auto amx = ParseForcedKernel("amx_native");
  ASSERT_TRUE(amx.has_value());
  EXPECT_EQ(amx->kind, KernelKind::kAmx);
  EXPECT_EQ(amx->impl, KernelImpl::kNative);
  auto scalar = ParseForcedKernel("scalar");
  ASSERT_TRUE(scalar.has_value());
  EXPECT_EQ(scalar->kind, KernelKind::kScalar);
  auto bare = ParseForcedKernel("avx2");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->kind, KernelKind::kAvx2);
  EXPECT_EQ(bare->impl, KernelImpl::kAuto);
  EXPECT_FALSE(ParseForcedKernel("sse2").has_value());
  EXPECT_FALSE(ParseForcedKernel("").has_value());
}

KernelCalibrationOptions TinyCalibration(std::string profile_path = {}) {
  KernelCalibrationOptions opts;
  opts.grid = {1, 2, 8, 16};
  opts.n = 64;
  opts.k = 64;
  opts.reps = 1;
  opts.warmup = 0;
  opts.profile_path = std::move(profile_path);
  return opts;
}

TEST(KernelCalibrateTest, CalibratesAllDtypeClassesWithRunnableKinds) {
  const KernelCalibrationResult result = CalibrateKernels(TinyCalibration());
  EXPECT_FALSE(result.from_cache);
  EXPECT_GT(result.microbench_samples, 0);
  EXPECT_FALSE(result.table.empty());
  ASSERT_FALSE(result.table.f32.empty());
  ASSERT_FALSE(result.table.bf16.empty());
  ASSERT_FALSE(result.table.quant.empty());
  for (DType dtype : {DType::kF32, DType::kBF16, DType::kI8, DType::kI4}) {
    for (std::int64_t m : {std::int64_t{1}, std::int64_t{4}, std::int64_t{32}}) {
      const KernelKind kind = result.table.Choose(dtype, m);
      // The calibrated pick must be runnable and dtype-capable as resolved.
      const KernelVariant& v = ResolveKernelVariant(kind, KernelImpl::kAuto, dtype);
      EXPECT_TRUE(v.available());
      EXPECT_TRUE(v.supports_dtype(dtype));
    }
  }
}

TEST(KernelCalibrateTest, ProfileRoundTripSkipsMicrobenchmark) {
  const std::string path = "kernel_profile_roundtrip_test.json";
  std::remove(path.c_str());
  const KernelCalibrationResult first = CalibrateOrLoad(TinyCalibration(path));
  EXPECT_FALSE(first.from_cache);
  EXPECT_GT(first.microbench_samples, 0);
  // Second start: cached profile, ZERO microbenchmark work (the acceptance
  // criterion for serving restarts).
  const KernelCalibrationResult second = CalibrateOrLoad(TinyCalibration(path));
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.microbench_samples, 0);
  ASSERT_EQ(second.table.bf16.size(), first.table.bf16.size());
  for (std::size_t i = 0; i < first.table.bf16.size(); ++i) {
    EXPECT_EQ(second.table.bf16[i].min_m, first.table.bf16[i].min_m);
    EXPECT_EQ(second.table.bf16[i].kind, first.table.bf16[i].kind);
  }
  EXPECT_EQ(second.signature, first.signature);
  std::remove(path.c_str());
}

TEST(KernelCalibrateTest, CorruptProfileFallsBackToRecalibration) {
  const std::string path = "kernel_profile_corrupt_test.json";
  {
    std::ofstream out(path);
    out << "{ this is not json ]";
  }
  const KernelCalibrationResult result = CalibrateOrLoad(TinyCalibration(path));
  EXPECT_FALSE(result.from_cache);  // warned + recalibrated, not aborted
  EXPECT_GT(result.microbench_samples, 0);
  // The rewrite leaves a loadable profile behind.
  const KernelCalibrationResult reloaded = CalibrateOrLoad(TinyCalibration(path));
  EXPECT_TRUE(reloaded.from_cache);
  std::remove(path.c_str());
}

TEST(KernelCalibrateTest, StaleSignatureProfileIsRejected) {
  const std::string path = "kernel_profile_stale_test.json";
  const KernelCalibrationResult fresh = CalibrateOrLoad(TinyCalibration(path));
  EXPECT_FALSE(fresh.from_cache);
  // A different grid changes the signature: the cached file must be rejected
  // and recalibrated, not silently reused.
  KernelCalibrationOptions changed = TinyCalibration(path);
  changed.grid = {1, 4};
  const KernelCalibrationResult recal = CalibrateOrLoad(changed);
  EXPECT_FALSE(recal.from_cache);
  EXPECT_GT(recal.microbench_samples, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ktx
