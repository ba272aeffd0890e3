#include <gtest/gtest.h>

#include <iostream>
#include <tuple>

#include "src/common/rng.h"
#include "src/cpu/activation.h"
#include "src/cpu/cpu_features.h"
#include "src/cpu/amx_native.h"
#include "src/cpu/gemm.h"
#include "src/cpu/kernel_registry.h"
#include "src/cpu/layout.h"
#include "src/cpu/tile.h"

namespace ktx {
namespace {

// Error budgets: bf16 rounds inputs to 8-bit mantissas; int8/int4 group
// quantization dominates its paths.
constexpr float kBf16Tol = 0.02f;
constexpr float kI8Tol = 0.03f;
constexpr float kI4Tol = 0.25f;

float TolFor(DType dtype) {
  switch (dtype) {
    case DType::kBF16:
      return kBf16Tol;
    case DType::kI8:
      return kI8Tol;
    default:
      return kI4Tol;
  }
}

TEST(TileTest, TdpBf16MatchesManualDot) {
  Rng rng(1);
  // A: 16 rows x 32 bf16; B in VNNI layout for a [16, 32] weight block.
  Tensor w = Tensor::Randn({16, 32}, rng);
  Tensor x = Tensor::Randn({16, 32}, rng);
  TileReg a;
  BuildActivationTileBf16(x.f32(), 32, 16, 0, 32, &a);
  auto packed = PackedMatrix::Pack(w, DType::kBF16);
  ASSERT_TRUE(packed.ok());
  TileReg b;
  b.Load(packed->tile_ptr(0, 0), kTileBytesPerRow);
  AccTile c;
  c.Zero();
  TdpBf16Ps(c, a, b);
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) {
      float expect = 0.0f;
      for (int k = 0; k < 32; ++k) {
        expect += BF16ToFloat(FloatToBF16(x.At(i, k))) * BF16ToFloat(FloatToBF16(w.At(j, k)));
      }
      EXPECT_NEAR(c.f32[i][j], expect, 1e-3f) << i << "," << j;
    }
  }
}

TEST(TileTest, TdpBssdMatchesManualIntegerDot) {
  TileReg a;
  TileReg b;
  std::memset(a.data, 0, sizeof(a.data));
  std::memset(b.data, 0, sizeof(b.data));
  auto* ai = reinterpret_cast<std::int8_t*>(a.data);
  auto* bi = reinterpret_cast<std::int8_t*>(b.data);
  Rng rng(2);
  for (int i = 0; i < kTileBytes; ++i) {
    ai[i] = static_cast<std::int8_t>(rng.NextBounded(255)) - 127;
    bi[i] = static_cast<std::int8_t>(rng.NextBounded(255)) - 127;
  }
  AccTile c;
  c.Zero();
  TdpBssd(c, a, b);
  // Check one arbitrary cell against the documented semantics.
  std::int32_t expect = 0;
  const int i = 5;
  const int j = 11;
  for (int p = 0; p < 16; ++p) {
    for (int r = 0; r < 4; ++r) {
      expect += static_cast<std::int32_t>(ai[i * 64 + 4 * p + r]) *
                static_cast<std::int32_t>(bi[p * 64 + 4 * j + r]);
    }
  }
  EXPECT_EQ(c.i32()[i * 16 + j], expect);
}

TEST(TileTest, RaggedRowsZeroPadded) {
  TileReg t;
  float x[2 * 8] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  BuildActivationTileBf16(x, 8, 2, 0, 8, &t);
  const auto* v = reinterpret_cast<const std::uint16_t*>(t.data);
  EXPECT_EQ(BF16ToFloat(BF16{v[0]}), 1.0f);
  EXPECT_EQ(BF16ToFloat(BF16{v[32 + 1]}), 10.0f);
  // Row 2 onwards must be zero.
  for (int i = 2 * 32; i < 16 * 32; ++i) {
    EXPECT_EQ(v[i], 0) << i;
  }
}

TEST(LayoutTest, PackUnpackBf16RoundTrip) {
  Rng rng(3);
  Tensor w = Tensor::Randn({35, 70}, rng);  // ragged in both dims
  auto packed = PackedMatrix::Pack(w, DType::kBF16);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed->n_blocks(), 3);
  EXPECT_EQ(packed->k_blocks(), 3);
  Tensor back = packed->Unpack();
  // Unpack returns the bf16-rounded values.
  EXPECT_EQ(MaxAbsDiff(back, w.ToBF16().ToF32()), 0.0f);
}

TEST(LayoutTest, PackUnpackInt8WithinQuantError) {
  Rng rng(4);
  Tensor w = Tensor::Randn({20, 130}, rng);
  auto packed = PackedMatrix::Pack(w, DType::kI8);
  ASSERT_TRUE(packed.ok());
  Tensor back = packed->Unpack();
  EXPECT_LT(RelativeError(back, w), 0.02f);
}

TEST(LayoutTest, PackUnpackInt4WithinQuantError) {
  Rng rng(5);
  Tensor w = Tensor::Randn({20, 128}, rng);
  auto packed = PackedMatrix::Pack(w, DType::kI4);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed->tile_bytes(), static_cast<std::size_t>(kTileBytes / 2));
  Tensor back = packed->Unpack();
  EXPECT_LT(RelativeError(back, w), 0.15f);
}

TEST(LayoutTest, TilesAreCacheLineAligned) {
  Rng rng(6);
  Tensor w = Tensor::Randn({32, 64}, rng);
  auto packed = PackedMatrix::Pack(w, DType::kBF16);
  ASSERT_TRUE(packed.ok());
  for (std::int64_t nb = 0; nb < packed->n_blocks(); ++nb) {
    for (std::int64_t kb = 0; kb < packed->k_blocks(); ++kb) {
      EXPECT_TRUE(IsAligned(packed->tile_ptr(nb, kb), kCacheLineBytes));
    }
  }
}

TEST(LayoutTest, ColSumsMatchQuantizedPayload) {
  Rng rng(7);
  Tensor w = Tensor::Randn({17, 64}, rng);
  auto packed = PackedMatrix::Pack(w, DType::kI8);
  ASSERT_TRUE(packed.ok());
  Tensor back = packed->Unpack();
  // col_sum * scale == sum of dequantized values per (row, block).
  for (std::int64_t r = 0; r < 17; ++r) {
    float sum = 0.0f;
    for (std::int64_t c = 0; c < 64; ++c) {
      sum += back.At(r, c);
    }
    EXPECT_NEAR(sum, static_cast<float>(packed->col_sum(r, 0)) * packed->scale(r, 0), 1e-3f);
  }
}

TEST(SelectKernelTest, AriThreshold) {
  // The Fig. 7 crossover with every kind present; host availability is
  // covered by SelectKernelHonorsAvailability in kernel_registry_test.
  const KernelAvailability all{/*amx=*/true, /*avx512=*/true, /*avx2=*/true};
  EXPECT_EQ(SelectKernelWith(1, 4, all), KernelKind::kAvx512);
  EXPECT_EQ(SelectKernelWith(4, 4, all), KernelKind::kAvx512);
  EXPECT_EQ(SelectKernelWith(5, 4, all), KernelKind::kAmx);
  EXPECT_EQ(SelectKernelWith(1024, 4, all), KernelKind::kAmx);
  EXPECT_EQ(SelectKernelWith(8, 16, all), KernelKind::kAvx512);
  // The convenience overload is exactly the host-availability spelling.
  EXPECT_EQ(SelectKernel(3, 4), SelectKernelWith(3, 4, KernelAvailability::Host()));
  EXPECT_EQ(SelectKernel(99, 4), SelectKernelWith(99, 4, KernelAvailability::Host()));
}

struct GemmCase {
  std::int64_t m;
  std::int64_t n;
  std::int64_t k;
  DType dtype;
};

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, EmulatedMatchesReference) {
  const GemmCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.m * 131 + c.n * 7 + c.k));
  Tensor w = Tensor::Randn({c.n, c.k}, rng, 0.5f);
  Tensor x = Tensor::Randn({c.m, c.k}, rng, 0.5f);
  Tensor ref({c.m, c.n}, DType::kF32);
  RefGemm(x.f32(), c.m, c.k, w, ref.f32(), c.n);

  auto packed = PackedMatrix::Pack(w, c.dtype);
  ASSERT_TRUE(packed.ok());
  Tensor out({c.m, c.n}, DType::kF32);
  GemmOptions opts;
  opts.impl = KernelImpl::kEmulated;
  GemmPacked(x.f32(), c.m, c.k, *packed, out.f32(), c.n, opts);
  EXPECT_LT(RelativeError(out, ref), TolFor(c.dtype))
      << "m=" << c.m << " n=" << c.n << " k=" << c.k << " " << DTypeName(c.dtype);
}

TEST_P(GemmSweep, NativeMatchesEmulatedWhenAvailable) {
  const GemmCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.m * 17 + c.n * 3 + c.k));
  Tensor w = Tensor::Randn({c.n, c.k}, rng, 0.5f);
  Tensor x = Tensor::Randn({c.m, c.k}, rng, 0.5f);
  auto packed = PackedMatrix::Pack(w, c.dtype);
  ASSERT_TRUE(packed.ok());

  Tensor emu({c.m, c.n}, DType::kF32);
  GemmOptions eopts;
  eopts.impl = KernelImpl::kEmulated;
  GemmPacked(x.f32(), c.m, c.k, *packed, emu.f32(), c.n, eopts);

  for (KernelKind kind : {KernelKind::kAmx, KernelKind::kAvx512, KernelKind::kAvx2}) {
    if (!KernelAvailable(kind, KernelImpl::kNative)) {
      continue;
    }
    Tensor nat({c.m, c.n}, DType::kF32);
    GemmOptions nopts;
    nopts.kind = kind;
    nopts.impl = KernelImpl::kNative;
    GemmPacked(x.f32(), c.m, c.k, *packed, nat.f32(), c.n, nopts);
    // Every variant computes the canonical op sequence: bit-identical, not
    // merely close (kernel_registry.h).
    EXPECT_EQ(MaxAbsDiff(nat, emu), 0.0f) << "kind=" << KernelKindName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(GemmCase{1, 16, 32, DType::kBF16}, GemmCase{1, 48, 96, DType::kBF16},
                      GemmCase{3, 33, 65, DType::kBF16}, GemmCase{16, 64, 128, DType::kBF16},
                      GemmCase{37, 80, 160, DType::kBF16}, GemmCase{1, 64, 128, DType::kI8},
                      GemmCase{5, 48, 64, DType::kI8}, GemmCase{24, 96, 192, DType::kI8},
                      GemmCase{1, 64, 128, DType::kI4}, GemmCase{7, 32, 192, DType::kI4},
                      GemmCase{18, 80, 128, DType::kI4}));

TEST(GemmTest, AccumulateAddsToExisting) {
  Rng rng(9);
  Tensor w = Tensor::Randn({16, 32}, rng);
  Tensor x = Tensor::Randn({2, 32}, rng);
  auto packed = PackedMatrix::Pack(w, DType::kBF16);
  ASSERT_TRUE(packed.ok());
  Tensor once({2, 16}, DType::kF32);
  GemmOptions opts;
  opts.impl = KernelImpl::kEmulated;
  GemmPacked(x.f32(), 2, 32, *packed, once.f32(), 16, opts);
  Tensor twice = once.Clone();
  opts.accumulate = true;
  GemmPacked(x.f32(), 2, 32, *packed, twice.f32(), 16, opts);
  for (std::int64_t i = 0; i < twice.numel(); ++i) {
    EXPECT_NEAR(twice.f32()[i], 2.0f * once.f32()[i], 1e-5f);
  }
}

TEST(GemmTest, RefGemmIsOneSerialDoubleSumPerOutput) {
  // RefGemm runs several outputs side by side; each must still be the plain
  // ascending-k double sum, bit for bit, including the leftover outputs past
  // the last full group (n = 7) and with accumulate.
  Rng rng(12);
  Tensor w = Tensor::Randn({7, 45}, rng);
  Tensor x = Tensor::Randn({3, 45}, rng);
  for (const bool accumulate : {false, true}) {
    Tensor y = Tensor::Randn({3, 7}, rng);
    Tensor expect = y.Clone();
    RefGemm(x.f32(), 3, 45, w, y.f32(), 7, accumulate);
    for (std::int64_t i = 0; i < 3; ++i) {
      for (std::int64_t j = 0; j < 7; ++j) {
        double acc = 0.0;
        for (std::int64_t c = 0; c < 45; ++c) {
          acc += static_cast<double>(x.f32()[i * 45 + c]) * w.f32()[j * 45 + c];
        }
        float& e = expect.f32()[i * 7 + j];
        e = accumulate ? e + static_cast<float>(acc) : static_cast<float>(acc);
      }
    }
    EXPECT_EQ(MaxAbsDiff(y, expect), 0.0f) << "accumulate=" << accumulate;
  }
}

TEST(GemmTest, NbRangeComputesBandOnly) {
  Rng rng(10);
  Tensor w = Tensor::Randn({48, 64}, rng);
  Tensor x = Tensor::Randn({4, 64}, rng);
  auto packed = PackedMatrix::Pack(w, DType::kBF16);
  ASSERT_TRUE(packed.ok());
  Tensor full({4, 48}, DType::kF32);
  GemmOptions opts;
  opts.impl = KernelImpl::kEmulated;
  GemmPacked(x.f32(), 4, 64, *packed, full.f32(), 48, opts);

  Tensor banded = Tensor::Full({4, 48}, -7.0f);
  opts.nb_begin = 1;
  opts.nb_end = 2;  // columns [16, 32)
  GemmPacked(x.f32(), 4, 64, *packed, banded.f32(), 48, opts);
  for (std::int64_t r = 0; r < 4; ++r) {
    for (std::int64_t c = 0; c < 48; ++c) {
      if (c >= 16 && c < 32) {
        EXPECT_EQ(banded.At(r, c), full.At(r, c));
      } else {
        EXPECT_EQ(banded.At(r, c), -7.0f);
      }
    }
  }
}

TEST(GemmTest, BandsPartitionFullResult) {
  Rng rng(11);
  Tensor w = Tensor::Randn({64, 64}, rng);
  Tensor x = Tensor::Randn({3, 64}, rng);
  auto packed = PackedMatrix::Pack(w, DType::kI8);
  ASSERT_TRUE(packed.ok());
  Tensor full({3, 64}, DType::kF32);
  GemmOptions opts;
  opts.impl = KernelImpl::kEmulated;
  GemmPacked(x.f32(), 3, 64, *packed, full.f32(), 64, opts);
  Tensor pieced({3, 64}, DType::kF32);
  for (std::int64_t nb = 0; nb < packed->n_blocks(); ++nb) {
    opts.nb_begin = nb;
    opts.nb_end = nb + 1;
    GemmPacked(x.f32(), 3, 64, *packed, pieced.f32(), 64, opts);
  }
  EXPECT_EQ(MaxAbsDiff(pieced, full), 0.0f);
}

TEST(ActivationTest, SiluValues) {
  EXPECT_NEAR(Silu(0.0f), 0.0f, 1e-7f);
  EXPECT_NEAR(Silu(10.0f), 10.0f, 1e-3f);   // sigmoid ~ 1
  EXPECT_NEAR(Silu(-10.0f), 0.0f, 1e-3f);   // sigmoid ~ 0
}

TEST(ActivationTest, SoftmaxSumsToOneAndIsStable) {
  float v[4] = {1000.0f, 1001.0f, 999.0f, 1000.5f};
  Softmax(v, 4);
  float sum = 0.0f;
  for (float f : v) {
    EXPECT_GT(f, 0.0f);
    sum += f;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
  EXPECT_GT(v[1], v[3]);
}

TEST(ActivationTest, RmsNormUnitScale) {
  float x[4] = {2.0f, -2.0f, 2.0f, -2.0f};
  float w[4] = {1.0f, 1.0f, 1.0f, 1.0f};
  float out[4];
  RmsNorm(x, w, out, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(out[i], x[i] / 2.0f, 1e-4f);
  }
}


TEST(GemmTest, NativeAvx2MatchesEmulatedBf16) {
  if (!NativeAvx2Available()) {
    GTEST_SKIP() << "no AVX2+FMA on this host";
  }
  Rng rng(21);
  Tensor w = Tensor::Randn({48, 96}, rng, 0.5f);
  Tensor x = Tensor::Randn({5, 96}, rng, 0.5f);
  auto packed = PackedMatrix::Pack(w, DType::kBF16);
  ASSERT_TRUE(packed.ok());

  Tensor emu({5, 48}, DType::kF32);
  GemmOptions eopts;
  eopts.impl = KernelImpl::kEmulated;
  GemmPacked(x.f32(), 5, 96, *packed, emu.f32(), 48, eopts);

  Tensor avx2({5, 48}, DType::kF32);
  NativeAvx2GemmBf16(x.f32(), 5, 96, *packed, avx2.f32(), 48, /*accumulate=*/false, 0,
                     packed->n_blocks());
  EXPECT_EQ(MaxAbsDiff(avx2, emu), 0.0f);
}

TEST(GemmTest, NativeAvx2HonorsBandsAndAccumulate) {
  if (!NativeAvx2Available()) {
    GTEST_SKIP() << "no AVX2+FMA on this host";
  }
  Rng rng(22);
  Tensor w = Tensor::Randn({40, 64}, rng, 0.5f);
  Tensor x = Tensor::Randn({2, 64}, rng, 0.5f);
  auto packed = PackedMatrix::Pack(w, DType::kBF16);
  ASSERT_TRUE(packed.ok());
  Tensor once({2, 40}, DType::kF32);
  NativeAvx2GemmBf16(x.f32(), 2, 64, *packed, once.f32(), 40, false, 0, packed->n_blocks());
  Tensor twice = once.Clone();
  NativeAvx2GemmBf16(x.f32(), 2, 64, *packed, twice.f32(), 40, true, 0, packed->n_blocks());
  for (std::int64_t i = 0; i < twice.numel(); ++i) {
    // The second pass recomputes the identical bits; v + v is exact in f32.
    EXPECT_EQ(twice.f32()[i], 2.0f * once.f32()[i]);
  }
  // Band restriction writes only columns [16, 32).
  Tensor banded = Tensor::Full({2, 40}, -3.0f);
  NativeAvx2GemmBf16(x.f32(), 2, 64, *packed, banded.f32(), 40, false, 1, 2);
  for (std::int64_t r = 0; r < 2; ++r) {
    for (std::int64_t c = 0; c < 40; ++c) {
      if (c < 16 || c >= 32) {
        EXPECT_EQ(banded.At(r, c), -3.0f) << r << "," << c;
      } else {
        EXPECT_EQ(banded.At(r, c), once.At(r, c)) << r << "," << c;
      }
    }
  }
}


TEST(GemmTest, NativeAvx2Int8MatchesEmulated) {
  if (!NativeAvx2Available()) {
    GTEST_SKIP() << "no AVX2+FMA on this host";
  }
  for (DType dtype : {DType::kI8, DType::kI4}) {
    Rng rng(23);
    Tensor w = Tensor::Randn({48, 128}, rng, 0.5f);
    Tensor x = Tensor::Randn({3, 128}, rng, 0.5f);
    auto packed = PackedMatrix::Pack(w, dtype);
    ASSERT_TRUE(packed.ok());
    Tensor emu({3, 48}, DType::kF32);
    GemmOptions eopts;
    eopts.impl = KernelImpl::kEmulated;
    GemmPacked(x.f32(), 3, 128, *packed, emu.f32(), 48, eopts);
    Tensor avx2({3, 48}, DType::kF32);
    NativeAvx2GemmInt8(x.f32(), 3, 128, *packed, avx2.f32(), 48, false, 0,
                       packed->n_blocks());
    // Identical integer MACs and the canonical rescale order: bit-identical.
    EXPECT_EQ(MaxAbsDiff(avx2, emu), 0.0f) << DTypeName(dtype);
  }
}


TEST(LayoutTest, PackUnpackF32IsExact) {
  Rng rng(41);
  Tensor w = Tensor::Randn({35, 70}, rng);  // ragged in both dims
  auto packed = PackedMatrix::Pack(w, DType::kF32);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed->k_block(), kKBlockF32);
  EXPECT_EQ(MaxAbsDiff(packed->Unpack(), w), 0.0f);
}

TEST(GemmTest, F32BitIdenticalAcrossBackends) {
  // The kF32 layout exists so the hot-expert cache can be enabled with zero
  // output drift: every backend walks the identical per-output k-order fma
  // chain, so results must match BITWISE, not just within tolerance.
  Rng rng(42);
  const std::tuple<std::int64_t, std::int64_t, std::int64_t> shapes[] = {
      {1, 48, 96}, {3, 35, 70}, {8, 64, 64}};
  for (const auto& [m, n, k] : shapes) {
    Rng data = rng.Split(static_cast<std::uint64_t>(m * 1000 + n));
    Tensor w = Tensor::Randn({n, k}, data, 0.5f);
    Tensor x = Tensor::Randn({m, k}, data, 0.5f);
    auto packed = PackedMatrix::Pack(w, DType::kF32);
    ASSERT_TRUE(packed.ok());

    Tensor emu({m, n}, DType::kF32);
    GemmOptions eopts;
    eopts.impl = KernelImpl::kEmulated;
    GemmPacked(x.f32(), m, k, *packed, emu.f32(), n, eopts);
    Tensor ref({m, n}, DType::kF32);
    RefGemm(x.f32(), m, k, w, ref.f32(), n);
    EXPECT_LT(RelativeError(emu, ref), 1e-5f);

    for (KernelKind kind : {KernelKind::kAmx, KernelKind::kAvx512, KernelKind::kAvx2}) {
      if (!KernelAvailable(kind, KernelImpl::kNative)) {
        continue;
      }
      Tensor nat({m, n}, DType::kF32);
      GemmOptions nopts;
      nopts.kind = kind;
      nopts.impl = KernelImpl::kNative;
      GemmPacked(x.f32(), m, k, *packed, nat.f32(), n, nopts);
      EXPECT_EQ(MaxAbsDiff(nat, emu), 0.0f)
          << "m=" << m << " kind=" << KernelKindName(kind);
    }
  }
}

TEST(GemmTest, QuantGemvErrorBoundHolds) {
  // The cold-expert SNR budget: every quantized GEMM output must sit inside
  // the per-row analytic bound derived from the stored scales (weight
  // rounding + int8 activation rounding). Ragged k exercises partial blocks.
  Rng rng(43);
  for (DType dtype : {DType::kI8, DType::kI4}) {
    Tensor w = Tensor::Randn({21, 100}, rng, 0.5f);
    Tensor x = Tensor::Randn({3, 100}, rng, 0.5f);
    auto packed = PackedMatrix::Pack(w, dtype);
    ASSERT_TRUE(packed.ok());
    Tensor ref({3, 21}, DType::kF32);
    RefGemm(x.f32(), 3, 100, w, ref.f32(), 21);
    Tensor emu({3, 21}, DType::kF32);
    GemmOptions opts;
    opts.impl = KernelImpl::kEmulated;
    GemmPacked(x.f32(), 3, 100, *packed, emu.f32(), 21, opts);
    for (std::int64_t i = 0; i < 3; ++i) {
      for (std::int64_t j = 0; j < 21; ++j) {
        const float bound = QuantGemvErrorBound(*packed, x.f32() + i * 100, j);
        // Tiny slack for the f32 accumulation the analytic bound ignores.
        EXPECT_LE(std::abs(emu.At(i, j) - ref.At(i, j)), bound * 1.001f + 1e-5f)
            << DTypeName(dtype) << " (" << i << "," << j << ")";
        EXPECT_GE(bound, 0.0f);
      }
    }
  }
}

TEST(GemmTest, Int4FusedUnpackMatchesEmulatedRaggedShapes) {
  // The fused nibble-unpack paths (AMX tile helper, AVX-512 in-register,
  // AVX2) against the scalar emulation on shapes with partial tiles.
  Rng rng(44);
  const std::tuple<std::int64_t, std::int64_t, std::int64_t> shapes[] = {
      {1, 21, 100}, {5, 33, 200}, {16, 16, 64}};
  for (const auto& [m, n, k] : shapes) {
    Rng data = rng.Split(static_cast<std::uint64_t>(n * 1000 + k));
    Tensor w = Tensor::Randn({n, k}, data, 0.5f);
    Tensor x = Tensor::Randn({m, k}, data, 0.5f);
    auto packed = PackedMatrix::Pack(w, DType::kI4);
    ASSERT_TRUE(packed.ok());
    Tensor emu({m, n}, DType::kF32);
    GemmOptions eopts;
    eopts.impl = KernelImpl::kEmulated;
    GemmPacked(x.f32(), m, k, *packed, emu.f32(), n, eopts);
    for (KernelKind kind : {KernelKind::kAmx, KernelKind::kAvx512, KernelKind::kAvx2}) {
      if (!KernelAvailable(kind, KernelImpl::kNative)) {
        continue;
      }
      Tensor nat({m, n}, DType::kF32);
      GemmOptions nopts;
      nopts.kind = kind;
      nopts.impl = KernelImpl::kNative;
      GemmPacked(x.f32(), m, k, *packed, nat.f32(), n, nopts);
      EXPECT_EQ(MaxAbsDiff(nat, emu), 0.0f) << "m=" << m << " kind=" << KernelKindName(kind);
    }
  }
}

TEST(GemmFuzzTest, RandomShapesAgreeAcrossAllBackends) {
  // Differential fuzz: 40 random (m, n, k, dtype) draws; every available
  // backend must agree with the emulation, and the emulation with RefGemm
  // within the dtype's error budget.
  Rng rng(31337);
  for (int round = 0; round < 40; ++round) {
    const std::int64_t m = 1 + static_cast<std::int64_t>(rng.NextBounded(40));
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.NextBounded(96));
    std::int64_t k = 1 + static_cast<std::int64_t>(rng.NextBounded(192));
    const int pick = static_cast<int>(rng.NextBounded(3));
    const DType dtype = pick == 0 ? DType::kBF16 : pick == 1 ? DType::kI8 : DType::kI4;
    Rng data = rng.Split(static_cast<std::uint64_t>(round));
    Tensor w = Tensor::Randn({n, k}, data, 0.5f);
    Tensor x = Tensor::Randn({m, k}, data, 0.5f);

    Tensor ref({m, n}, DType::kF32);
    RefGemm(x.f32(), m, k, w, ref.f32(), n);

    auto packed = PackedMatrix::Pack(w, dtype);
    ASSERT_TRUE(packed.ok());
    Tensor emu({m, n}, DType::kF32);
    GemmOptions eopts;
    eopts.impl = KernelImpl::kEmulated;
    GemmPacked(x.f32(), m, k, *packed, emu.f32(), n, eopts);
    ASSERT_LT(RelativeError(emu, ref), TolFor(dtype))
        << "round " << round << " m=" << m << " n=" << n << " k=" << k << " "
        << DTypeName(dtype);

    for (KernelKind kind : {KernelKind::kAmx, KernelKind::kAvx512, KernelKind::kAvx2}) {
      if (!KernelAvailable(kind, KernelImpl::kNative)) {
        continue;
      }
      Tensor nat({m, n}, DType::kF32);
      GemmOptions nopts;
      nopts.kind = kind;
      nopts.impl = KernelImpl::kNative;
      GemmPacked(x.f32(), m, k, *packed, nat.f32(), n, nopts);
      ASSERT_EQ(MaxAbsDiff(nat, emu), 0.0f)
          << "round " << round << " kind=" << KernelKindName(kind);
    }
  }
}

TEST(CpuFeaturesTest, DetectionIsStableAndConsistent) {
  const CpuFeatures& f1 = GetCpuFeatures();
  const CpuFeatures& f2 = GetCpuFeatures();
  EXPECT_EQ(&f1, &f2);
  if (NativeAmxAvailable()) {
    EXPECT_TRUE(f1.amx_tile && f1.amx_usable);
  }
  std::cout << "[ cpu ] " << f1.ToString() << "\n";
  std::cout << "[ cpu ] native amx=" << NativeAmxAvailable()
            << " native avx512=" << NativeAvx512Available() << "\n";
}

}  // namespace
}  // namespace ktx
