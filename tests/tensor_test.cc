#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/tensor/dtype.h"
#include "src/tensor/tensor.h"

namespace ktx {
namespace {

TEST(DTypeTest, BitsAndBytes) {
  EXPECT_EQ(DTypeBits(DType::kF32), 32);
  EXPECT_EQ(DTypeBits(DType::kBF16), 16);
  EXPECT_EQ(DTypeBits(DType::kI8), 8);
  EXPECT_EQ(DTypeBits(DType::kI4), 4);
  EXPECT_EQ(DTypeBytes(DType::kI4, 3), 2u);  // rounds up
  EXPECT_EQ(DTypeBytes(DType::kBF16, 5), 10u);
}

TEST(BF16Test, RoundTripRepresentableValues) {
  // Values with <= 8 mantissa bits survive bf16 exactly.
  for (float v : {0.0f, 1.0f, -2.5f, 0.15625f, 1024.0f, -3.140625f}) {
    EXPECT_EQ(BF16ToFloat(FloatToBF16(v)), v) << v;
  }
}

TEST(BF16Test, RoundToNearestEven) {
  // bf16 stores 7 mantissa bits, so the ulp at 1.0 is 2^-7. 1 + 2^-8 is
  // exactly halfway between two bf16 values; ties go to even (1.0).
  const float halfway = 1.0f + std::ldexp(1.0f, -8);
  EXPECT_EQ(BF16ToFloat(FloatToBF16(halfway)), 1.0f);
  // Just above halfway rounds up to 1 + 2^-7.
  const float above = 1.0f + std::ldexp(1.0f, -8) + std::ldexp(1.0f, -11);
  EXPECT_EQ(BF16ToFloat(FloatToBF16(above)), 1.0f + std::ldexp(1.0f, -7));
}

TEST(BF16Test, RelativeErrorBound) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const float v = rng.NextGaussian() * 100.0f;
    const float r = BF16ToFloat(FloatToBF16(v));
    if (v != 0.0f) {
      EXPECT_LE(std::fabs(r - v) / std::fabs(v), 1.0f / 256.0f) << v;
    }
  }
}

TEST(FP16Test, RoundTripRepresentable) {
  for (float v : {0.0f, 1.0f, -2.5f, 0.15625f, 1024.0f, 65504.0f, -65504.0f}) {
    EXPECT_EQ(FP16ToFloat(FloatToFP16(v)), v) << v;
  }
}

TEST(FP16Test, OverflowToInf) {
  EXPECT_TRUE(std::isinf(FP16ToFloat(FloatToFP16(70000.0f))));
  EXPECT_TRUE(std::isinf(FP16ToFloat(FloatToFP16(-70000.0f))));
}

TEST(FP16Test, SubnormalsSurvive) {
  const float tiny = std::ldexp(1.0f, -24);  // smallest positive fp16 subnormal
  EXPECT_EQ(FP16ToFloat(FloatToFP16(tiny)), tiny);
}

TEST(FP16Test, ExhaustiveBitPatternsRoundTrip) {
  // Every finite fp16 value must convert to f32 and back unchanged.
  for (std::uint32_t bits = 0; bits < 0x10000; ++bits) {
    const FP16 h{static_cast<std::uint16_t>(bits)};
    const float f = FP16ToFloat(h);
    if (std::isnan(f)) {
      continue;
    }
    EXPECT_EQ(FloatToFP16(f).bits, h.bits) << "bits=" << bits;
  }
}

TEST(TensorTest, ZerosAndShape) {
  Tensor t({3, 5}, DType::kF32);
  EXPECT_EQ(t.numel(), 15);
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(1), 5);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(t.f32()[i], 0.0f);
  }
  EXPECT_EQ(t.ShapeString(), "[3,5]f32");
}

TEST(TensorTest, StorageIsAligned) {
  Tensor t({17, 31}, DType::kBF16);
  EXPECT_TRUE(IsAligned(t.raw(), kCacheLineBytes));
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a = Tensor::Full({4}, 2.0f);
  Tensor b = a.Clone();
  b.f32()[0] = 9.0f;
  EXPECT_EQ(a.f32()[0], 2.0f);
}

TEST(TensorTest, ReshapeSharesStorage) {
  Tensor a = Tensor::Full({4, 2}, 1.0f);
  Tensor b = a.Reshape({2, 4});
  b.f32()[0] = 7.0f;
  EXPECT_EQ(a.f32()[0], 7.0f);
}

TEST(TensorTest, SliceViewsRows) {
  Tensor a({4, 3}, DType::kF32);
  for (std::int64_t i = 0; i < 12; ++i) {
    a.f32()[i] = static_cast<float>(i);
  }
  Tensor s = a.Slice(1, 2);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.f32()[0], 3.0f);  // row 1 starts at element 3
  s.f32()[0] = -1.0f;
  EXPECT_EQ(a.f32()[3], -1.0f);  // shares storage
}

TEST(TensorTest, Bf16RoundTripError) {
  Rng rng(3);
  Tensor a = Tensor::Randn({64, 64}, rng);
  Tensor b = a.ToBF16().ToF32();
  EXPECT_LT(RelativeError(b, a), 0.01f);
  EXPECT_GT(CosineSimilarity(a, b), 0.9999);
}

TEST(TensorTest, RandnIsSeedDeterministic) {
  Rng r1(9);
  Rng r2(9);
  Tensor a = Tensor::Randn({16}, r1);
  Tensor b = Tensor::Randn({16}, r2);
  EXPECT_EQ(MaxAbsDiff(a, b), 0.0f);
}

TEST(MetricsTest, IdenticalTensors) {
  Rng rng(4);
  Tensor a = Tensor::Randn({32}, rng);
  EXPECT_EQ(MaxAbsDiff(a, a), 0.0f);
  EXPECT_EQ(RelativeError(a, a), 0.0f);
  EXPECT_NEAR(CosineSimilarity(a, a), 1.0, 1e-12);
}

}  // namespace
}  // namespace ktx
