// Differential tests for FillGaussian's Box-Muller spellings: each must give
// Rng::NextGaussian() * stddev bit for bit and leave the Rng where those
// draws would.

#include "src/tensor/gaussian.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/cpu/cpu_features.h"
#include "src/tensor/tensor.h"

namespace ktx {
namespace {

struct Spelling {
  std::string name;
  BoxMullerFn fn;
};

// The plain loop everywhere, plus the AVX2 spelling where the host runs it.
std::vector<Spelling> HostSpellings() {
  std::vector<Spelling> out = {{"scalar", &BoxMullerScalar}};
  if (NativeAvx2Available()) {
    out.push_back({"avx2", &BoxMullerAvx2});
  }
  return out;
}

TEST(GaussianTest, EverySpellingMatchesNextGaussianBitForBit) {
  const std::int64_t lengths[] = {0, 1, 3, 7, 8, 9, 255, 256, 257, 4097};
  const float stddevs[] = {1.0f, 1.0f / std::sqrt(128.0f), 0.01f};
  for (const Spelling& sp : HostSpellings()) {
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
      for (const std::int64_t n : lengths) {
        for (const float stddev : stddevs) {
          Rng expected_rng(seed * 1000 + static_cast<std::uint64_t>(n));
          Rng rng = expected_rng;
          std::vector<float> expected(static_cast<std::size_t>(n));
          for (float& v : expected) {
            v = expected_rng.NextGaussian() * stddev;
          }
          std::vector<float> got(static_cast<std::size_t>(n), -1.0f);
          FillGaussian(rng, stddev, got.data(), n, sp.fn);
          ASSERT_TRUE(n == 0 ||
                      std::memcmp(got.data(), expected.data(), got.size() * sizeof(float)) == 0)
              << sp.name << " seed " << seed << " n " << n << " stddev " << stddev;
          ASSERT_EQ(rng.NextU64(), expected_rng.NextU64())
              << sp.name << " seed " << seed << " n " << n << ": stream position differs";
        }
      }
    }
  }
}

TEST(GaussianTest, TensorFillRandnMatchesNextGaussian) {
  Rng expected_rng(5);
  Rng rng = expected_rng;
  const Tensor t = Tensor::Randn({33, 17}, rng, 0.25f);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const float want = expected_rng.NextGaussian() * 0.25f;
    ASSERT_EQ(std::memcmp(&t.f32()[i], &want, sizeof(float)), 0) << "element " << i;
  }
  EXPECT_EQ(rng.NextU64(), expected_rng.NextU64());
}

// A spelling that always fell back would be exact and no faster; the proof
// must settle all but a sliver of the draws.
TEST(GaussianTest, Avx2FallsBackOnFewerThanOneDrawInTenThousand) {
  if (!NativeAvx2Available()) {
    GTEST_SKIP() << "host or build without AVX2";
  }
  constexpr std::int64_t kChunk = std::int64_t{1} << 16;
  constexpr std::int64_t kDraws = std::int64_t{1} << 24;
  std::vector<float> buf(static_cast<std::size_t>(kChunk));
  Rng rng(42);
  std::int64_t fallbacks = 0;
  for (std::int64_t done = 0; done < kDraws; done += kChunk) {
    fallbacks += FillGaussian(rng, 1.0f, buf.data(), kChunk, &BoxMullerAvx2);
  }
  EXPECT_LT(fallbacks, kDraws / 10000);
}

// u1 such that sqrt(-2 ln u1) lands on `target`: with u2 = 0 (cos x = 1) or
// u2 = 1/2 (cos x = -1 in double), the draw is +-target to within a few
// double ulps.
double U1For(double target) { return std::exp(-0.5 * target * target); }

TEST(GaussianTest, ValuesStraddlingAFloatMidpointFallBack) {
  if (!NativeAvx2Available()) {
    GTEST_SKIP() << "host or build without AVX2";
  }
  const float floats[] = {0.75f, 1.0f, 1.5f, 2.25f, 3.1f, 5.0f};
  for (const double u2 : {0.0, 0.5}) {
    std::vector<double> mid_u1;
    std::vector<double> clear_u1;
    for (const float f : floats) {
      const double next = std::nextafter(f, 10.0f);
      const double ulp = next - f;
      mid_u1.push_back(U1For(f + ulp / 2));    // on the rounding midpoint
      clear_u1.push_back(U1For(f + ulp / 4));  // a quarter ulp from any
    }
    const std::vector<double> u2s(mid_u1.size(), u2);
    const auto n = static_cast<std::int64_t>(mid_u1.size());
    std::vector<float> out(mid_u1.size());

    EXPECT_EQ(BoxMullerAvx2(mid_u1.data(), u2s.data(), 1.0f, out.data(), n), n)
        << "u2 " << u2 << ": a midpoint draw kept its fast float";
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], BoxMuller(mid_u1[i], u2)) << "element " << i;
    }
    EXPECT_EQ(BoxMullerAvx2(clear_u1.data(), u2s.data(), 1.0f, out.data(), n), 0)
        << "u2 " << u2 << ": a draw far from any midpoint fell back";
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], BoxMuller(clear_u1[i], u2)) << "element " << i;
    }
  }
}

}  // namespace
}  // namespace ktx
