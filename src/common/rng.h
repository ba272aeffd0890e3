// Deterministic, splittable pseudo-random generation.
//
// All synthetic weights, inputs and workloads in this repository are seeded so
// every test, example and benchmark is reproducible bit-for-bit.

#ifndef KTX_SRC_COMMON_RNG_H_
#define KTX_SRC_COMMON_RNG_H_

#include <cmath>
#include <cstdint>

namespace ktx {

// Box-Muller with libm: the standard normal for the uniform pair (u1, u2),
// with u1 clamped away from 0. Rng::NextGaussian returns it, and the SIMD
// spellings of FillGaussian (src/tensor/gaussian.h) fall back to it, so the
// expression lives only here.
inline float BoxMuller(double u1, double u2) {
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  return static_cast<float>(std::sqrt(-2.0 * std::log(u1)) *
                            std::cos(2.0 * 3.14159265358979323846 * u2));
}

// SplitMix64: tiny, high-quality 64-bit generator, ideal for seeding.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// xoshiro256**: the workhorse generator for bulk synthesis.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) {
      s = sm.Next();
    }
  }

  std::uint64_t NextU64() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }
  float NextFloat() { return static_cast<float>(NextU64() >> 40) * 0x1.0p-24f; }

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  // Uniform integer in [0, bound).
  std::uint64_t NextBounded(std::uint64_t bound) { return NextU64() % bound; }

  // Standard normal via Box-Muller (fresh pair each call; simple and stateless).
  float NextGaussian() {
    const double u1 = NextDouble();
    const double u2 = NextDouble();
    return BoxMuller(u1, u2);
  }

  // Derives an independent stream (e.g. per expert, per layer).
  Rng Split(std::uint64_t stream) const {
    SplitMix64 sm(state_[0] ^ (stream * 0x9e3779b97f4a7c15ULL) ^ state_[3]);
    return Rng(sm.Next());
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  std::uint64_t state_[4];
};

}  // namespace ktx

#endif  // KTX_SRC_COMMON_RNG_H_
