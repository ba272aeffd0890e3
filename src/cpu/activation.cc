#include "src/cpu/activation.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace ktx {

float Silu(float x) { return x / (1.0f + std::exp(-x)); }

float Gelu(float x) {
  // tanh approximation (matches common framework defaults).
  constexpr float kC0 = 0.7978845608028654f;  // sqrt(2/pi)
  constexpr float kC1 = 0.044715f;
  return 0.5f * x * (1.0f + std::tanh(kC0 * (x + kC1 * x * x * x)));
}

void SiluMul(const float* gate, const float* up, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = Silu(gate[i]) * up[i];
  }
}

void Softmax(float* x, std::int64_t n) {
  if (n <= 0) {
    return;
  }
  float max_val = x[0];
  for (std::int64_t i = 1; i < n; ++i) {
    max_val = std::max(max_val, x[i]);
  }
  float sum = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    x[i] = std::exp(x[i] - max_val);
    sum += x[i];
  }
  const float inv = 1.0f / sum;
  for (std::int64_t i = 0; i < n; ++i) {
    x[i] *= inv;
  }
}

void RmsNorm(const float* x, const float* weight, float* out, std::int64_t n, float eps) {
  double ss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    ss += static_cast<double>(x[i]) * x[i];
  }
  const float inv = 1.0f / std::sqrt(static_cast<float>(ss / static_cast<double>(n)) + eps);
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = x[i] * inv * weight[i];
  }
}

void AddInPlace(float* out, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] += x[i];
  }
}

void AxpyInPlace(float* out, const float* x, float scale, std::int64_t n) {
  // Eight elements per step (the MoE reduce's hot loop). Each element still
  // takes one mul and one separate add, so the bits match the scalar loop.
  using Lanes = float __attribute__((vector_size(32)));
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Lanes acc;
    Lanes v;
    std::memcpy(&acc, out + i, sizeof(acc));
    std::memcpy(&v, x + i, sizeof(v));
    acc += scale * v;
    std::memcpy(out + i, &acc, sizeof(acc));
  }
  for (; i < n; ++i) {
    out[i] += scale * x[i];
  }
}

}  // namespace ktx
