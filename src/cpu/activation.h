// Elementwise / normalization primitives shared by the CPU and virtual-GPU
// execution paths. All operate on f32 buffers.

#ifndef KTX_SRC_CPU_ACTIVATION_H_
#define KTX_SRC_CPU_ACTIVATION_H_

#include <cstdint>

namespace ktx {

// SwiGLU gating: out[i] = silu(gate[i]) * up[i], silu(x) = x * sigmoid(x).
// This is the activation used by the DeepSeek / Qwen expert FFNs.
void SiluMul(const float* gate, const float* up, float* out, std::int64_t n);

float Silu(float x);

// In-place numerically-stable softmax over n values.
void Softmax(float* x, std::int64_t n);

// RMSNorm: out = x / sqrt(mean(x^2) + eps) * weight.
void RmsNorm(const float* x, const float* weight, float* out, std::int64_t n,
             float eps = 1e-6f);

// out[i] += x[i] (residual adds).
void AddInPlace(float* out, const float* x, std::int64_t n);
// out[i] += scale * x[i].
void AxpyInPlace(float* out, const float* x, float scale, std::int64_t n);

}  // namespace ktx

#endif  // KTX_SRC_CPU_ACTIVATION_H_
