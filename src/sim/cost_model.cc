#include "src/sim/cost_model.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace ktx {

namespace {

// §2.3: decoding one DS-3 MoE layer takes 6.9 ms on one socket and 5.8 ms on
// two sockets when NUMA-oblivious — i.e. adding a socket naively only buys a
// 1.19x bandwidth gain because cross-socket traffic rides the 125 GB/s UPI.
constexpr double kNaiveDualSocketSpeedup = 6.9 / 5.8;

// §3.3: tensor parallelism keeps almost all traffic local; the residual cost
// is the reduce-scatter combine. 0.97 reproduces the reported up-to-1.63x
// gain over the NUMA-oblivious baseline.
constexpr double kTensorParallelEfficiency = 0.97;

// Fraction of DRAM bandwidth each kernel class actually sustains, dominated
// by memory-layout quality (§3.2: oneDNN's layout reaches only a fraction of
// peak; the tile-aware layout streams whole cache lines).
double LayoutBandwidthEfficiency(CpuKernelClass kc) {
  switch (kc) {
    case CpuKernelClass::kKtAmx:
      return 0.93;
    case CpuKernelClass::kKtAvx512:
      return 1.00;  // row-major vector streams prefetch perfectly at m=1
    case CpuKernelClass::kOneDnnAmx:
      return 0.45;
    case CpuKernelClass::kGenericAvx512:
      return 0.55;
    case CpuKernelClass::kLlamaCppAvx512:
      return 0.92;
  }
  return 1.0;
}

// Saturated compute peak per socket in TFLOPS (paper Fig. 3).
double ComputePeakTflops(CpuKernelClass kc, const CpuSpec& cpu) {
  switch (kc) {
    case CpuKernelClass::kKtAmx:
      return cpu.kt_amx_tflops;
    case CpuKernelClass::kKtAvx512:
      return 2.0;  // slightly above the oneDNN AVX path: fused + no dispatch
    case CpuKernelClass::kOneDnnAmx:
      return cpu.onednn_amx_tflops;
    case CpuKernelClass::kGenericAvx512:
      return cpu.avx512_tflops;
    case CpuKernelClass::kLlamaCppAvx512:
      return 1.9;
  }
  return 1.0;
}

bool IsAmx(CpuKernelClass kc) {
  return kc == CpuKernelClass::kKtAmx || kc == CpuKernelClass::kOneDnnAmx;
}

// Small-batch compute ramp for vector kernels: with m rows in flight the FMA
// pipelines are only partially occupied. AMX has no ramp (whole tiles) but
// pads m to the 16-row tile height instead.
double VectorRampFactor(CpuKernelClass kc, std::int64_t m) {
  const double ramp = kc == CpuKernelClass::kKtAvx512 ? 2.0 : 4.0;
  return static_cast<double>(m) / (static_cast<double>(m) + ramp);
}

// Expected max-load when `experts` balls land evenly-at-random into `bins`
// sockets. Used for the expert-parallel imbalance (Fig. 8a: "some sockets
// idle and others saturated").
double ExpectedMaxLoad(int experts, int bins) {
  if (bins <= 1 || experts <= 0) {
    return experts;
  }
  KTX_CHECK_EQ(bins, 2) << "EP imbalance model implemented for 2 sockets";
  // X ~ Binomial(n, 1/2); E[max(X, n-X)].
  const int n = experts;
  double expectation = 0.0;
  double log_half_n = -n * std::log(2.0);
  for (int x = 0; x <= n; ++x) {
    double log_c = std::lgamma(n + 1.0) - std::lgamma(x + 1.0) - std::lgamma(n - x + 1.0);
    const double p = std::exp(log_c + log_half_n);
    expectation += p * std::max(x, n - x);
  }
  return expectation;
}

}  // namespace

double DtypeComputeScale(DType dtype) {
  switch (dtype) {
    case DType::kI8:
    case DType::kI4:
      return 2.0;  // TDPBSSD / VNNI do 2x the MACs of the bf16 paths
    default:
      return 1.0;
  }
}

double EffectiveCpuBandwidthGbs(const CpuSpec& cpu, NumaMode mode, int active_experts) {
  switch (mode) {
    case NumaMode::kSingleSocket:
      return cpu.local_bw_gbs;
    case NumaMode::kNaiveInterleaved:
      return cpu.local_bw_gbs * kNaiveDualSocketSpeedup;
    case NumaMode::kExpertParallel: {
      // The slowest socket gates the layer; it serves ExpectedMaxLoad experts
      // from local memory while the other socket idles early.
      const double max_load = ExpectedMaxLoad(active_experts, cpu.sockets);
      return cpu.local_bw_gbs * static_cast<double>(active_experts) / max_load;
    }
    case NumaMode::kTensorParallel:
      return cpu.local_bw_gbs * cpu.sockets * kTensorParallelEfficiency;
  }
  return cpu.local_bw_gbs;
}

double EffectiveCpuComputeFraction(const CpuSpec& cpu, NumaMode mode, int active_experts) {
  switch (mode) {
    case NumaMode::kSingleSocket:
      return 1.0 / cpu.sockets;
    case NumaMode::kNaiveInterleaved:
      return 1.0;  // all cores compute; memory is the limiter
    case NumaMode::kExpertParallel: {
      const double max_load = ExpectedMaxLoad(active_experts, cpu.sockets);
      return static_cast<double>(active_experts) / (cpu.sockets * max_load);
    }
    case NumaMode::kTensorParallel:
      return 1.0;
  }
  return 1.0;
}

double CpuOpOverheadSeconds(CpuKernelClass kc) {
  switch (kc) {
    case CpuKernelClass::kKtAmx:
      return 8e-6;  // tile config + thread wakeup, amortized by fusion
    case CpuKernelClass::kKtAvx512:
      return 4e-6;
    case CpuKernelClass::kOneDnnAmx:
      return 40e-6;  // oneDNN primitive dispatch
    case CpuKernelClass::kGenericAvx512:
      return 60e-6;  // PyTorch op dispatch per projection
    case CpuKernelClass::kLlamaCppAvx512:
      return 12e-6;  // graph-walker per fused op
  }
  return 0.0;
}

double CpuGemmSeconds(CpuKernelClass kc, std::int64_t m, std::int64_t n, std::int64_t k,
                      DType weight_dtype, const CpuSpec& cpu, double bw_gbs,
                      double compute_fraction) {
  if (m <= 0 || n <= 0 || k <= 0) {
    return 0.0;
  }
  const double weight_bytes =
      static_cast<double>(DTypeBytes(weight_dtype, static_cast<std::size_t>(n * k)));
  const double mem_time = weight_bytes / (bw_gbs * 1e9 * LayoutBandwidthEfficiency(kc));

  // AMX processes full 16-row tiles: a 1-token decode still burns a 16-row
  // tile pass (§3.2, "AMX incurs excessive overhead by processing full
  // tiles"). Vector kernels ramp up with m instead.
  double m_eff = static_cast<double>(m);
  double peak = ComputePeakTflops(kc, cpu) * 1e12 * DtypeComputeScale(weight_dtype);
  if (IsAmx(kc)) {
    m_eff = static_cast<double>(((m + 15) / 16) * 16);
  } else {
    peak *= VectorRampFactor(kc, m);
  }
  const double flops = 2.0 * m_eff * static_cast<double>(n) * static_cast<double>(k);
  const double compute_time = flops / (peak * cpu.sockets * compute_fraction);

  return std::max(mem_time, compute_time);
}

double CpuGemmTflops(CpuKernelClass kc, std::int64_t m, std::int64_t n, std::int64_t k,
                     DType weight_dtype, const CpuSpec& cpu, double bw_gbs,
                     double compute_fraction) {
  const double seconds = CpuGemmSeconds(kc, m, n, k, weight_dtype, cpu, bw_gbs,
                                        compute_fraction) +
                         CpuOpOverheadSeconds(kc);
  // Useful flops exclude AMX tile padding.
  const double useful_flops =
      2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
  return useful_flops / seconds / 1e12;
}

double GpuOpSeconds(double flops, double bytes, const GpuSpec& gpu) {
  // 60% of peak compute and 80% of peak bandwidth are typical for tuned
  // attention/GEMM kernels at batch 1..few-thousand tokens.
  constexpr double kComputeEff = 0.6;
  constexpr double kBandwidthEff = 0.8;
  const double compute_time = flops / (gpu.bf16_tflops * 1e12 * kComputeEff);
  const double mem_time = bytes / (gpu.mem_bw_gbs * 1e9 * kBandwidthEff);
  return std::max(compute_time, mem_time);
}

double PcieSeconds(double bytes, const PcieSpec& pcie) {
  return pcie.latency_us * 1e-6 + bytes / (pcie.bw_gbs * 1e9 * pcie.efficiency);
}

}  // namespace ktx
