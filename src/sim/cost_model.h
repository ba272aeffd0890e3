// Roofline cost model for CPU/GPU/PCIe operations at paper scale.
//
// Every operation is costed as
//
//   time = max(compute_time, memory_time) + fixed_overhead
//
// with per-kernel-class efficiency parameters calibrated ONLY against numbers
// the paper publishes (Fig. 3 kernel peaks, §2.2/§2.3 bandwidths and NUMA
// measurements, Fig. 4 launch latencies). End-to-end figures are *emergent*
// from these per-op costs plus the scheduling DAG — they are never calibrated
// directly, which is what makes the reproduction meaningful.

#ifndef KTX_SRC_SIM_COST_MODEL_H_
#define KTX_SRC_SIM_COST_MODEL_H_

#include <cstdint>

#include "src/sim/hardware.h"
#include "src/tensor/dtype.h"

namespace ktx {

// CPU kernel implementations whose performance envelopes differ (paper Fig. 3
// and §6.4 breakdown).
enum class CpuKernelClass {
  kKtAmx,          // this work: tile-layout AMX kernel (21.3 TFLOPS peak)
  kKtAvx512,       // this work: AVX-512 kernel on the AMX-compatible layout
  kOneDnnAmx,      // PyTorch + oneDNN AMX path (5.4 TFLOPS, poor layout)
  kGenericAvx512,  // PyTorch AVX-512 path (Fiddler's backend)
  kLlamaCppAvx512, // llama.cpp fused AVX-512 kernels
};

// How expert weights are placed across sockets (paper §3.3, Fig. 8).
enum class NumaMode {
  kSingleSocket,      // use one socket only
  kNaiveInterleaved,  // NUMA-oblivious: pages interleaved, heavy UPI traffic
  kExpertParallel,    // whole experts pinned per socket (cloud-style EP)
  kTensorParallel,    // this work: every expert sharded across sockets
};

// Effective aggregate DRAM bandwidth (GB/s = 1e9 B/s) the MoE kernels see
// under a NUMA mode. `active_experts` matters for EP load balance.
double EffectiveCpuBandwidthGbs(const CpuSpec& cpu, NumaMode mode, int active_experts);

// Fraction of the machine's compute the mode can use (EP imbalance shows up
// here too; TP/naive use both sockets).
double EffectiveCpuComputeFraction(const CpuSpec& cpu, NumaMode mode, int active_experts);

// Time for one grouped expert GEMM: `m` tokens routed to this expert,
// weight matrix [n, k] of `weight_dtype`. `bw_gbs` is the bandwidth share this
// op gets (from EffectiveCpuBandwidthGbs, possibly divided among concurrent
// ops); `compute_fraction` likewise for compute.
double CpuGemmSeconds(CpuKernelClass kc, std::int64_t m, std::int64_t n, std::int64_t k,
                      DType weight_dtype, const CpuSpec& cpu, double bw_gbs,
                      double compute_fraction);

// Fixed per-operator overhead (threading, framework dispatch) in seconds.
double CpuOpOverheadSeconds(CpuKernelClass kc);

// Achieved TFLOPS for the Fig. 3 / Fig. 7 microbenchmarks.
double CpuGemmTflops(CpuKernelClass kc, std::int64_t m, std::int64_t n, std::int64_t k,
                     DType weight_dtype, const CpuSpec& cpu, double bw_gbs,
                     double compute_fraction);

// Generic GPU op under the GPU roofline.
double GpuOpSeconds(double flops, double bytes, const GpuSpec& gpu);

// Host<->device transfer over PCIe.
double PcieSeconds(double bytes, const PcieSpec& pcie);

// Compute-peak multiplier for integer dtypes (AMX/VNNI int8 paths double
// throughput; int4 unpacks to int8 before the MAC).
double DtypeComputeScale(DType dtype);

}  // namespace ktx

#endif  // KTX_SRC_SIM_COST_MODEL_H_
