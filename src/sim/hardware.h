// Hardware descriptions for the performance model.
//
// All constants derive from the paper's §6.1 testbed and its published
// measurements, not from this machine:
//   * dual-socket Intel Xeon Platinum 8452Y, 36 cores/socket,
//     220 GB/s intra-socket DRAM bandwidth, 125 GB/s cross-socket (Intel MLC),
//     AMX theoretical peak 73.7 TFLOPS (§2.2);
//   * measured kernel peaks (Fig. 3): KTransformers AMX 21.3 TFLOPS/socket,
//     PyTorch/oneDNN AMX 5.4 TFLOPS, AVX-512 1.8 TFLOPS;
//   * NVIDIA A100-40GB and RTX 4080-16GB on PCIe 4.0 x16 (32 GB/s);
//   * kernel-launch latencies (Fig. 4): 16 us via PyTorch (Fiddler),
//     5 us via C++ (llama.cpp), and near-zero inside a CUDA graph.

#ifndef KTX_SRC_SIM_HARDWARE_H_
#define KTX_SRC_SIM_HARDWARE_H_

#include <string>

namespace ktx {

struct CpuSpec {
  std::string name;
  int sockets = 2;
  int cores_per_socket = 36;
  // Memory system (GB/s = 1e9 bytes/s).
  double local_bw_gbs = 220.0;   // intra-socket DRAM streams
  double remote_bw_gbs = 125.0;  // cross-socket (UPI) streams
  // Measured kernel compute peaks, per socket (TFLOPS = 1e12 flop/s).
  double amx_theoretical_tflops = 73.7;
  double kt_amx_tflops = 21.3;    // this work, Fig. 3
  double onednn_amx_tflops = 5.4; // PyTorch + oneDNN, Fig. 3
  double avx512_tflops = 1.8;     // Fig. 3
};

struct GpuSpec {
  std::string name;
  double bf16_tflops = 312.0;
  double mem_bw_gbs = 1555.0;
  double vram_gb = 40.0;
};

struct PcieSpec {
  double bw_gbs = 32.0;      // PCIe 4.0 x16 theoretical peak
  double efficiency = 0.8;   // achievable fraction for medium transfers
  double latency_us = 8.0;   // per-transfer fixed cost
};

// The paper's testbed presets.
CpuSpec Xeon8452Y();
GpuSpec A100_40GB();
GpuSpec RTX4080_16GB();

}  // namespace ktx

#endif  // KTX_SRC_SIM_HARDWARE_H_
