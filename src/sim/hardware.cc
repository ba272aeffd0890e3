#include "src/sim/hardware.h"

namespace ktx {

CpuSpec Xeon8452Y() {
  CpuSpec spec;
  spec.name = "2x Intel Xeon Platinum 8452Y";
  return spec;  // defaults encode the paper values
}

GpuSpec A100_40GB() {
  GpuSpec spec;
  spec.name = "NVIDIA A100 40GB";
  spec.bf16_tflops = 312.0;
  spec.mem_bw_gbs = 1555.0;
  spec.vram_gb = 40.0;
  return spec;
}

GpuSpec RTX4080_16GB() {
  GpuSpec spec;
  spec.name = "NVIDIA RTX 4080 16GB";
  spec.bf16_tflops = 48.7;
  spec.mem_bw_gbs = 716.8;
  spec.vram_gb = 16.0;
  return spec;
}

}  // namespace ktx
