// Expert activation profiling and popularity-based placement.
//
// The paper's placement puts shared experts on the GPU because they are the
// most frequently used; for models *without* shared experts it notes (§1)
// that "popular experts can still be identified via offline profiling, as
// done in Fiddler". This module implements that pipeline:
//
//   * ExpertProfiler accumulates per-(layer, expert) activation counts from
//     routing decisions — online during engine runs, or offline over a
//     profiling corpus;
//   * HotExpertPlan ranks experts by popularity and selects as many as a
//     VRAM budget allows, reporting the activation coverage the GPU-resident
//     set would absorb (the fraction of routed-expert work taken off the
//     CPU's memory bus).
//
// bench_ablations (ablation C) quantifies the decode-throughput effect.

#ifndef KTX_SRC_CORE_PROFILING_H_
#define KTX_SRC_CORE_PROFILING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/cpu/moe_cpu.h"
#include "src/model/config.h"

namespace ktx {

class ExpertProfiler {
 public:
  ExpertProfiler(int num_moe_layers, int num_experts);

  // Records the experts selected for a token batch at one MoE layer.
  // Thread-safe (relaxed atomics); slots select a routing-slot window.
  void Record(int moe_layer, const MoeRouting& routing, int slot_begin, int slot_end);

  std::int64_t count(int moe_layer, int expert) const;
  std::int64_t total() const { return total_.load(std::memory_order_relaxed); }
  int num_moe_layers() const { return num_moe_layers_; }
  int num_experts() const { return num_experts_; }

  // All (layer, expert) pairs sorted by descending activation count.
  std::vector<std::pair<int, int>> RankedExperts() const;

  // Fraction of all recorded activations covered by the `n` hottest experts.
  double CoverageFraction(int n) const;

 private:
  int num_moe_layers_;
  int num_experts_;
  std::vector<std::atomic<std::int64_t>> counts_;
  std::atomic<std::int64_t> total_{0};
};

struct HotExpertPlan {
  // GPU-resident experts as (moe_layer, expert) pairs, hottest first.
  std::vector<std::pair<int, int>> gpu_experts;
  double coverage = 0.0;     // activation fraction absorbed by the GPU set
  double vram_bytes = 0.0;   // bytes those experts occupy at `gpu_dtype`

  // Greedily packs the hottest experts into `vram_budget_bytes`.
  static HotExpertPlan Plan(const ExpertProfiler& profiler, const MoeModelConfig& config,
                            double vram_budget_bytes, DType gpu_dtype);
};

}  // namespace ktx

#endif  // KTX_SRC_CORE_PROFILING_H_
