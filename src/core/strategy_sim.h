// Strategy-parameterized execution simulation (paper §6).
//
// The functional engine proves the scheduling logic; this module times it at
// paper scale. Each inference strategy (Fiddler, llama.cpp, KTransformers with
// any subset of its optimizations) is described by a StrategySpec; the
// simulator emits the task DAG that strategy would execute for a prefill pass
// or a run of decode steps — GPU kernels, per-launch front-end gaps, PCIe
// transfers, CPU MoE batches, deferral edges — and schedules it on the DES.
// Per-op costs come exclusively from the calibrated roofline (sim/cost_model);
// end-to-end throughputs, utilizations and overhead shares are emergent.
//
// This is what regenerates Figs. 4, 10, 11, 12, 14 and the §2.3/§3.2/§3.3
// measurements.

#ifndef KTX_SRC_CORE_STRATEGY_SIM_H_
#define KTX_SRC_CORE_STRATEGY_SIM_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/model/config.h"
#include "src/sim/cost_model.h"
#include "src/sim/des.h"
#include "src/sim/hardware.h"
#include "src/tensor/dtype.h"

namespace ktx {

struct StrategySpec {
  std::string name;
  // CPU kernel classes per phase (§3.2 / Fig. 3 envelopes).
  CpuKernelClass prefill_kernel = CpuKernelClass::kKtAmx;
  CpuKernelClass decode_kernel = CpuKernelClass::kKtAvx512;
  // Dynamic task scheduling for imbalanced prefill batches (§3.2).
  bool dynamic_sched = true;
  // NUMA placement of routed experts (§3.3).
  NumaMode numa = NumaMode::kTensorParallel;
  // Whole-decode-step CUDA graph (§3.3).
  bool cuda_graph = true;
  double launch_latency_us = 5.0;   // per micro-launch (Fig. 4)
  double graph_replay_us = 3.0;
  // Framework decomposition: micro kernel launches per logical GPU op.
  int gpu_micro_per_op = 1;
  // Expert Deferral depth (decode only, §4).
  int n_deferred = 0;
  // Gate/Up fusion: 2 CPU operator dispatches per MoE layer instead of
  // 3 * top_k individual projections (§3.2 "Fused MoE Operator").
  bool fused_moe = true;
  // Asynchronous submit/sync hidden in the stream (KT) vs a blocking
  // host round-trip per layer (baselines) — controls CPU/GPU overlap.
  bool async_overlap = true;
  // KV cache offloaded to host memory (§5): decode attention must stream the
  // per-layer cache over PCIe each step. Frees VRAM, costs decode latency.
  bool kv_cache_offload = false;
  // Layer-wise pipeline across this many GPUs (§5): splits the GPU-resident
  // state; decode latency gains only the inter-stage transfer cost, since
  // autoregressive steps serialize through the whole pipeline.
  int pipeline_stages = 1;
};

// The three evaluated systems.
StrategySpec FiddlerStrategy();
StrategySpec LlamaCppStrategy();
StrategySpec KTransformersStrategy(int n_deferred = 0);

struct SimWorkload {
  MoeModelConfig model;
  DType cpu_dtype = DType::kBF16;  // routed expert precision on CPU
  DType gpu_dtype = DType::kBF16;  // GPU-side weight precision
  CpuSpec cpu = Xeon8452Y();
  GpuSpec gpu = A100_40GB();
  PcieSpec pcie;
  std::int64_t prompt_len = 32;
  int decode_steps = 8;      // simulated steps (steady state)
  int batch = 1;             // concurrent sequences (paper: 1; §1 extreme)
  // Prefill chunking (0 = whole prompt in one pass). With the asynchronous
  // scheduler, chunk c's CPU expert batches overlap chunk c+1's GPU
  // attention — cross-chunk pipelining on top of the paper's per-layer
  // overlap.
  std::int64_t prefill_chunk = 0;
  double expert_skew = 0.2;  // Zipf exponent of prefill expert popularity
  std::uint64_t seed = 1;
};

struct SimReport {
  double seconds = 0.0;            // makespan
  double tokens_per_second = 0.0;
  double cpu_utilization = 0.0;
  double gpu_utilization = 0.0;
  double launch_overhead_share = 0.0;  // launch busy / total GPU busy
  std::int64_t micro_launches_per_token = 0;
  double layer_time_ms = 0.0;  // decode: steady-state per-MoE-layer span
  std::shared_ptr<EventSim> sim;  // scheduled DAG (timeline rendering)
  int cpu_resource = -1;
  int gpu_resource = -1;
};

SimReport SimulateDecode(const StrategySpec& strategy, const SimWorkload& workload);
SimReport SimulatePrefill(const StrategySpec& strategy, const SimWorkload& workload);

// §4.2 heuristic: the minimum deferral depth that saturates the CPU during
// decode, keeping at least 2 immediate experts. Returns D in
// [0, model.top_k - 2].
int ChooseDeferredExperts(const SimWorkload& workload);

// Prefill expert-activation imbalance factor: makespan under the given
// schedule divided by the perfectly balanced makespan, for tokens*top_k
// assignments over the model's experts with Zipf(`skew`) popularity.
// (§3.2: dynamic scheduling recovers up to 1.83x of this.)
double PrefillImbalanceFactor(const MoeModelConfig& model, std::int64_t tokens, double skew,
                              int threads, bool dynamic_sched, std::uint64_t seed);

// The makespan (in cost units) `num_threads` workers achieve over tasks of the
// given costs: a contiguous block partition by task index when `dynamic` is
// false, list scheduling (each worker takes the next task when it frees up)
// when true.
double SimulateMakespan(const std::vector<double>& costs, std::size_t num_threads, bool dynamic);

}  // namespace ktx

#endif  // KTX_SRC_CORE_STRATEGY_SIM_H_
