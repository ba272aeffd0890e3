#include "src/core/strategy_sim.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/model/attention.h"

namespace ktx {

StrategySpec FiddlerStrategy() {
  StrategySpec s;
  s.name = "Fiddler";
  // PyTorch backend: oneDNN AMX primitives for batched prefill GEMMs, generic
  // AVX-512 for decode GEMVs; no fusion, no graphs, blocking per-layer sync.
  s.prefill_kernel = CpuKernelClass::kOneDnnAmx;
  s.decode_kernel = CpuKernelClass::kGenericAvx512;
  s.dynamic_sched = false;
  s.numa = NumaMode::kNaiveInterleaved;
  s.cuda_graph = false;
  s.launch_latency_us = 16.0;  // Fig. 4: Python-driven launches
  s.gpu_micro_per_op = 29;     // ~7000 launches / token over DS-3's layers
  s.n_deferred = 0;
  s.fused_moe = false;
  s.async_overlap = false;
  return s;
}

StrategySpec LlamaCppStrategy() {
  StrategySpec s;
  s.name = "llama.cpp";
  // C++ graph walker: aggressive operator fusion, 5 us launches, CUDA graphs
  // disabled (§2.3), expert-level offload patch, blocking per-layer sync.
  s.prefill_kernel = CpuKernelClass::kLlamaCppAvx512;
  s.decode_kernel = CpuKernelClass::kLlamaCppAvx512;
  s.dynamic_sched = false;
  s.numa = NumaMode::kNaiveInterleaved;
  s.cuda_graph = false;
  s.launch_latency_us = 5.0;  // Fig. 4
  s.gpu_micro_per_op = 12;    // ~3000 launches / token after fusion
  s.n_deferred = 0;
  s.fused_moe = true;
  s.async_overlap = false;
  return s;
}

StrategySpec KTransformersStrategy(int n_deferred) {
  StrategySpec s;
  s.name = n_deferred > 0 ? "KTransformers+defer" : "KTransformers";
  s.prefill_kernel = CpuKernelClass::kKtAmx;       // ARI dispatch: prefill
  s.decode_kernel = CpuKernelClass::kKtAvx512;     // ARI dispatch: decode
  s.dynamic_sched = true;
  s.numa = NumaMode::kTensorParallel;
  s.cuda_graph = true;
  s.launch_latency_us = 5.0;
  // Without graph capture each fused logical op still decomposes into ~a
  // dozen real kernels (attention epilogues, norms, casts); the captured
  // graph replaces all of them with one replay (§3.3, up to 1.23x).
  s.gpu_micro_per_op = 12;
  s.n_deferred = n_deferred;
  s.fused_moe = true;
  s.async_overlap = true;
  return s;
}

namespace {

double BytesPerWeight(DType dtype) { return DTypeBits(dtype) / 8.0; }

// --- GPU op costs -------------------------------------------------------------

double GatingSeconds(const MoeModelConfig& m, std::int64_t tokens, const GpuSpec& gpu,
                     double wb) {
  const double flops = 2.0 * tokens * m.hidden * m.num_experts;
  const double bytes = static_cast<double>(m.hidden) * m.num_experts * wb;
  return GpuOpSeconds(flops, bytes, gpu);
}

double FfnSeconds(const MoeModelConfig& m, std::int64_t tokens, std::int64_t inter,
                  const GpuSpec& gpu, double wb) {
  const double flops = 6.0 * tokens * m.hidden * inter;
  const double bytes = 3.0 * static_cast<double>(m.hidden) * inter * wb;
  return GpuOpSeconds(flops, bytes, gpu);
}

// `tokens` new tokens per sequence across `batch` independent sequences:
// projection weights are read once (batching amortizes them); each sequence
// streams its own KV window and pays its own flops.
double AttnSeconds(const MoeModelConfig& m, std::int64_t tokens, std::int64_t seq,
                   const GpuSpec& gpu, double wb, int batch = 1) {
  const AttentionCost single = EstimateAttentionCost(m, tokens, seq, wb);
  AttentionCost c = single;
  if (batch > 1) {
    const AttentionCost no_ctx = EstimateAttentionCost(m, tokens, 0, wb);
    const double kv_bytes = single.bytes - no_ctx.bytes;  // per-sequence cache
    c.flops = batch * single.flops;
    c.bytes = no_ctx.bytes + batch * kv_bytes;
  }
  double seconds = GpuOpSeconds(c.flops, c.bytes, gpu);
  if (tokens == 1 && batch == 1) {
    // Batch-1 decode attention sustains a lower fraction of HBM bandwidth
    // (short rows, kernel tail latency); calibrated against the Fig. 10
    // utilization split (GPU 28% / CPU 74% without deferral).
    seconds /= 0.68;
  }
  return seconds;
}

double LmHeadSeconds(const MoeModelConfig& m, std::int64_t tokens, const GpuSpec& gpu,
                     double wb) {
  return GpuOpSeconds(2.0 * tokens * m.hidden * m.vocab,
                      static_cast<double>(m.hidden) * m.vocab * wb, gpu);
}

// CPU time for `experts` routed experts over `tokens_per_expert` tokens each
// (decode: 1). Fused MoE pays 2 operator dispatches; unfused pays 3 per
// expert (Gate/Up/Down as separate framework ops).
double CpuMoeSeconds(const StrategySpec& s, const SimWorkload& w, CpuKernelClass kc,
                     int experts, std::int64_t tokens_per_expert) {
  const MoeModelConfig& m = w.model;
  const double bw = EffectiveCpuBandwidthGbs(w.cpu, s.numa, m.top_k);
  const double cf = EffectiveCpuComputeFraction(w.cpu, s.numa, m.top_k);
  double seconds = 0.0;
  for (int e = 0; e < experts; ++e) {
    // Gate + Up: [inter, hidden] each; Down: [hidden, inter].
    seconds += 2.0 * CpuGemmSeconds(kc, tokens_per_expert, m.moe_inter, m.hidden, w.cpu_dtype,
                                    w.cpu, bw, cf);
    seconds += CpuGemmSeconds(kc, tokens_per_expert, m.hidden, m.moe_inter, w.cpu_dtype,
                              w.cpu, bw, cf);
  }
  seconds += (s.fused_moe ? 2.0 : 3.0 * experts) * CpuOpOverheadSeconds(kc);
  return seconds;
}

double ActivationTransferSeconds(const SimWorkload& w, std::int64_t tokens) {
  return PcieSeconds(static_cast<double>(tokens) * w.model.hidden * 4.0, w.pcie);
}

// Bytes of KV cache one layer holds per position (bf16 entries).
double KvBytesPerPosition(const MoeModelConfig& m) {
  if (m.attention == AttentionKind::kMla) {
    return static_cast<double>(m.kv_lora_rank + m.rope_dim) * 2.0;
  }
  return 2.0 * static_cast<double>(m.num_kv_heads) * m.head_dim * 2.0;
}

struct LaunchCounter {
  std::int64_t micro = 0;
};

// Adds the per-op launch gap on the GPU front-end (non-graph strategies).
void AddLaunchGap(EventSim* sim, int gpu, const StrategySpec& s, LaunchCounter* counter) {
  if (s.cuda_graph) {
    return;  // replay overhead charged once per step instead
  }
  sim->AddTask(gpu, "launch", s.gpu_micro_per_op * s.launch_latency_us * 1e-6, {},
               SimCategory::kLaunch);
  counter->micro += s.gpu_micro_per_op;
}

}  // namespace

double PrefillImbalanceFactor(const MoeModelConfig& model, std::int64_t tokens, double skew,
                              int threads, bool dynamic_sched, std::uint64_t seed) {
  // Zipf expert popularity (shuffled ranks), multinomial token assignment.
  Rng rng(seed);
  const int experts = model.num_experts;
  std::vector<double> popularity(static_cast<std::size_t>(experts));
  for (int e = 0; e < experts; ++e) {
    popularity[static_cast<std::size_t>(e)] = 1.0 / std::pow(e + 1.0, skew);
  }
  for (int e = experts - 1; e > 0; --e) {
    std::swap(popularity[static_cast<std::size_t>(e)],
              popularity[rng.NextBounded(static_cast<std::uint64_t>(e + 1))]);
  }
  double total_pop = 0.0;
  for (double p : popularity) {
    total_pop += p;
  }
  std::vector<std::int64_t> count(static_cast<std::size_t>(experts), 0);
  const std::int64_t assignments = tokens * model.top_k;
  // Expected counts with Poisson-ish jitter (cheap multinomial approximation).
  for (int e = 0; e < experts; ++e) {
    const double mean = assignments * popularity[static_cast<std::size_t>(e)] / total_pop;
    const double jitter = 1.0 + 0.1 * rng.NextGaussian();
    count[static_cast<std::size_t>(e)] =
        std::max<std::int64_t>(0, static_cast<std::int64_t>(std::llround(mean * jitter)));
  }
  // Per-expert cost ~ AMX-padded token count; dynamic scheduling splits each
  // expert into band subtasks (Fig. 6 step 1).
  std::vector<double> costs;
  double total_cost = 0.0;
  constexpr int kBandsPerExpert = 32;
  for (std::int64_t c : count) {
    if (c == 0) {
      continue;
    }
    const double cost = static_cast<double>(((c + 15) / 16) * 16);
    total_cost += cost;
    if (dynamic_sched) {
      for (int b = 0; b < kBandsPerExpert; ++b) {
        costs.push_back(cost / kBandsPerExpert);
      }
    } else {
      costs.push_back(cost);
    }
  }
  if (costs.empty()) {
    return 1.0;
  }
  const double makespan =
      SimulateMakespan(costs, static_cast<std::size_t>(threads), dynamic_sched);
  const double ideal = total_cost / threads;
  return std::max(1.0, makespan / ideal);
}

double SimulateMakespan(const std::vector<double>& costs, std::size_t num_threads, bool dynamic) {
  if (costs.empty() || num_threads == 0) {
    return 0.0;
  }
  if (!dynamic) {
    // Contiguous block partition: each worker runs one slab of
    // ceil(n / threads) tasks.
    const std::size_t n = costs.size();
    const std::size_t blocks = std::min(num_threads, n);
    const std::size_t per = (n + blocks - 1) / blocks;
    double makespan = 0.0;
    for (std::size_t b = 0; b < blocks; ++b) {
      double sum = 0.0;
      const std::size_t lo = b * per;
      const std::size_t hi = std::min(n, lo + per);
      for (std::size_t i = lo; i < hi; ++i) {
        sum += costs[i];
      }
      makespan = std::max(makespan, sum);
    }
    return makespan;
  }
  // Dynamic: list scheduling — each worker grabs the next task when it frees
  // up. Simulated with a min-heap of worker completion times.
  std::priority_queue<double, std::vector<double>, std::greater<>> workers;
  for (std::size_t t = 0; t < num_threads; ++t) {
    workers.push(0.0);
  }
  for (double c : costs) {
    const double start = workers.top();
    workers.pop();
    workers.push(start + c);
  }
  double makespan = 0.0;
  while (!workers.empty()) {
    makespan = std::max(makespan, workers.top());
    workers.pop();
  }
  return makespan;
}

SimReport SimulateDecode(const StrategySpec& s, const SimWorkload& w) {
  const MoeModelConfig& m = w.model;
  const double wb = BytesPerWeight(w.gpu_dtype);
  const int batch = std::max(1, w.batch);
  // With B concurrent sequences each routing top-k, the expected distinct
  // expert count per layer and the resulting tokens-per-expert drive both the
  // CPU traffic and the ARI kernel choice (batching re-creates prefill-like
  // intensity, §1's cloud extreme).
  const double miss = std::pow(1.0 - static_cast<double>(m.top_k) / m.num_experts,
                               static_cast<double>(batch));
  const int active_per_layer =
      std::max(1, static_cast<int>(std::lround(m.num_experts * (1.0 - miss))));
  const std::int64_t tokens_per_expert = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(batch) * m.top_k / active_per_layer);
  // The ARI dispatch switches to the AMX kernel once batching raises the
  // tokens-per-expert above the Fig. 7 crossover.
  const CpuKernelClass decode_kc =
      (s.decode_kernel == CpuKernelClass::kKtAvx512 && tokens_per_expert > 4)
          ? s.prefill_kernel
          : s.decode_kernel;
  auto sim = std::make_shared<EventSim>();
  const int stages = std::max(1, s.pipeline_stages);
  std::vector<int> gpus;
  for (int st = 0; st < stages; ++st) {
    gpus.push_back(sim->AddResource(stages == 1 ? "gpu" : "gpu" + std::to_string(st)));
  }
  const int gpu = gpus[0];
  const int cpu = sim->AddResource("cpu");
  const int pcie = sim->AddResource("pcie");
  const int layers_per_stage = (m.num_layers + stages - 1) / stages;
  LaunchCounter launches;

  const int n_def = std::min(s.n_deferred, m.top_k - 2);
  const int imm = m.top_k - n_def;
  const int last_layer = m.num_layers - 1;

  std::vector<double> step_starts;
  std::vector<double> mid_step_merge_finishes;  // filled after Run()
  std::vector<SimTaskId> mid_step_merges;

  SimTaskId prev_def = -1;
  SimTaskId prev_lm_head = -1;
  for (int step = 0; step < w.decode_steps; ++step) {
    const std::int64_t seq = w.prompt_len + step;
    if (s.cuda_graph) {
      sim->AddTask(gpu, "graph_replay", s.graph_replay_us * 1e-6,
                   prev_lm_head >= 0 ? std::vector<SimTaskId>{prev_lm_head}
                                     : std::vector<SimTaskId>{},
                   SimCategory::kLaunch);
    }
    int prev_stage = 0;
    SimTaskId stage_handoff = -1;
    for (int l = 0; l < m.num_layers; ++l) {
      const bool moe_layer = m.is_moe_layer(l);
      const int stage = l / layers_per_stage;
      const int gpu_l = gpus[static_cast<std::size_t>(stage)];
      if (stage != prev_stage) {
        // Activation hand-off between pipeline stages (NVLink/PCIe hop).
        stage_handoff = sim->AddTask(pcie, "stage_handoff",
                                     ActivationTransferSeconds(w, batch), {},
                                     SimCategory::kTransfer);
        prev_stage = stage;
      }
      AddLaunchGap(sim.get(), gpu_l, s, &launches);
      std::vector<SimTaskId> attn_deps;
      if (prev_lm_head >= 0 && l == 0) {
        attn_deps.push_back(prev_lm_head);
      }
      if (stage_handoff >= 0) {
        attn_deps.push_back(stage_handoff);
      }
      if (s.kv_cache_offload) {
        // The layer's whole cache streams from host memory before attention
        // can run (§5 KV-cache offload).
        attn_deps.push_back(sim->AddTask(
            pcie, "kv_fetch",
            PcieSeconds(KvBytesPerPosition(m) * static_cast<double>(seq), w.pcie), {},
            SimCategory::kTransfer));
      }
      const SimTaskId attn =
          sim->AddTask(gpu_l, "attn", AttnSeconds(m, 1, seq, w.gpu, wb, batch), attn_deps);
      if (!moe_layer) {
        AddLaunchGap(sim.get(), gpu_l, s, &launches);
        sim->AddTask(gpu_l, "dense_ffn", FfnSeconds(m, batch, m.dense_inter, w.gpu, wb),
                     {attn});
        continue;
      }
      AddLaunchGap(sim.get(), gpu_l, s, &launches);
      const SimTaskId gating =
          sim->AddTask(gpu_l, "gating", GatingSeconds(m, batch, w.gpu, wb), {attn});
      const bool is_last = l == last_layer;
      const int imm_count = is_last ? m.top_k : imm;
      const int def_count = is_last ? 0 : n_def;

      if (s.async_overlap) {
        // Activations stream to the CPU asynchronously; immediate experts run
        // while the GPU computes the shared experts.
        const SimTaskId d2h = sim->AddTask(pcie, "act_d2h",
                                           ActivationTransferSeconds(w, batch), {gating},
                                           SimCategory::kTransfer);
        const double layer_cpu =
            CpuMoeSeconds(s, w, decode_kc, active_per_layer, tokens_per_expert);
        const SimTaskId imm_task = sim->AddTask(
            cpu, "imm_experts",
            layer_cpu * static_cast<double>(imm_count) / m.top_k, {d2h});
        SimTaskId def_task = -1;
        if (def_count > 0) {
          def_task = sim->AddTask(
              cpu, "def_experts",
              layer_cpu * static_cast<double>(def_count) / m.top_k, {d2h});
        }
        AddLaunchGap(sim.get(), gpu_l, s, &launches);
        const SimTaskId shared = sim->AddTask(
            gpu, "shared_experts", FfnSeconds(m, batch, m.shared_inter(), w.gpu, wb),
            {gating});
        const SimTaskId h2d = sim->AddTask(pcie, "act_h2d",
                                           ActivationTransferSeconds(w, batch), {imm_task},
                                           SimCategory::kTransfer);
        std::vector<SimTaskId> merge_deps{shared, h2d};
        if (prev_def >= 0) {
          merge_deps.push_back(prev_def);
        }
        AddLaunchGap(sim.get(), gpu_l, s, &launches);
        const SimTaskId merge = sim->AddTask(gpu_l, "merge", 1e-6, merge_deps);
        prev_def = def_task >= 0 ? def_task : -1;
        if (step == w.decode_steps / 2) {
          mid_step_merges.push_back(merge);
        }
      } else {
        // Baseline: blocking round-trip per layer, shared experts serialized
        // after the CPU returns.
        const SimTaskId d2h = sim->AddTask(pcie, "act_d2h",
                                           ActivationTransferSeconds(w, batch), {gating},
                                           SimCategory::kTransfer);
        const SimTaskId cpu_task = sim->AddTask(
            cpu, "routed_experts",
            CpuMoeSeconds(s, w, decode_kc, active_per_layer, tokens_per_expert), {d2h});
        const SimTaskId h2d = sim->AddTask(pcie, "act_h2d", ActivationTransferSeconds(w, 1),
                                           {cpu_task}, SimCategory::kTransfer);
        AddLaunchGap(sim.get(), gpu_l, s, &launches);
        const SimTaskId shared = sim->AddTask(
            gpu, "shared_experts", FfnSeconds(m, batch, m.shared_inter(), w.gpu, wb), {h2d});
        AddLaunchGap(sim.get(), gpu_l, s, &launches);
        const SimTaskId merge = sim->AddTask(gpu_l, "merge", 1e-6, {shared});
        if (step == w.decode_steps / 2) {
          mid_step_merges.push_back(merge);
        }
      }
    }
    AddLaunchGap(sim.get(), gpus.back(), s, &launches);
    prev_lm_head = sim->AddTask(gpus.back(), "lm_head", LmHeadSeconds(m, batch, w.gpu, wb), {});
  }
  sim->Run();

  SimReport report;
  report.sim = sim;
  report.cpu_resource = cpu;
  report.gpu_resource = gpu;
  report.seconds = sim->Makespan();
  report.tokens_per_second = static_cast<double>(w.decode_steps) * batch / report.seconds;
  // Steady-state window: skip the first step.
  const double warmup = report.seconds / w.decode_steps;
  report.cpu_utilization = sim->UtilizationInWindow(cpu, warmup, report.seconds);
  report.gpu_utilization = sim->UtilizationInWindow(gpu, warmup, report.seconds);
  double gpu_busy = 0.0;
  double gpu_launch = 0.0;
  for (int g : gpus) {
    gpu_busy += sim->BusyTime(g);
    gpu_launch += sim->BusyTime(g, SimCategory::kLaunch);
  }
  report.launch_overhead_share = gpu_busy > 0.0 ? gpu_launch / gpu_busy : 0.0;
  report.micro_launches_per_token = launches.micro / w.decode_steps;
  if (mid_step_merges.size() >= 2) {
    const double span = sim->task(mid_step_merges.back()).finish -
                        sim->task(mid_step_merges.front()).finish;
    report.layer_time_ms = span / (static_cast<double>(mid_step_merges.size()) - 1) * 1e3;
  }
  return report;
}

namespace {

// Chunked prefill with wavefront pipelining: tasks for (chunk c, layer l) are
// enqueued in c+l order so chunk c+1's early layers run on the GPU while the
// CPU grinds chunk c's expert batches — cross-chunk overlap on top of the
// per-layer shared-expert overlap. Dependencies: a layer needs its own
// previous layer's merge and the *previous chunk's* same-layer attention
// (KV-cache write order).
SimReport SimulateChunkedPrefill(const StrategySpec& s, const SimWorkload& w) {
  const MoeModelConfig& m = w.model;
  const double wb = DTypeBits(w.gpu_dtype) / 8.0;
  auto sim = std::make_shared<EventSim>();
  const int gpu = sim->AddResource("gpu");
  const int cpu = sim->AddResource("cpu");
  const int pcie = sim->AddResource("pcie");

  const std::int64_t chunk = w.prefill_chunk;
  const int num_chunks = static_cast<int>((w.prompt_len + chunk - 1) / chunk);
  const int threads = w.cpu.sockets * w.cpu.cores_per_socket;
  const double imbalance =
      PrefillImbalanceFactor(m, chunk, w.expert_skew, threads, s.dynamic_sched, w.seed);

  // task ids per (chunk, layer): the merge (or dense-ffn) finishing the layer,
  // and the attention task (KV ordering).
  std::vector<std::vector<SimTaskId>> layer_done(
      static_cast<std::size_t>(num_chunks),
      std::vector<SimTaskId>(static_cast<std::size_t>(m.num_layers), -1));
  std::vector<std::vector<SimTaskId>> attn_task = layer_done;

  for (int wave = 0; wave <= num_chunks - 1 + m.num_layers - 1; ++wave) {
    for (int c = 0; c < num_chunks; ++c) {
      const int l = wave - c;
      if (l < 0 || l >= m.num_layers) {
        continue;
      }
      const std::int64_t tokens =
          std::min<std::int64_t>(chunk, w.prompt_len - static_cast<std::int64_t>(c) * chunk);
      const std::int64_t seq = static_cast<std::int64_t>(c) * chunk + tokens;
      std::vector<SimTaskId> attn_deps;
      if (l > 0) {
        attn_deps.push_back(layer_done[static_cast<std::size_t>(c)]
                                      [static_cast<std::size_t>(l - 1)]);
      }
      if (c > 0) {
        attn_deps.push_back(attn_task[static_cast<std::size_t>(c - 1)]
                                     [static_cast<std::size_t>(l)]);
      }
      const SimTaskId attn = sim->AddTask(
          gpu, "attn", AttnSeconds(m, tokens, seq, w.gpu, wb), attn_deps);
      attn_task[static_cast<std::size_t>(c)][static_cast<std::size_t>(l)] = attn;
      if (!m.is_moe_layer(l)) {
        layer_done[static_cast<std::size_t>(c)][static_cast<std::size_t>(l)] = sim->AddTask(
            gpu, "dense_ffn", FfnSeconds(m, tokens, m.dense_inter, w.gpu, wb), {attn});
        continue;
      }
      const SimTaskId gating =
          sim->AddTask(gpu, "gating", GatingSeconds(m, tokens, w.gpu, wb), {attn});
      const double miss = std::pow(
          1.0 - static_cast<double>(m.top_k) / m.num_experts, static_cast<double>(tokens));
      const int active =
          std::max(1, static_cast<int>(std::lround(m.num_experts * (1.0 - miss))));
      const std::int64_t tpe = std::max<std::int64_t>(1, tokens * m.top_k / active);
      const SimTaskId d2h = sim->AddTask(pcie, "act_d2h",
                                         ActivationTransferSeconds(w, tokens), {gating},
                                         SimCategory::kTransfer);
      const SimTaskId cpu_task = sim->AddTask(
          cpu, "routed_experts",
          CpuMoeSeconds(s, w, s.prefill_kernel, active, tpe) * imbalance, {d2h});
      const SimTaskId h2d = sim->AddTask(pcie, "act_h2d",
                                         ActivationTransferSeconds(w, tokens), {cpu_task},
                                         SimCategory::kTransfer);
      const SimTaskId shared = sim->AddTask(
          gpu, "shared_experts", FfnSeconds(m, tokens, m.shared_inter(), w.gpu, wb),
          {gating});
      layer_done[static_cast<std::size_t>(c)][static_cast<std::size_t>(l)] =
          sim->AddTask(gpu, "merge", 1e-6, {shared, h2d});
    }
  }
  sim->AddTask(gpu, "lm_head",
               LmHeadSeconds(m, std::min<std::int64_t>(chunk, w.prompt_len), w.gpu, wb), {});
  sim->Run();

  SimReport report;
  report.sim = sim;
  report.cpu_resource = cpu;
  report.gpu_resource = gpu;
  report.seconds = sim->Makespan();
  report.tokens_per_second = static_cast<double>(w.prompt_len) / report.seconds;
  report.cpu_utilization = sim->Utilization(cpu);
  report.gpu_utilization = sim->Utilization(gpu);
  return report;
}

}  // namespace

SimReport SimulatePrefill(const StrategySpec& s, const SimWorkload& w) {
  if (w.prefill_chunk > 0 && w.prefill_chunk < w.prompt_len && s.async_overlap) {
    return SimulateChunkedPrefill(s, w);
  }
  const MoeModelConfig& m = w.model;
  const double wb = BytesPerWeight(w.gpu_dtype);
  auto sim = std::make_shared<EventSim>();
  const int gpu = sim->AddResource("gpu");
  const int cpu = sim->AddResource("cpu");
  const int pcie = sim->AddResource("pcie");
  LaunchCounter launches;

  const std::int64_t tokens = w.prompt_len;
  // Expert coverage: with tokens*top_k assignments, essentially every expert
  // activates once tokens >> experts/top_k; compute the expectation.
  const double miss =
      std::pow(1.0 - static_cast<double>(m.top_k) / m.num_experts, static_cast<double>(tokens));
  const int active = std::max(
      1, static_cast<int>(std::lround(m.num_experts * (1.0 - miss))));
  const std::int64_t tokens_per_expert =
      std::max<std::int64_t>(1, tokens * m.top_k / active);
  const int threads = w.cpu.sockets * w.cpu.cores_per_socket;
  const double imbalance = PrefillImbalanceFactor(m, tokens, w.expert_skew, threads,
                                                  s.dynamic_sched, w.seed);

  for (int l = 0; l < m.num_layers; ++l) {
    const bool moe_layer = m.is_moe_layer(l);
    AddLaunchGap(sim.get(), gpu, s, &launches);
    const SimTaskId attn =
        sim->AddTask(gpu, "attn", AttnSeconds(m, tokens, tokens, w.gpu, wb), {});
    if (!moe_layer) {
      AddLaunchGap(sim.get(), gpu, s, &launches);
      sim->AddTask(gpu, "dense_ffn", FfnSeconds(m, tokens, m.dense_inter, w.gpu, wb), {attn});
      continue;
    }
    AddLaunchGap(sim.get(), gpu, s, &launches);
    const SimTaskId gating =
        sim->AddTask(gpu, "gating", GatingSeconds(m, tokens, w.gpu, wb), {attn});
    const double moe_seconds =
        CpuMoeSeconds(s, w, s.prefill_kernel, active, tokens_per_expert) * imbalance;
    const SimTaskId d2h = sim->AddTask(pcie, "act_d2h", ActivationTransferSeconds(w, tokens),
                                       {gating}, SimCategory::kTransfer);
    const SimTaskId cpu_task = sim->AddTask(cpu, "routed_experts", moe_seconds, {d2h});
    const SimTaskId h2d = sim->AddTask(pcie, "act_h2d", ActivationTransferSeconds(w, tokens),
                                       {cpu_task}, SimCategory::kTransfer);
    AddLaunchGap(sim.get(), gpu, s, &launches);
    if (s.async_overlap) {
      // Shared experts overlap the CPU batch; merge joins both.
      const SimTaskId shared = sim->AddTask(
          gpu, "shared_experts", FfnSeconds(m, tokens, m.shared_inter(), w.gpu, wb), {gating});
      sim->AddTask(gpu, "merge", 1e-6, {shared, h2d});
    } else {
      const SimTaskId shared = sim->AddTask(
          gpu, "shared_experts", FfnSeconds(m, tokens, m.shared_inter(), w.gpu, wb), {h2d});
      sim->AddTask(gpu, "merge", 1e-6, {shared});
    }
  }
  AddLaunchGap(sim.get(), gpu, s, &launches);
  sim->AddTask(gpu, "lm_head", LmHeadSeconds(m, tokens, w.gpu, wb), {});
  sim->Run();

  SimReport report;
  report.sim = sim;
  report.cpu_resource = cpu;
  report.gpu_resource = gpu;
  report.seconds = sim->Makespan();
  report.tokens_per_second = tokens / report.seconds;
  report.cpu_utilization = sim->Utilization(cpu);
  report.gpu_utilization = sim->Utilization(gpu);
  const double gpu_busy = sim->BusyTime(gpu);
  report.launch_overhead_share =
      gpu_busy > 0.0 ? sim->BusyTime(gpu, SimCategory::kLaunch) / gpu_busy : 0.0;
  report.micro_launches_per_token = launches.micro;
  return report;
}

int ChooseDeferredExperts(const SimWorkload& workload) {
  // §4.2: defer the minimum number of experts that saturates the CPU, keeping
  // at least 2 immediate experts.
  constexpr double kSaturation = 0.98;
  int best = 0;
  double best_tps = 0.0;
  for (int d = 0; d <= workload.model.top_k - 2; ++d) {
    const SimReport r = SimulateDecode(KTransformersStrategy(d), workload);
    if (r.tokens_per_second > best_tps + 1e-9) {
      best_tps = r.tokens_per_second;
      best = d;
    }
    if (r.cpu_utilization >= kSaturation) {
      return d;
    }
  }
  return best;
}

}  // namespace ktx
