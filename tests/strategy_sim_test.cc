#include <gtest/gtest.h>

#include <vector>

#include "src/core/strategy_sim.h"

namespace ktx {
namespace {

SimWorkload Ds3Workload() {
  SimWorkload w;
  w.model = DeepSeekV3Config();
  w.prompt_len = 32;
  w.decode_steps = 8;
  return w;
}

// --- Decode (Fig. 12 shapes) --------------------------------------------------

TEST(StrategySimTest, DecodeSystemOrdering) {
  const SimWorkload w = Ds3Workload();
  const double fiddler = SimulateDecode(FiddlerStrategy(), w).tokens_per_second;
  const double llama = SimulateDecode(LlamaCppStrategy(), w).tokens_per_second;
  const double kt = SimulateDecode(KTransformersStrategy(0), w).tokens_per_second;
  const double kt_defer = SimulateDecode(KTransformersStrategy(3), w).tokens_per_second;
  EXPECT_LT(fiddler, llama);
  EXPECT_LT(llama, kt);
  EXPECT_LT(kt, kt_defer);
}

TEST(StrategySimTest, KtOverFiddlerDecodeInPaperBand) {
  // Paper §6.2: 2.42x – 4.09x over Fiddler (full precision, no deferral).
  const SimWorkload w = Ds3Workload();
  const double ratio = SimulateDecode(KTransformersStrategy(0), w).tokens_per_second /
                       SimulateDecode(FiddlerStrategy(), w).tokens_per_second;
  EXPECT_GT(ratio, 2.4);
  EXPECT_LT(ratio, 4.6);
}

TEST(StrategySimTest, KtOverLlamaCppDecodeInPaperBand) {
  // Paper §6.2: 1.25x – 1.76x over llama.cpp (full precision, no deferral).
  const SimWorkload w = Ds3Workload();
  const double ratio = SimulateDecode(KTransformersStrategy(0), w).tokens_per_second /
                       SimulateDecode(LlamaCppStrategy(), w).tokens_per_second;
  EXPECT_GT(ratio, 1.25);
  EXPECT_LT(ratio, 1.95);
}

TEST(StrategySimTest, DeferralGainWithinPaperBand) {
  // Paper: deferral adds up to 45% decode throughput (33% for DS-3 BF16).
  const SimWorkload w = Ds3Workload();
  const double base = SimulateDecode(KTransformersStrategy(0), w).tokens_per_second;
  const double defer = SimulateDecode(KTransformersStrategy(3), w).tokens_per_second;
  const double gain = defer / base - 1.0;
  EXPECT_GT(gain, 0.15);
  EXPECT_LT(gain, 0.45);
}

TEST(StrategySimTest, Fig10UtilizationShape) {
  // Paper Fig. 10: CPU 74% / GPU 28% without deferral; deferring 3 saturates
  // the CPU and cuts single-layer time by ~26%.
  const SimWorkload w = Ds3Workload();
  const SimReport d0 = SimulateDecode(KTransformersStrategy(0), w);
  EXPECT_NEAR(d0.cpu_utilization, 0.74, 0.08);
  EXPECT_NEAR(d0.gpu_utilization, 0.28, 0.08);

  const SimReport d3 = SimulateDecode(KTransformersStrategy(3), w);
  EXPECT_GT(d3.cpu_utilization, 0.93);
  EXPECT_GT(d3.gpu_utilization, d0.gpu_utilization);
  const double layer_reduction = 1.0 - d3.layer_time_ms / d0.layer_time_ms;
  EXPECT_GT(layer_reduction, 0.15);
  EXPECT_LT(layer_reduction, 0.35);
}

TEST(StrategySimTest, DeferralSaturates) {
  // Fig. 10: deferring 4 gives no benefit over 3 (CPU already saturated).
  const SimWorkload w = Ds3Workload();
  const double d3 = SimulateDecode(KTransformersStrategy(3), w).tokens_per_second;
  const double d4 = SimulateDecode(KTransformersStrategy(4), w).tokens_per_second;
  EXPECT_NEAR(d4 / d3, 1.0, 0.02);
}

TEST(StrategySimTest, ChoosesPaperDeferralDepths) {
  // §6.3: DS-3 BF16 defers 3; DS-2 defers 4.
  SimWorkload ds3 = Ds3Workload();
  EXPECT_EQ(ChooseDeferredExperts(ds3), 3);
  SimWorkload ds2 = ds3;
  ds2.model = DeepSeekV2Config();
  EXPECT_EQ(ChooseDeferredExperts(ds2), 4);
  // QW-2 defers fewer (paper: 2 in BF16; the heuristic must stay small).
  SimWorkload qw2 = ds3;
  qw2.model = Qwen2MoeConfig();
  EXPECT_LE(ChooseDeferredExperts(qw2), 2);
}

TEST(StrategySimTest, Fig4LaunchCounts) {
  // Fig. 4: Fiddler ~7000 launches/token at 16 us (73% of GPU time);
  // llama.cpp ~3000 at 5 us (21%); KT's graph removes them entirely.
  const SimWorkload w = Ds3Workload();
  const SimReport fiddler = SimulateDecode(FiddlerStrategy(), w);
  EXPECT_NEAR(static_cast<double>(fiddler.micro_launches_per_token), 7000.0, 700.0);
  EXPECT_GT(fiddler.launch_overhead_share, 0.6);

  const SimReport llama = SimulateDecode(LlamaCppStrategy(), w);
  EXPECT_NEAR(static_cast<double>(llama.micro_launches_per_token), 3000.0, 350.0);
  EXPECT_GT(llama.launch_overhead_share, 0.15);
  EXPECT_LT(llama.launch_overhead_share, fiddler.launch_overhead_share);

  const SimReport kt = SimulateDecode(KTransformersStrategy(0), w);
  EXPECT_EQ(kt.micro_launches_per_token, 0);
  EXPECT_LT(kt.launch_overhead_share, 0.01);
}


TEST(StrategySimTest, PipelineStagesCostOnlyHandoffs) {
  // Autoregressive decode serializes through the whole pipeline: splitting
  // layers across GPUs buys VRAM, not speed — throughput dips slightly from
  // the inter-stage transfers and never improves.
  SimWorkload w = Ds3Workload();
  const double one = SimulateDecode(KTransformersStrategy(0), w).tokens_per_second;
  StrategySpec piped = KTransformersStrategy(0);
  piped.pipeline_stages = 3;
  const double three = SimulateDecode(piped, w).tokens_per_second;
  EXPECT_LE(three, one * 1.001);
  EXPECT_GT(three, one * 0.95);  // hand-offs are cheap relative to experts
}

TEST(StrategySimTest, QuantizationSpeedsUpDecode) {
  SimWorkload bf16 = Ds3Workload();
  SimWorkload i4 = bf16;
  i4.cpu_dtype = DType::kI4;
  const double a = SimulateDecode(KTransformersStrategy(0), bf16).tokens_per_second;
  const double b = SimulateDecode(KTransformersStrategy(0), i4).tokens_per_second;
  EXPECT_GT(b, 2.0 * a);  // 4x fewer weight bytes, CPU-bound
}

TEST(StrategySimTest, CudaGraphToggleWorthPaperBand) {
  // §6.4: the CUDA-graph optimization is worth up to 1.23x in decode.
  SimWorkload w = Ds3Workload();
  StrategySpec with = KTransformersStrategy(0);
  StrategySpec without = with;
  without.name = "KT-nograph";
  without.cuda_graph = false;
  const double ratio = SimulateDecode(with, w).tokens_per_second /
                       SimulateDecode(without, w).tokens_per_second;
  EXPECT_GT(ratio, 1.02);
  EXPECT_LT(ratio, 1.30);
}

TEST(StrategySimTest, NumaTensorParallelWorthPaperBand) {
  // §6.4: NUMA-aware TP is worth up to 1.63x in decode.
  SimWorkload w = Ds3Workload();
  StrategySpec tp = KTransformersStrategy(0);
  StrategySpec naive = tp;
  naive.numa = NumaMode::kNaiveInterleaved;
  const double ratio = SimulateDecode(tp, w).tokens_per_second /
                       SimulateDecode(naive, w).tokens_per_second;
  EXPECT_GT(ratio, 1.4);
  EXPECT_LT(ratio, 1.7);
}

// --- Prefill (Fig. 11 shapes) ---------------------------------------------------

TEST(StrategySimTest, PrefillBaselineCrossover) {
  // §6.2: llama.cpp wins short prompts (fusion), Fiddler wins long prompts
  // (oneDNN AMX).
  SimWorkload w = Ds3Workload();
  w.prompt_len = 128;
  EXPECT_GT(SimulatePrefill(LlamaCppStrategy(), w).tokens_per_second,
            SimulatePrefill(FiddlerStrategy(), w).tokens_per_second);
  w.prompt_len = 8192;
  EXPECT_LT(SimulatePrefill(LlamaCppStrategy(), w).tokens_per_second,
            SimulatePrefill(FiddlerStrategy(), w).tokens_per_second);
}

TEST(StrategySimTest, KtPrefillSpeedupInPaperBand) {
  // §6.2: 4.62x – 19.74x prefill speedups over the best baseline.
  SimWorkload w = Ds3Workload();
  for (std::int64_t len : {512, 2048, 8192}) {
    w.prompt_len = len;
    const double kt = SimulatePrefill(KTransformersStrategy(0), w).tokens_per_second;
    const double best = std::max(SimulatePrefill(FiddlerStrategy(), w).tokens_per_second,
                                 SimulatePrefill(LlamaCppStrategy(), w).tokens_per_second);
    EXPECT_GT(kt / best, 3.0) << "len=" << len;
    EXPECT_LT(kt / best, 22.0) << "len=" << len;
  }
}

TEST(StrategySimTest, PrefillThroughputGrowsWithLength) {
  // Longer prompts amortize overheads; KT throughput must be monotone-ish up.
  SimWorkload w = Ds3Workload();
  w.prompt_len = 128;
  const double short_tps = SimulatePrefill(KTransformersStrategy(0), w).tokens_per_second;
  w.prompt_len = 4096;
  const double long_tps = SimulatePrefill(KTransformersStrategy(0), w).tokens_per_second;
  EXPECT_GT(long_tps, short_tps);
}


TEST(StrategySimTest, ChunkedPrefillTradesThroughputForWeightRestreaming) {
  // Each chunk re-reads the activated experts' weights, so throughput is
  // monotone in chunk size and whole-prompt prefill is fastest — §4.1's
  // duplicated-footprint argument in prefill form.
  SimWorkload w = Ds3Workload();
  w.prompt_len = 4096;
  double prev = 0.0;
  for (std::int64_t chunk : {512, 1024, 2048}) {
    w.prefill_chunk = chunk;
    const double tps = SimulatePrefill(KTransformersStrategy(0), w).tokens_per_second;
    EXPECT_GT(tps, prev) << "chunk=" << chunk;
    prev = tps;
  }
  w.prefill_chunk = 0;  // whole prompt
  EXPECT_GT(SimulatePrefill(KTransformersStrategy(0), w).tokens_per_second, prev);
}

TEST(StrategySimTest, DynamicSchedulingWorthPaperBand) {
  // §3.2: dynamic task scheduling is worth up to 1.83x in prefill.
  const double fixed =
      PrefillImbalanceFactor(DeepSeekV3Config(), 8192, 0.2, 72, /*dynamic=*/false, 1);
  const double dynamic =
      PrefillImbalanceFactor(DeepSeekV3Config(), 8192, 0.2, 72, /*dynamic=*/true, 1);
  const double gain = fixed / dynamic;
  EXPECT_GT(gain, 1.4);
  EXPECT_LT(gain, 2.1);
}

TEST(ScheduleTest, DynamicBeatsStaticOnImbalance) {
  // One heavy task among many light ones: the static block partition strands
  // the heavy task with light ones on one worker; dynamic spreads the rest.
  struct Case {
    std::size_t tasks;
    std::size_t threads;
    double heavy;
  };
  for (const Case c : {Case{32, 8, 30.0}, Case{64, 4, 100.0}}) {
    std::vector<double> costs(c.tasks, 1.0);
    costs[0] = c.heavy;  // hot expert
    const double fixed = SimulateMakespan(costs, c.threads, /*dynamic=*/false);
    const double dynamic = SimulateMakespan(costs, c.threads, /*dynamic=*/true);
    EXPECT_LT(dynamic, fixed) << c.tasks << " tasks on " << c.threads << " threads";
    EXPECT_GE(dynamic, c.heavy);  // cannot beat the critical path
  }
}

TEST(ScheduleTest, BalancedWorkloadNearlyEqual) {
  std::vector<double> costs(64, 1.0);
  const double fixed = SimulateMakespan(costs, 8, /*dynamic=*/false);
  const double dynamic = SimulateMakespan(costs, 8, /*dynamic=*/true);
  EXPECT_DOUBLE_EQ(fixed, dynamic);
}

TEST(StrategySimTest, TimelineRenderable) {
  const SimWorkload w = Ds3Workload();
  const SimReport r = SimulateDecode(KTransformersStrategy(3), w);
  ASSERT_NE(r.sim, nullptr);
  const std::string art = r.sim->AsciiTimeline(60);
  EXPECT_NE(art.find("cpu"), std::string::npos);
  EXPECT_NE(art.find("gpu"), std::string::npos);
}

TEST(StrategySimTest, DeterministicAcrossRuns) {
  const SimWorkload w = Ds3Workload();
  const SimReport a = SimulateDecode(KTransformersStrategy(3), w);
  const SimReport b = SimulateDecode(KTransformersStrategy(3), w);
  EXPECT_DOUBLE_EQ(a.tokens_per_second, b.tokens_per_second);
}

}  // namespace
}  // namespace ktx
