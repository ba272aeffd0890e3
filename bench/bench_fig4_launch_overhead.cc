// Figure 4 reproduction: GPU kernel-launch count and overhead during DS-3
// decoding under Fiddler, llama.cpp and KTransformers.
//
// Paper measurements: Fiddler issues >7,000 launches per decoded token at
// ~16 us each (73% of GPU execution time); llama.cpp ~3,000 at ~5 us (21%);
// KTransformers captures the whole decode step into one CUDA graph.

#include <cstdio>

#include "src/baselines/baselines.h"
#include "src/core/strategy_sim.h"

namespace {

void SimPart() {
  ktx::SimWorkload w;
  w.model = ktx::DeepSeekV3Config();
  w.prompt_len = 32;
  w.decode_steps = 8;
  std::printf("=== Figure 4: launch statistics, DS-3 decode (paper-scale model) ===\n");
  std::printf("%-22s %18s %14s %22s\n", "system", "launches/token", "latency(us)",
              "launch share of GPU");
  for (const auto& strat : {ktx::FiddlerStrategy(), ktx::LlamaCppStrategy(),
                            ktx::KTransformersStrategy(0)}) {
    const ktx::SimReport r = ktx::SimulateDecode(strat, w);
    std::printf("%-22s %18lld %14.1f %21.1f%%\n", strat.name.c_str(),
                static_cast<long long>(r.micro_launches_per_token), strat.launch_latency_us,
                r.launch_overhead_share * 100.0);
  }
  std::printf("(paper: Fiddler >7000 @16us = 73%%; llama.cpp ~3000 @5us = 21%%; KT ~0)\n\n");
}

void FunctionalPart() {
  // The functional engines on a tiny model, through the vcuda runtime: the
  // eager baselines launch every logical op of a step, KTransformers replays
  // one captured graph. (The per-op fan-out into framework micro-kernels is
  // the DES strategies', in SimPart above.)
  std::printf("=== Figure 4 (companion): functional engines, tiny model, 4 decode steps ===\n");
  const ktx::MoeModelConfig config = ktx::TinyMoeConfig();
  auto weights =
      std::make_shared<const ktx::ModelWeights>(ktx::ModelWeights::Generate(config, 11));
  struct Row {
    const char* name;
    std::unique_ptr<ktx::HybridEngine> engine;
  };
  Row rows[3] = {{"Fiddler", ktx::MakeFiddlerEngine(config, weights)},
                 {"llama.cpp", ktx::MakeLlamaCppEngine(config, weights)},
                 {"KTransformers", ktx::MakeKTransformersEngine(config, weights)}};
  std::printf("%-15s %18s %15s %15s\n", "system", "launches/step", "graph replays",
              "host funcs");
  for (Row& row : rows) {
    row.engine->Prefill({1, 2, 3});
    auto& stats = row.engine->device().stats();
    const auto before = stats.logical_launches.load();
    const auto before_hf = stats.host_funcs.load();
    for (int i = 0; i < 4; ++i) {
      row.engine->DecodeStep(10 + i);
    }
    std::printf("%-15s %18lld %15lld %15lld\n", row.name,
                static_cast<long long>((stats.logical_launches.load() - before) / 4),
                static_cast<long long>(stats.graph_launches.load()),
                static_cast<long long>(stats.host_funcs.load() - before_hf));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  SimPart();
  FunctionalPart();
  return 0;
}
