// Quickstart: run hybrid CPU/GPU MoE inference end to end.
//
// Builds a small seeded MoE model, creates a KTransformers-style hybrid
// engine (AMX-layout CPU experts, async scheduling, single-graph decode,
// Expert Deferral), prefills a prompt and greedily decodes tokens — then
// prints what the runtime actually did.
//
//   ./quickstart

#include <cstdio>
#include <memory>

#include "src/common/stopwatch.h"
#include "src/core/engine.h"
#include "src/cpu/cpu_features.h"

int main() {
  // 1. A model. Real checkpoints are terabytes; this generates a seeded
  //    synthetic one with the same architecture (MoE + shared expert + GQA).
  const ktx::MoeModelConfig config = ktx::SmallMoeConfig();
  auto weights =
      std::make_shared<const ktx::ModelWeights>(ktx::ModelWeights::Generate(config, 2024));
  std::printf("model: %s — %d layers, %d experts (top-%d), hidden %lld\n",
              config.name.c_str(), config.num_layers, config.num_experts, config.top_k,
              static_cast<long long>(config.hidden));
  std::printf("cpu:   %s\n\n", ktx::GetCpuFeatures().ToString().c_str());

  // 2. An engine. Expert Deferral depth 2 keeps top_k-2 = 6 immediate experts.
  ktx::EngineOptions options;
  options.cpu_weight_dtype = ktx::DType::kI8;  // quantized routed experts
  options.n_deferred = 2;
  ktx::HybridEngine engine(config, weights, options);

  // 3. Prefill + greedy decode.
  const std::vector<int> prompt{42, 7, 300, 12, 99, 1, 255, 64};
  ktx::Stopwatch sw;
  ktx::Tensor logits = engine.Prefill(prompt);
  const double prefill_ms = sw.ElapsedMillis();

  std::printf("generated:");
  int next = ktx::ArgmaxLastToken(logits);
  sw.Reset();
  constexpr int kNewTokens = 16;
  for (int i = 0; i < kNewTokens; ++i) {
    std::printf(" %d", next);
    logits = engine.DecodeStep(next);
    next = ktx::ArgmaxLastToken(logits);
  }
  const double decode_ms = sw.ElapsedMillis();
  std::printf("\n\n");

  // 4. What happened under the hood.
  const auto& stats = engine.device().stats();
  const ktx::MoeStats moe = engine.moe_stats();
  std::printf("prefill: %zu tokens in %.1f ms\n", prompt.size(), prefill_ms);
  std::printf("decode:  %d tokens in %.1f ms (%.1f tok/s wall-clock, functional engine)\n",
              kNewTokens, decode_ms, kNewTokens / decode_ms * 1e3);
  std::printf("gpu:     %lld kernel launches during prefill, then %lld graph replays for "
              "decode (zero per-kernel launches)\n",
              static_cast<long long>(stats.logical_launches.load()),
              static_cast<long long>(stats.graph_launches.load()));
  std::printf("cpu MoE: %lld requests, kernel mix %lld AMX / %lld AVX-512 / %lld AVX2 / "
              "%lld scalar, %.1f MFLOP of expert math\n",
              static_cast<long long>(engine.counters().moe_requests),
              static_cast<long long>(moe.amx_calls), static_cast<long long>(moe.avx512_calls),
              static_cast<long long>(moe.avx2_calls), static_cast<long long>(moe.scalar_calls),
              moe.useful_flops / 1e6);
  return 0;
}
