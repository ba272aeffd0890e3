#include "src/baselines/baselines.h"

namespace ktx {

EngineOptions FiddlerEngineOptions() {
  EngineOptions o;
  o.async_overlap = false;        // blocking per-layer round-trip
  o.use_cuda_graph = false;       // PyTorch eager launches
  o.numa_mode = NumaMode::kNaiveInterleaved;
  o.moe.schedule = ScheduleKind::kStatic;  // no dynamic task queue
  o.n_deferred = 0;
  return o;
}

EngineOptions LlamaCppEngineOptions() {
  EngineOptions o;
  o.async_overlap = false;
  o.use_cuda_graph = false;       // disabled to avoid re-capture overhead
  o.numa_mode = NumaMode::kNaiveInterleaved;
  o.moe.schedule = ScheduleKind::kStatic;
  o.n_deferred = 0;
  return o;
}

EngineOptions KTransformersEngineOptions(int n_deferred) {
  EngineOptions o;
  o.async_overlap = true;
  o.use_cuda_graph = true;
  o.numa_mode = NumaMode::kTensorParallel;
  o.moe.schedule = ScheduleKind::kDynamic;
  o.n_deferred = n_deferred;
  return o;
}

std::unique_ptr<HybridEngine> MakeFiddlerEngine(const MoeModelConfig& config,
                                                std::shared_ptr<const ModelWeights> weights) {
  return std::make_unique<HybridEngine>(config, std::move(weights), FiddlerEngineOptions());
}

std::unique_ptr<HybridEngine> MakeLlamaCppEngine(const MoeModelConfig& config,
                                                 std::shared_ptr<const ModelWeights> weights) {
  return std::make_unique<HybridEngine>(config, std::move(weights), LlamaCppEngineOptions());
}

std::unique_ptr<HybridEngine> MakeKTransformersEngine(
    const MoeModelConfig& config, std::shared_ptr<const ModelWeights> weights, int n_deferred) {
  return std::make_unique<HybridEngine>(config, std::move(weights),
                                        KTransformersEngineOptions(n_deferred));
}

}  // namespace ktx
