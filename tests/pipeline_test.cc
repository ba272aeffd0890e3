// Multi-GPU pipeline parallelism tests (§5 "multi-GPU pipelining").

#include <gtest/gtest.h>

#include <memory>

#include "src/core/engine.h"

namespace ktx {
namespace {

struct Fixture {
  MoeModelConfig config = TinyMoeConfig();  // 3 layers
  std::shared_ptr<const ModelWeights> weights =
      std::make_shared<const ModelWeights>(ModelWeights::Generate(TinyMoeConfig(), 88));
};

TEST(PipelineTest, TwoStagesMatchSingleStage) {
  Fixture f;
  EngineOptions single;
  EngineOptions piped;
  piped.pipeline_stages = 2;
  HybridEngine a(f.config, f.weights, single);
  HybridEngine b(f.config, f.weights, piped);

  const std::vector<int> prompt{3, 14, 15, 9};
  const Tensor la = a.Prefill(prompt);
  const Tensor lb = b.Prefill(prompt);
  EXPECT_EQ(MaxAbsDiff(la, lb), 0.0f);  // same math, different streams

  for (int t : {42, 43, 44}) {
    EXPECT_EQ(MaxAbsDiff(a.DecodeStep(t), b.DecodeStep(t)), 0.0f) << t;
  }
}

TEST(PipelineTest, DeferralWorksAcrossStageBoundaries) {
  // The deferred request of the last MoE layer on stage 0 must complete
  // before the first MoE layer of stage 1 merges it — the cross-stream event
  // chain preserves the FIFO the sync protocol needs.
  Fixture f;
  EngineOptions single;
  single.n_deferred = 1;
  EngineOptions piped = single;
  piped.pipeline_stages = 3;  // one layer per stage
  HybridEngine a(f.config, f.weights, single);
  HybridEngine b(f.config, f.weights, piped);
  const std::vector<int> prompt{1, 2, 3};
  a.Prefill(prompt);
  b.Prefill(prompt);
  EngineOptions no_graph = single;
  no_graph.use_cuda_graph = false;  // compare like with like
  HybridEngine c(f.config, f.weights, no_graph);
  c.Prefill(prompt);
  const Tensor la = a.DecodeStep(7);
  const Tensor lb = b.DecodeStep(7);
  const Tensor lc = c.DecodeStep(7);
  EXPECT_EQ(MaxAbsDiff(lb, lc), 0.0f);
  EXPECT_EQ(MaxAbsDiff(la, lb), 0.0f);
}

TEST(PipelineTest, WorkDistributesAcrossStageDevices) {
  Fixture f;
  EngineOptions piped;
  piped.pipeline_stages = 2;
  HybridEngine engine(f.config, f.weights, piped);
  EXPECT_EQ(engine.pipeline_stages(), 2);
  engine.Prefill({1, 2, 3});
  // Both stage devices executed kernels; stage 1 also counted the hand-off
  // transfer.
  EXPECT_GT(engine.device(0).stats().logical_launches.load(), 0);
  EXPECT_GT(engine.device(1).stats().logical_launches.load(), 0);
  EXPECT_GT(engine.device(1).stats().memcpys.load(), 0);
}

TEST(PipelineTest, StageHandOffCountsEveryRowsBytes) {
  // TinyMoe's 3 layers split 2 + 1, so each forward hands its activation
  // rows from stage 0 to stage 1 once, as one memcpy on the stage-1 device.
  Fixture f;
  EngineOptions piped;
  piped.pipeline_stages = 2;
  HybridEngine engine(f.config, f.weights, piped);
  const std::vector<int> prompt{3, 14, 15, 9, 26, 5};  // one prefill chunk
  const auto p = static_cast<std::int64_t>(prompt.size());
  const std::int64_t row_bytes = f.config.hidden * static_cast<std::int64_t>(sizeof(float));
  const LaunchStats& stage1 = engine.device(1).stats();

  engine.Prefill(prompt);
  EXPECT_EQ(stage1.memcpys.load(), 1);
  EXPECT_EQ(stage1.memcpy_bytes.load(), p * row_bytes);

  engine.DecodeStep(7);
  EXPECT_EQ(stage1.memcpys.load(), 2);
  EXPECT_EQ(stage1.memcpy_bytes.load(), (p + 1) * row_bytes);
  EXPECT_EQ(engine.device(0).stats().memcpys.load(), 0);
}

TEST(PipelineTest, PipelineDisablesGraphCapture) {
  // Cross-stream events cannot be captured (as in real CUDA); the engine
  // falls back to eager decode.
  Fixture f;
  EngineOptions piped;
  piped.pipeline_stages = 2;
  piped.use_cuda_graph = true;  // silently downgraded
  HybridEngine engine(f.config, f.weights, piped);
  engine.Prefill({5});
  engine.DecodeStep(6);
  EXPECT_EQ(engine.device(0).stats().graph_launches.load(), 0);
  EXPECT_FALSE(engine.options().use_cuda_graph);
}

TEST(PipelineTest, StagesBoundedByLayerCount) {
  Fixture f;
  EngineOptions too_many;
  too_many.pipeline_stages = f.config.num_layers + 1;
  EXPECT_DEATH({ HybridEngine engine(f.config, f.weights, too_many); }, "pipeline_stages");
}

}  // namespace
}  // namespace ktx
