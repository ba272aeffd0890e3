// Engine thread placement (engine.h): every engine thread binds itself to one
// CPU of the constructing thread's affinity mask, and where the threads run
// never changes an output bit.

#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/model/config.h"
#include "src/model/weights.h"
#include "tests/run_once_per_thread.h"

namespace ktx {
namespace {

std::shared_ptr<const ModelWeights> Weights(const MoeModelConfig& config) {
  return std::make_shared<const ModelWeights>(ModelWeights::Generate(config, 5));
}

// The CPU each pool worker reports from inside a pool task, by slot.
std::vector<int> WorkerCpus(ThreadPool& pool) {
  std::vector<int> cpus(pool.num_threads(), -1);
  RunOncePerThread(pool, [&cpus](int slot) {
    if (slot >= 0) {
      cpus[static_cast<std::size_t>(slot)] = sched_getcpu();
    }
  });
  return cpus;
}

TEST(ThreadPlacementTest, EveryEngineThreadRunsOnItsOwnCpuOfTheMask) {
  const std::vector<int> mask = AffinityCpus();
  EngineOptions options;
  options.cpu_threads = 2;
  if (mask.size() < static_cast<std::size_t>(options.cpu_threads) + 2) {
    GTEST_SKIP() << "needs cpu_threads + 2 = " << options.cpu_threads + 2 << " CPUs, mask has "
                 << mask.size();
  }
  const MoeModelConfig config = TinyMoeConfig();
  HybridEngine engine(config, Weights(config), options);
  engine.Prefill({1, 2, 3});
  engine.DecodeStep(4);

  const std::vector<int> workers = WorkerCpus(engine.cpu_pool());
  const HybridEngine::ThreadCpus threads = engine.SampleThreadCpus();
  // The rule in engine.h: worker i on mask[i], then the control thread, then
  // the stream worker.
  ASSERT_EQ(workers.size(), 2u);
  EXPECT_EQ(workers[0], mask[0]);
  EXPECT_EQ(workers[1], mask[1]);
  EXPECT_EQ(threads.moe_control, mask[2]);
  EXPECT_EQ(threads.vgpu_stream, mask[3]);
  const std::set<int> distinct{workers[0], workers[1], threads.moe_control, threads.vgpu_stream};
  EXPECT_EQ(distinct.size(), 4u) << "engine threads share a CPU";
}

TEST(ThreadPlacementTest, OneThreadPoolStillPlacesTheControlThreadAndTheStreamWorker) {
  const std::vector<int> mask = AffinityCpus();
  if (mask.size() < 3) {
    GTEST_SKIP() << "needs 3 CPUs, mask has " << mask.size();
  }
  EngineOptions options;
  options.cpu_threads = 1;  // a pool of one starts no worker
  const MoeModelConfig config = TinyMoeConfig();
  HybridEngine engine(config, Weights(config), options);
  engine.Prefill({1, 2, 3});
  EXPECT_EQ(engine.cpu_pool().num_threads(), 1u);
  const HybridEngine::ThreadCpus threads = engine.SampleThreadCpus();
  EXPECT_EQ(threads.moe_control, mask[1]);
  EXPECT_EQ(threads.vgpu_stream, mask[2]);
}

// Builds an engine on the calling thread and returns its greedy stream and
// the prompt's final logits.
struct GreedyRun {
  std::vector<int> tokens;
  std::vector<float> prefill_logits;
  HybridEngine::ThreadCpus threads;
  std::vector<int> workers;
};

GreedyRun Generate(const MoeModelConfig& config, const std::shared_ptr<const ModelWeights>& weights) {
  EngineOptions options;
  options.cpu_threads = 2;
  HybridEngine engine(config, weights, options);
  GreedyRun run;
  const std::vector<int> prompt = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  const Tensor logits = engine.Prefill(prompt);
  run.prefill_logits.assign(logits.f32(), logits.f32() + logits.numel());
  run.tokens = engine.GenerateGreedy(prompt, 12);
  run.threads = engine.SampleThreadCpus();
  run.workers = WorkerCpus(engine.cpu_pool());
  return run;
}

TEST(ThreadPlacementTest, OneCpuMaskPutsEveryThreadOnItAndKeepsEveryBit) {
  const MoeModelConfig config = SmallMoeConfig();
  const auto weights = Weights(config);
  const GreedyRun full = Generate(config, weights);

  const int cpu = AffinityCpus().front();
  GreedyRun pinned;
  bool pinned_ok = false;
  std::thread builder([&] {
    PinCurrentThread(cpu);
    pinned_ok = AffinityCpus() == std::vector<int>{cpu};
    if (pinned_ok) {
      pinned = Generate(config, weights);
    }
  });
  builder.join();
  ASSERT_TRUE(pinned_ok) << "could not pin the building thread";

  EXPECT_EQ(pinned.threads.moe_control, cpu);
  EXPECT_EQ(pinned.threads.vgpu_stream, cpu);
  for (int worker : pinned.workers) {
    EXPECT_EQ(worker, cpu);
  }
  EXPECT_EQ(pinned.tokens, full.tokens);
  ASSERT_EQ(pinned.prefill_logits.size(), full.prefill_logits.size());
  EXPECT_EQ(std::memcmp(pinned.prefill_logits.data(), full.prefill_logits.data(),
                        full.prefill_logits.size() * sizeof(float)),
            0)
      << "prefill logits differ between placements";
}

}  // namespace
}  // namespace ktx
