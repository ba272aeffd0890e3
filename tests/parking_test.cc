// Spin-then-park waiting (src/common/spin_wait.h): the CPU-side waiters stay
// awake through the short gaps of a decode step, and an idle engine sleeps.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/spin_wait.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/model/config.h"
#include "src/model/weights.h"

namespace ktx {
namespace {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(ParkingTest, IdleEngineSleeps) {
  const MoeModelConfig config = TinyMoeConfig();
  EngineOptions options;
  options.cpu_threads = 2;
  HybridEngine engine(config,
                      std::make_shared<const ModelWeights>(ModelWeights::Generate(config, 3)),
                      options);
  engine.Prefill({1, 2, 3});
  engine.DecodeStep(4);
  // Past the spin budget every waiter (pool workers, the MoE control thread,
  // the vGPU stream worker) is parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double cpu0 = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double idle_cpu = ProcessCpuSeconds() - cpu0;
  EXPECT_LT(idle_cpu, 0.05) << "an idle engine burned " << idle_cpu << " CPU-s in 0.5 s";
}

TEST(ParkingTest, SpinningWorkersPickUpSubmittedTasks) {
  // Right after a ParallelRun the workers are inside their spin. A Submit()ed
  // task must wake one of them through the spin predicate, not wait for the
  // spin budget to run out and the worker to reach its condvar.
  ThreadPool pool(2);
  std::vector<std::int64_t> latency_ns;
  for (int trial = 0; trial < 21; ++trial) {
    pool.ParallelRun([](void*, std::size_t, std::size_t) {}, nullptr, 64, 1);
    std::atomic<std::int64_t> ran_ns{0};
    const std::int64_t submit_ns = SteadyNowNanos();
    pool.Submit([&ran_ns] { ran_ns.store(SteadyNowNanos()); });
    pool.Wait();
    latency_ns.push_back(ran_ns.load() - submit_ns);
  }
  std::nth_element(latency_ns.begin(), latency_ns.begin() + 10, latency_ns.end());
  const auto budget_ns = std::chrono::nanoseconds(kSpinBudget).count();
  EXPECT_LT(latency_ns[10], budget_ns / 2)
      << "median Submit-to-run latency " << latency_ns[10] << " ns";
}

}  // namespace
}  // namespace ktx
