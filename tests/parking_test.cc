// Spin-then-park waiting (src/common/spin_wait.h): the CPU-side waiters stay
// awake through the short gaps of a decode step, and an idle engine sleeps.

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

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
#include "tests/run_once_per_thread.h"

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

TEST(ParkingTest, SpinningWorkersPickUpTheNextRun) {
  // Right after a ParallelRun the workers are inside their spin. The next run
  // must be claimed by one of them through the spin predicate, not wait for
  // the spin budget to run out and the worker to reach its condvar.
  ThreadPool pool(2);
  std::vector<std::int64_t> latency_ns;
  for (int trial = 0; trial < 21; ++trial) {
    pool.ParallelRun([](void*, std::size_t, std::size_t) {}, nullptr, 64, 1);
    std::vector<std::int64_t> claim_ns(pool.num_threads());
    const std::int64_t open_ns = SteadyNowNanos();
    RunOncePerThread(pool, [&claim_ns](int slot) {
      if (slot >= 0) {
        claim_ns[static_cast<std::size_t>(slot)] = SteadyNowNanos();
      }
    });
    latency_ns.push_back(*std::min_element(claim_ns.begin(), claim_ns.end()) - open_ns);
  }
  std::nth_element(latency_ns.begin(), latency_ns.begin() + 10, latency_ns.end());
  const auto budget_ns = std::chrono::nanoseconds(kSpinBudget).count();
  EXPECT_LT(latency_ns[10], budget_ns / 2)
      << "median open-to-worker-claim latency " << latency_ns[10] << " ns";
}

double ThreadClockMicros(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) * 1e-3;
}

TEST(ParkingTest, EveryWorkerWokenByARunSpinsAgain) {
  // A run wakes every parked worker, and every woken worker must go back to
  // its spin, whether it still found work in that run or not, so the next of
  // a burst of back-to-back runs finds it awake. Here the run is two empty
  // tasks: often the first woken worker and the caller claim both before the
  // second worker gets a CPU. A spinning worker shows as CPU time on its own
  // thread clock while this thread sleeps.
  ThreadPool pool(2);
  std::vector<clockid_t> clocks(pool.num_threads());
  RunOncePerThread(pool, [&clocks](int slot) {
    if (slot >= 0) {
      pthread_getcpuclockid(pthread_self(), &clocks[static_cast<std::size_t>(slot)]);
    }
  });
  std::vector<double> laziest_us;  // per run: the least CPU any worker spent
  for (int trial = 0; trial < 21; ++trial) {
    // Past the spin budget both workers are parked.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::vector<double> cpu0;
    for (const clockid_t clock : clocks) {
      cpu0.push_back(ThreadClockMicros(clock));
    }
    pool.ParallelRun([](void*, std::size_t, std::size_t) {}, nullptr, 2, 1);
    std::this_thread::sleep_for(2 * kSpinBudget);
    double least = 1e30;
    for (std::size_t w = 0; w < clocks.size(); ++w) {
      least = std::min(least, ThreadClockMicros(clocks[w]) - cpu0[w]);
    }
    laziest_us.push_back(least);
  }
  std::nth_element(laziest_us.begin(), laziest_us.begin() + 10, laziest_us.end());
  // Two spinners sharing one core each burn about half a budget; a worker
  // that goes back to sleep burns a few microseconds.
  const double budget_us = static_cast<double>(kSpinBudget.count());
  EXPECT_GE(laziest_us[10], 0.15 * budget_us)
      << "median CPU of the least busy worker after a run: " << laziest_us[10] << " us";
}

}  // namespace
}  // namespace ktx
