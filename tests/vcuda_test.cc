#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "src/gpu/vcuda.h"

namespace ktx {
namespace {

KernelDesc Kernel(const char* name, std::function<void()> fn, int micro = 1) {
  KernelDesc k;
  k.name = name;
  k.fn = std::move(fn);
  k.micro_kernels = micro;
  return k;
}

TEST(VDeviceTest, MallocTracksAndFreesAgainstVram) {
  VDevice::Options opts;
  opts.spec.vram_gb = 1e-6;  // 1 KB of VRAM
  VDevice dev(opts);
  void* a = dev.Malloc(512);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(dev.allocated_bytes(), 512u);
  EXPECT_EQ(dev.Malloc(4096), nullptr);  // OOM
  dev.Free(a);
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(VStreamTest, KernelsExecuteInFifoOrder) {
  VDevice dev;
  VStream stream(&dev);
  std::vector<int> order;
  std::mutex mu;
  for (int i = 0; i < 16; ++i) {
    stream.Launch(Kernel("k", [&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    }));
  }
  stream.Synchronize();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(VStreamTest, LaunchIsAsynchronous) {
  VDevice dev;
  VStream stream(&dev);
  std::atomic<bool> release{false};
  std::atomic<bool> ran{false};
  stream.Launch(Kernel("blocking", [&] {
    while (!release.load()) {
      std::this_thread::yield();
    }
    ran = true;
  }));
  EXPECT_FALSE(ran.load());  // host proceeded past the launch
  release = true;
  stream.Synchronize();
  EXPECT_TRUE(ran.load());
}

TEST(VStreamTest, HostFuncRunsInStreamOrder) {
  VDevice dev;
  VStream stream(&dev);
  std::vector<int> order;
  std::mutex mu;
  stream.Launch(Kernel("a", [&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(0);
  }));
  stream.LaunchHostFunc([&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(1);
  });
  stream.Launch(Kernel("b", [&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(2);
  }));
  stream.Synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(VStreamTest, EventSignalsAcrossStreams) {
  VDevice dev;
  VStream producer(&dev);
  VStream consumer(&dev);
  VEvent event;
  std::atomic<int> value{0};
  producer.Launch(Kernel("produce", [&] { value = 42; }));
  producer.RecordEvent(&event);
  std::atomic<int> seen{-1};
  consumer.LaunchHostFunc([&] {
    event.Wait();
    seen = value.load();
  });
  consumer.Synchronize();
  EXPECT_EQ(seen.load(), 42);
}

TEST(VStreamTest, StatsCountLaunchesAndMicroKernels) {
  VDevice dev;
  VStream stream(&dev);
  stream.Launch(Kernel("fat", [] {}, /*micro=*/15));
  stream.Launch(Kernel("thin", [] {}, /*micro=*/1));
  stream.LaunchHostFunc([] {});
  stream.MemcpyAsync([] {}, 1024, MemcpyDir::kHostToDevice);
  stream.Synchronize();
  EXPECT_EQ(dev.stats().logical_launches.load(), 2);
  EXPECT_EQ(dev.stats().micro_launches.load(), 16);
  EXPECT_EQ(dev.stats().host_funcs.load(), 1);
  EXPECT_EQ(dev.stats().memcpys.load(), 1);
  EXPECT_EQ(dev.stats().memcpy_bytes.load(), 1024);
}

TEST(VStreamTest, LaunchOverheadAccounting) {
  LaunchStats stats;
  stats.micro_launches = 7000;
  // Fig. 4: 7000 launches x 16 us = 112 ms of front-end occupancy per token.
  EXPECT_NEAR(stats.LaunchOverheadSeconds(16.0, 3.0), 0.112, 1e-9);
  stats.micro_launches = 0;
  stats.graph_launches = 1;
  EXPECT_NEAR(stats.LaunchOverheadSeconds(16.0, 3.0), 3e-6, 1e-12);
}

TEST(VGraphTest, CaptureRecordsWithoutExecuting) {
  VDevice dev;
  VStream stream(&dev);
  std::atomic<int> runs{0};
  stream.BeginCapture();
  stream.Launch(Kernel("k1", [&] { runs.fetch_add(1); }));
  stream.LaunchHostFunc([&] { runs.fetch_add(10); });
  stream.Launch(Kernel("k2", [&] { runs.fetch_add(1); }));
  VGraph graph = stream.EndCapture();
  EXPECT_EQ(runs.load(), 0);  // nothing executed during capture
  EXPECT_EQ(graph.num_nodes(), 3u);
  EXPECT_EQ(dev.stats().logical_launches.load(), 0);
}

TEST(VGraphTest, ReplayExecutesAllNodesWithOneGraphLaunch) {
  VDevice dev;
  VStream stream(&dev);
  std::atomic<int> runs{0};
  stream.BeginCapture();
  for (int i = 0; i < 5; ++i) {
    stream.Launch(Kernel("k", [&] { runs.fetch_add(1); }));
  }
  VGraph graph = stream.EndCapture();

  graph.Launch(&stream);
  graph.Launch(&stream);
  stream.Synchronize();
  EXPECT_EQ(runs.load(), 10);
  EXPECT_EQ(dev.stats().graph_launches.load(), 2);
  EXPECT_EQ(dev.stats().graph_replayed_nodes.load(), 10);
  // Replayed kernels do not pay per-launch overhead.
  EXPECT_EQ(dev.stats().micro_launches.load(), 0);
}

TEST(VGraphTest, HostFuncsInsideGraphRunInOrder) {
  // The paper's trick: submit/sync callbacks captured inside the graph keep
  // the whole decode step in one launch.
  VDevice dev;
  VStream stream(&dev);
  std::vector<int> order;
  std::mutex mu;
  auto push = [&](int v) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(v);
  };
  stream.BeginCapture();
  stream.Launch(Kernel("gating", [&, push] { push(0); }));
  stream.LaunchHostFunc([&, push] { push(1); });  // submit to CPU
  stream.Launch(Kernel("shared_expert", [&, push] { push(2); }));
  stream.LaunchHostFunc([&, push] { push(3); });  // sync with CPU
  stream.Launch(Kernel("attention", [&, push] { push(4); }));
  VGraph graph = stream.EndCapture();
  graph.Launch(&stream);
  stream.Synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(VGraphTest, MemcpyNodesReplay) {
  VDevice dev;
  VStream stream(&dev);
  int dst = 0;
  int src = 9;
  stream.BeginCapture();
  stream.MemcpyAsync([&] { dst = src; }, sizeof(int), MemcpyDir::kHostToDevice);
  VGraph graph = stream.EndCapture();
  graph.Launch(&stream);
  stream.Synchronize();
  EXPECT_EQ(dst, 9);
  EXPECT_EQ(dev.stats().memcpys.load(), 1);
}


TEST(TraceTest, RecordsExecutedOpsWithMonotoneTimestamps) {
  VDevice::Options opts;
  opts.record_trace = true;
  VDevice dev(opts);
  VStream stream(&dev);
  stream.Launch(Kernel("alpha", [] {}));
  stream.LaunchHostFunc([] {});
  stream.MemcpyAsync([] {}, 64, MemcpyDir::kHostToDevice);
  stream.BeginCapture();
  stream.Launch(Kernel("inside_graph", [] {}));
  VGraph graph = stream.EndCapture();
  graph.Launch(&stream);
  stream.Synchronize();

  const std::vector<TraceEvent> trace = dev.TakeTrace();
  ASSERT_EQ(trace.size(), 4u);  // kernel, host, memcpy, graph
  EXPECT_EQ(trace[0].name, "alpha");
  EXPECT_EQ(trace[0].kind, 0);
  EXPECT_EQ(trace[1].kind, 1);
  EXPECT_EQ(trace[2].kind, 2);
  EXPECT_EQ(trace[3].name, "graph_replay");
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_LE(trace[i].start_us, trace[i].end_us);
    if (i > 0) {
      EXPECT_GE(trace[i].start_us, trace[i - 1].start_us);
    }
  }
}

TEST(TraceTest, DisabledByDefaultAndJsonWellFormed) {
  VDevice dev;
  VStream stream(&dev);
  stream.Launch(Kernel("k", [] {}));
  stream.Synchronize();
  EXPECT_TRUE(dev.TakeTrace().empty());

  VDevice::Options opts;
  opts.record_trace = true;
  VDevice traced(opts);
  VStream s2(&traced);
  s2.Launch(Kernel("json_me", [] {}));
  s2.Synchronize();
  const std::string json = traced.TraceToChromeJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("json_me"), std::string::npos);
}

TEST(VDeviceFaultTest, UnknownKeyAndCleanDeviceReturnOk) {
  VDevice dev;
  EXPECT_FALSE(dev.has_armed_faults());
  EXPECT_TRUE(dev.TakeFault("session:0").ok());
  EXPECT_TRUE(dev.TakeFault("device").ok());
}

TEST(VDeviceFaultTest, ArmedFaultFiresOnceWithContext) {
  VDevice dev;
  dev.InjectFault("session:3", InternalError("simulated ECC error"));
  EXPECT_TRUE(dev.has_armed_faults());
  EXPECT_TRUE(dev.TakeFault("session:1").ok());  // other keys unaffected

  const Status hit = dev.TakeFault("session:3");
  ASSERT_FALSE(hit.ok());
  EXPECT_EQ(hit.code(), StatusCode::kInternal);
  EXPECT_EQ(hit.message(), "simulated ECC error");
  ASSERT_EQ(hit.context().size(), 1u);
  EXPECT_NE(hit.context()[0].find("session:3"), std::string::npos);

  // Consumed: the plan disarms after firing.
  EXPECT_TRUE(dev.TakeFault("session:3").ok());
  EXPECT_FALSE(dev.has_armed_faults());
}

TEST(VDeviceFaultTest, AfterPollsCountsDownBeforeFiring) {
  VDevice dev;
  dev.InjectFault("device", ResourceExhaustedError("vram gone"), /*after_polls=*/2);
  EXPECT_TRUE(dev.TakeFault("device").ok());  // poll 1
  EXPECT_TRUE(dev.TakeFault("device").ok());  // poll 2
  const Status hit = dev.TakeFault("device");  // poll 3 fires
  ASSERT_FALSE(hit.ok());
  EXPECT_EQ(hit.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(dev.TakeFault("device").ok());
}

TEST(VDeviceFaultTest, RearmingReplacesThePriorPlan) {
  VDevice dev;
  dev.InjectFault("device", InternalError("first"), /*after_polls=*/5);
  dev.InjectFault("device", InternalError("second"));
  const Status hit = dev.TakeFault("device");
  ASSERT_FALSE(hit.ok());
  EXPECT_EQ(hit.message(), "second");
}

TEST(VGraphDeathTest, SynchronizeDuringCaptureAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        VDevice dev;
        VStream stream(&dev);
        stream.BeginCapture();
        stream.Synchronize();
      },
      "capture");
}

}  // namespace
}  // namespace ktx
