#include <gtest/gtest.h>

#include <atomic>
#include <string_view>
#include <vector>

#include "src/common/trace.h"
#include "src/gpu/vcuda.h"

namespace ktx {
namespace {

KernelDesc Kernel(const char* name, std::function<void()> fn) {
  KernelDesc k;
  k.name = name;
  k.fn = std::move(fn);
  return k;
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

TEST(VStreamTest, StatsCountLaunchesAndHostFuncs) {
  VDevice dev;
  VStream stream(&dev);
  stream.Launch(Kernel("a", [] {}));
  stream.Launch(Kernel("b", [] {}));
  stream.LaunchHostFunc([] {});
  stream.Synchronize();
  EXPECT_EQ(dev.stats().logical_launches.load(), 2);
  EXPECT_EQ(dev.stats().host_funcs.load(), 1);
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
  EXPECT_EQ(dev.stats().logical_launches.load(), 0);
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


// --- vgpu spans on the shared trace recorder ----------------------------------

class VgpuTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::SetEnabled(false);
    trace::Clear();
  }
  void TearDown() override {
    trace::SetEnabled(false);
    trace::Clear();
  }

  // The "vgpu" spans recorded so far, in recording order (one stream worker
  // records them all, so ring order is execution order).
  static std::vector<trace::SnapshotEvent> VgpuSpans() {
    std::vector<trace::SnapshotEvent> spans;
    for (const trace::SnapshotEvent& e : trace::TakeSnapshot().events) {
      if (e.phase == trace::Phase::kComplete && std::string_view(e.cat) == "vgpu") {
        spans.push_back(e);
      }
    }
    return spans;
  }

  // The trace tid of `stream`'s worker thread.
  static int WorkerTid(VStream* stream) {
    std::atomic<int> tid{-1};
    stream->LaunchHostFunc([&] { tid = trace::CurrentThreadIndex(); });
    stream->Synchronize();
    return tid.load();
  }
};

constexpr const char* kAlpha = "alpha";

TEST_F(VgpuTraceTest, OneSpanPerExecutedKernelAndHostFunc) {
  VDevice dev;
  VStream stream(&dev);
  const int worker = WorkerTid(&stream);
  trace::SetEnabled(true);
  KernelDesc alpha = Kernel(kAlpha, [] {});
  alpha.layer = 3;
  stream.Launch(std::move(alpha));
  stream.LaunchHostFunc([] {});
  stream.Synchronize();
  trace::SetEnabled(false);

  const std::vector<trace::SnapshotEvent> spans = VgpuSpans();
  ASSERT_EQ(spans.size(), 2u);
  // Names are the launch sites' literals, not copies.
  EXPECT_EQ(spans[0].name, kAlpha);
  EXPECT_STREQ(spans[1].name, "host_func");
  EXPECT_STREQ(spans[0].arg_name, "layer");
  EXPECT_EQ(spans[0].arg_value, 3);
  EXPECT_STREQ(spans[1].arg_name, "layer");
  EXPECT_EQ(spans[1].arg_value, -1);
  EXPECT_NE(worker, trace::CurrentThreadIndex());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].tid, worker) << i;
    EXPECT_GE(spans[i].dur_ns, 0) << i;
    if (i > 0) {
      EXPECT_GE(spans[i].ts_ns, spans[i - 1].ts_ns + spans[i - 1].dur_ns) << i;
    }
  }
}

TEST_F(VgpuTraceTest, ReplayedGraphEmitsEveryNodeInsideOneReplaySpan) {
  VDevice dev;
  VStream stream(&dev);
  const int worker = WorkerTid(&stream);
  trace::SetEnabled(true);
  stream.BeginCapture();
  for (int layer = 0; layer < 3; ++layer) {
    KernelDesc k = Kernel("attention", [] {});
    k.layer = layer;
    stream.Launch(std::move(k));
    stream.LaunchHostFunc([] {});
  }
  const VGraph graph = stream.EndCapture();
  EXPECT_TRUE(VgpuSpans().empty());  // capture records, it does not execute
  constexpr int kReplays = 2;
  for (int r = 0; r < kReplays; ++r) {
    graph.Launch(&stream);
  }
  stream.Synchronize();
  trace::SetEnabled(false);

  const std::vector<trace::SnapshotEvent> spans = VgpuSpans();
  const std::size_t per_replay = graph.num_nodes() + 1;
  ASSERT_EQ(graph.num_nodes(), 6u);
  ASSERT_EQ(spans.size(), kReplays * per_replay);
  for (int r = 0; r < kReplays; ++r) {
    // The replay span ends after its nodes, so it is recorded last.
    const trace::SnapshotEvent& replay = spans[(r + 1) * per_replay - 1];
    EXPECT_STREQ(replay.name, "graph_replay");
    EXPECT_STREQ(replay.arg_name, "nodes");
    EXPECT_EQ(replay.arg_value, static_cast<std::int64_t>(graph.num_nodes()));
    EXPECT_EQ(replay.tid, worker);
    for (std::size_t n = 0; n < graph.num_nodes(); ++n) {
      const trace::SnapshotEvent& node = spans[r * per_replay + n];
      EXPECT_EQ(node.tid, worker);
      EXPECT_GE(node.ts_ns, replay.ts_ns) << n;
      EXPECT_LE(node.ts_ns + node.dur_ns, replay.ts_ns + replay.dur_ns) << n;
      if (n > 0) {
        EXPECT_GE(node.ts_ns, spans[r * per_replay + n - 1].ts_ns) << n;
      }
      if (n % 2 == 0) {
        EXPECT_STREQ(node.name, "attention");
        EXPECT_EQ(node.arg_value, static_cast<std::int64_t>(n / 2));
      } else {
        EXPECT_STREQ(node.name, "host_func");
        EXPECT_EQ(node.arg_value, -1);
      }
    }
  }
}

TEST_F(VgpuTraceTest, NothingRecordedWhileTracingIsDisabled) {
  VDevice dev;
  VStream stream(&dev);
  stream.Launch(Kernel("k", [] {}));
  stream.LaunchHostFunc([] {});
  stream.BeginCapture();
  stream.Launch(Kernel("inside_graph", [] {}));
  const VGraph graph = stream.EndCapture();
  graph.Launch(&stream);
  stream.Synchronize();
  EXPECT_TRUE(trace::TakeSnapshot().events.empty());
  // The ops still ran and were counted.
  EXPECT_EQ(dev.stats().logical_launches.load(), 1);
  EXPECT_EQ(dev.stats().graph_replayed_nodes.load(), 1);
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
