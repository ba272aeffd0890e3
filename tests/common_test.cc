#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <thread>
#include <vector>

#include "src/common/align.h"
#include "src/common/histogram.h"
#include "src/common/metrics.h"
#include "src/common/queues.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "tests/run_once_per_thread.h"

namespace ktx {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad k");
}

TEST(StatusTest, CopyIsCheap) {
  Status a = InternalError("x");
  Status b = a;  // shared rep
  EXPECT_EQ(a, b);
}

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) {
    return InvalidArgumentError("not positive");
  }
  return v;
}

TEST(StatusOrTest, ValueAndError) {
  auto good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 5);
  auto bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

Status ChainWithMacros(int v, int* out) {
  KTX_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  *out = parsed * 2;
  return OkStatus();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(ChainWithMacros(4, &out).ok());
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(ChainWithMacros(0, &out).ok());
}

TEST(AlignTest, AlignUp) {
  EXPECT_EQ(AlignUp(0, 64), 0u);
  EXPECT_EQ(AlignUp(1, 64), 64u);
  EXPECT_EQ(AlignUp(64, 64), 64u);
  EXPECT_EQ(AlignUp(65, 64), 128u);
}

TEST(AlignTest, BufferIsCacheLineAlignedAndZeroed) {
  AlignedBuffer buf(1000);
  ASSERT_NE(buf.data(), nullptr);
  EXPECT_TRUE(IsAligned(buf.data(), kCacheLineBytes));
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(static_cast<int>(buf.data()[i]), 0);
  }
}

TEST(AlignTest, MoveTransfersOwnership) {
  AlignedBuffer a(128);
  std::byte* p = a.data();
  AlignedBuffer b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
}

TEST(AlignTest, ZeroPagesReadZeroAndCommitOnFirstWrite) {
  EXPECT_TRUE(AlignedBuffer::ZeroPages(0).empty());

  const std::size_t page = PageBytes();
  AlignedBuffer buf = AlignedBuffer::ZeroPages(3 * page + 100);
  ASSERT_NE(buf.data(), nullptr);
  EXPECT_EQ(buf.size(), 3 * page + 100);
  EXPECT_TRUE(IsAligned(buf.data(), kCacheLineBytes));
  EXPECT_TRUE(IsAligned(buf.data(), page));
  // Nothing is committed until a page is written, then exactly that page.
  EXPECT_EQ(ResidentPages(buf.data(), buf.size()), 0u);
  buf.data()[page + 5] = std::byte{7};
  EXPECT_EQ(ResidentPages(buf.data(), buf.size()), 1u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    ASSERT_EQ(static_cast<int>(buf.data()[i]), i == page + 5 ? 7 : 0) << i;
  }
}

TEST(AlignTest, ZeroPagesSurviveMoveMoveAssignAndDestroy) {
  AlignedBuffer a = AlignedBuffer::ZeroPages(5000);
  a.as<int>()[1000] = 42;
  std::byte* p = a.data();

  AlignedBuffer b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.size(), 5000u);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)

  // Move-assignment releases the target's mapping and takes the source's.
  AlignedBuffer c = AlignedBuffer::ZeroPages(100);
  c = std::move(b);
  EXPECT_EQ(c.data(), p);
  EXPECT_EQ(c.as<int>()[1000], 42);

  // Across kinds: a heap buffer takes the mapping, a mapped one the heap
  // block; each is released the way it was allocated.
  AlignedBuffer heap(64);
  heap = std::move(c);
  EXPECT_EQ(heap.data(), p);
  EXPECT_EQ(heap.as<int>()[1000], 42);
  AlignedBuffer mapped = AlignedBuffer::ZeroPages(64);
  mapped = AlignedBuffer(256);
  EXPECT_EQ(mapped.size(), 256u);
}

TEST(AlignDeathTest, ZeroPagesOverrunFaultsOnTheGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  AlignedBuffer buf = AlignedBuffer::ZeroPages(100);
  volatile std::byte* end = buf.data() + AlignUp(buf.size(), PageBytes());
  end[-1] = std::byte{1};  // the last byte of the page-rounded size is usable
  EXPECT_DEATH(end[0] = std::byte{1}, "");
}

TEST(SpscQueueTest, FifoOrder) {
  SpscQueue<int> q(8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(q.TryPush(i));
  }
  for (int i = 0; i < 8; ++i) {
    auto v = q.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(SpscQueueTest, FullQueueRejectsPush) {
  // Capacity rounds up to a power of two; fill until rejection, then drain in
  // FIFO order and verify a slot opens back up.
  SpscQueue<int> q(2);
  int pushed = 0;
  while (q.TryPush(pushed)) {
    ++pushed;
  }
  EXPECT_GE(pushed, 2);
  EXPECT_FALSE(q.TryPush(99));
  EXPECT_EQ(*q.TryPop(), 0);
  EXPECT_TRUE(q.TryPush(99));
}

TEST(SpscQueueTest, ProducerConsumerThreads) {
  SpscQueue<int> q(64);
  constexpr int kItems = 20000;
  std::thread producer([&] {
    for (int i = 0; i < kItems;) {
      if (q.TryPush(i)) {
        ++i;
      }
    }
  });
  long long sum = 0;
  int received = 0;
  while (received < kItems) {
    if (auto v = q.TryPop()) {
      sum += *v;
      ++received;
    }
  }
  producer.join();
  EXPECT_EQ(sum, static_cast<long long>(kItems) * (kItems - 1) / 2);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

// Threads of this process, counted from /proc/self/task.
std::size_t ProcessThreadCount() {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(ThreadPoolTest, APoolOfOneStartsNoThread) {
  const std::size_t before = ProcessThreadCount();
  {
    ThreadPool pool(1);
    EXPECT_EQ(ProcessThreadCount(), before);
    EXPECT_EQ(pool.num_threads(), 1u);
    EXPECT_EQ(pool.CurrentSlot(), -1);
    std::atomic<int> counter{0};
    pool.ParallelFor(16, [&](std::size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), 16);
  }
  {
    ThreadPool pool(2);
    EXPECT_EQ(ProcessThreadCount(), before + 2);
    EXPECT_EQ(pool.num_threads(), 2u);
  }
}

TEST(ThreadPoolTest, PinnedWorkersTakeOneCpuEachFromTheMask) {
  cpu_set_t process_mask;
  CPU_ZERO(&process_mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof(process_mask), &process_mask), 0);
  const std::size_t cpus = AffinityCpuCount();
  EXPECT_EQ(cpus, static_cast<std::size_t>(CPU_COUNT(&process_mask)));
  // A pool of one runs every ParallelRun inline on the caller, so take at
  // least two workers (on one CPU both pin to it).
  ThreadPool pool(std::max<std::size_t>(cpus, 2), /*pin_workers=*/true);
  std::vector<cpu_set_t> masks(pool.num_threads());
  RunOncePerThread(pool, [&masks](int slot) {
    if (slot >= 0) {
      cpu_set_t& mask = masks[static_cast<std::size_t>(slot)];
      CPU_ZERO(&mask);
      pthread_getaffinity_np(pthread_self(), sizeof(mask), &mask);
    }
  });
  cpu_set_t covered;
  CPU_ZERO(&covered);
  for (const cpu_set_t& mask : masks) {
    EXPECT_EQ(CPU_COUNT(&mask), 1);
    CPU_OR(&covered, &covered, &mask);
  }
  EXPECT_TRUE(CPU_EQUAL(&covered, &process_mask)) << "workers do not cover the mask";
}

TEST(ThreadPoolTest, FaultLatchIsStickyUntilTaken) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.has_fault());
  EXPECT_TRUE(pool.TakeFault().ok());

  pool.InjectFault(InternalError("worker crashed"));
  EXPECT_TRUE(pool.has_fault());
  // The pool keeps executing work while the latch is set — a fault is a
  // signal to the recoverable boundary, not a poison pill for the pool.
  std::atomic<int> counter{0};
  pool.ParallelFor(32, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 32);

  const Status fault = pool.TakeFault();
  ASSERT_FALSE(fault.ok());
  EXPECT_EQ(fault.code(), StatusCode::kInternal);
  EXPECT_EQ(fault.message(), "worker crashed");
  ASSERT_FALSE(fault.context().empty());
  EXPECT_EQ(fault.context()[0], "thread pool fault");

  // Taking clears the latch.
  EXPECT_FALSE(pool.has_fault());
  EXPECT_TRUE(pool.TakeFault().ok());
}

TEST(RngTest, DeterministicStreams) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, SplitProducesIndependentStreams) {
  Rng base(7);
  Rng s1 = base.Split(1);
  Rng s2 = base.Split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += s1.NextU64() == s2.NextU64() ? 1 : 0;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(123);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

TEST(RngTest, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(LatencyHistogramTest, EmptyHistogramReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(50.0), 0.0);
  EXPECT_EQ(h.min_seconds(), 0.0);
  EXPECT_EQ(h.max_seconds(), 0.0);
  EXPECT_EQ(h.mean_seconds(), 0.0);
}

TEST(LatencyHistogramTest, SingleSampleIsEveryPercentile) {
  LatencyHistogram h;
  h.Record(0.125);
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 0.125);
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 0.125);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 0.125);
  EXPECT_DOUBLE_EQ(h.min_seconds(), 0.125);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 0.125);
}

TEST(LatencyHistogramTest, PercentilesAreMonotoneAndBucketAccurate) {
  // 1000 samples spread over three decades: percentile estimates must be
  // monotone in p and land within the ~9% bucket resolution of the exact
  // order statistics.
  LatencyHistogram h;
  std::vector<double> exact;
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = std::exp2(rng.Uniform(-10.0, 0.0));  // ~1 ms .. 1 s
    h.Record(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());
  double prev = 0.0;
  for (const double p : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    const double estimate = h.Percentile(p);
    EXPECT_GE(estimate, prev) << "p" << p;
    prev = estimate;
    const std::size_t rank = static_cast<std::size_t>(p / 100.0 * (exact.size() - 1));
    EXPECT_NEAR(estimate, exact[rank], exact[rank] * 0.25) << "p" << p;
  }
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), exact.back());
}

TEST(LatencyHistogramTest, TailSeparationSurvivesBucketing) {
  // The serving bench's shape: many fast decode gaps plus a few huge stall
  // gaps. p50 must stay at the fast mode while p99 reports the stalls —
  // a 100x true separation must not collapse below ~10x through bucketing.
  LatencyHistogram h;
  for (int i = 0; i < 195; ++i) {
    h.Record(1e-3);
  }
  for (int i = 0; i < 5; ++i) {
    h.Record(1e-1);
  }
  EXPECT_LT(h.Percentile(50.0), 2e-3);
  EXPECT_GT(h.Percentile(99.0), 5e-2);
  EXPECT_GT(h.Percentile(99.0) / h.Percentile(50.0), 10.0);
}

TEST(LatencyHistogramTest, OutOfRangeAndResetBehave) {
  LatencyHistogram h;
  h.Record(0.0);    // clamps to the bottom bucket
  h.Record(-1.0);   // non-positive: also bottom bucket, exact min tracked
  h.Record(1e9);    // beyond the top bucket: clamped, exact max tracked
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.min_seconds(), -1.0);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 1e9);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 1e9);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(99.0), 0.0);
}

TEST(LatencyHistogramTest, MergeMatchesRecordingIntoOne) {
  // Splitting a sample stream across two histograms and merging must be
  // indistinguishable from recording everything into one: buckets share a
  // static layout, so Merge is exact, not an approximation.
  LatencyHistogram merged;
  LatencyHistogram a;
  LatencyHistogram b;
  Rng rng(21);
  for (int i = 0; i < 2000; ++i) {
    const double v = std::exp2(rng.Uniform(-12.0, 2.0));
    merged.Record(v);
    (i % 3 == 0 ? a : b).Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), merged.count());
  // Summation order differs between the two streams; allow rounding slop.
  EXPECT_NEAR(a.sum_seconds(), merged.sum_seconds(), 1e-9 * merged.sum_seconds());
  EXPECT_DOUBLE_EQ(a.min_seconds(), merged.min_seconds());
  EXPECT_DOUBLE_EQ(a.max_seconds(), merged.max_seconds());
  for (const double p : {1.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), merged.Percentile(p)) << "p" << p;
  }
}

TEST(LatencyHistogramTest, MergePropagatesExactMinMax) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(0.5);
  b.Record(1e-4);  // other's min below ours
  b.Record(7.0);   // other's max above ours
  a.Merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_DOUBLE_EQ(a.min_seconds(), 1e-4);
  EXPECT_DOUBLE_EQ(a.max_seconds(), 7.0);
  EXPECT_DOUBLE_EQ(a.Percentile(100.0), 7.0);
  EXPECT_DOUBLE_EQ(a.Percentile(0.0), 1e-4);
}

TEST(LatencyHistogramTest, MergeWithEmptyIsIdentityBothWays) {
  LatencyHistogram filled;
  filled.Record(0.25);
  filled.Record(0.75);

  LatencyHistogram empty;
  filled.Merge(empty);  // merging empty in changes nothing
  EXPECT_EQ(filled.count(), 2);
  EXPECT_DOUBLE_EQ(filled.min_seconds(), 0.25);
  EXPECT_DOUBLE_EQ(filled.max_seconds(), 0.75);

  LatencyHistogram target;
  target.Merge(filled);  // merging into empty adopts min/max wholesale
  EXPECT_EQ(target.count(), 2);
  EXPECT_DOUBLE_EQ(target.min_seconds(), 0.25);
  EXPECT_DOUBLE_EQ(target.max_seconds(), 0.75);
  EXPECT_DOUBLE_EQ(target.mean_seconds(), 0.5);
}

TEST(JsonWriterTest, ProducesWellFormedNestedJson) {
  JsonWriter w;
  w.BeginObject();
  w.Field("name", "ktx");
  w.Field("count", std::int64_t{42});
  w.Field("ratio", 0.5);
  w.Field("ok", true);
  w.Key("nested");
  w.BeginObject();
  w.Key("list");
  w.BeginArray();
  w.Int(1);
  w.Int(2);
  w.EndArray();
  w.EndObject();
  w.Key("nan_becomes_null");
  w.Double(std::nan(""));
  w.Key("escaped");
  w.String("a\"b\\c\n");
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"ktx\",\"count\":42,\"ratio\":0.5,\"ok\":true,"
            "\"nested\":{\"list\":[1,2]},\"nan_becomes_null\":null,"
            "\"escaped\":\"a\\\"b\\\\c\\n\"}");
}

TEST(MetricsRegistryTest, CountersGaugesHistogramsRoundTrip) {
  MetricsRegistry reg;
  reg.GetCounter("serving.requests_total")->Add(3);
  reg.GetCounter("serving.requests_total")->Increment();  // same instance
  reg.GetGauge("kv.utilization")->Set(0.75);
  reg.GetHistogram("serving.ttft_seconds")->Record(0.125);

  EXPECT_EQ(reg.GetCounter("serving.requests_total")->value(), 4);
  EXPECT_DOUBLE_EQ(reg.GetGauge("kv.utilization")->value(), 0.75);
  EXPECT_EQ(reg.GetHistogram("serving.ttft_seconds")->Snapshot().count(), 1);

  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"serving.requests_total\":4"), std::string::npos);
  EXPECT_NE(json.find("\"kv.utilization\":0.75"), std::string::npos);
  EXPECT_NE(json.find("\"serving.ttft_seconds\""), std::string::npos);

  const std::string prom = reg.ToPrometheusText();
  EXPECT_NE(prom.find("ktx_serving_requests_total 4"), std::string::npos);
  EXPECT_NE(prom.find("ktx_kv_utilization 0.75"), std::string::npos);
  EXPECT_NE(prom.find("ktx_serving_ttft_seconds_count 1"), std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.95\""), std::string::npos);
}

}  // namespace
}  // namespace ktx
