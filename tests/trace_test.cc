// Tracer behavior: ring-buffer wraparound, span/instant/counter/async
// encoding, enable/disable semantics, Chrome JSON export shape, and
// TSan-clean concurrent emission from ThreadPool workers while an exporter
// snapshots mid-run.

#include "src/common/trace.h"

#include <atomic>
#include <cstring>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/common/thread_pool.h"

namespace ktx {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::SetEnabled(false);
    trace::Clear();
  }
  void TearDown() override {
    trace::SetEnabled(false);
    trace::Clear();
  }
};

int CountNamed(const trace::Snapshot& snap, const char* name) {
  int n = 0;
  for (const auto& ev : snap.events) {
    if (ev.name != nullptr && std::strcmp(ev.name, name) == 0) {
      ++n;
    }
  }
  return n;
}

TEST_F(TraceTest, DisabledEmitsNothing) {
  trace::SetEnabled(false);
  KTX_TRACE_INSTANT("t", "dropped");
  { KTX_TRACE_SPAN("t", "dropped_span"); }
  KTX_TRACE_COUNTER("t", "dropped_counter", 7);
  const trace::Snapshot snap = trace::TakeSnapshot();
  EXPECT_EQ(snap.events.size(), 0u);
}

TEST_F(TraceTest, SpanInstantCounterAndAsyncRoundTrip) {
  trace::SetEnabled(true);
  { KTX_TRACE_SPAN_ARG("cat", "span", "n", 42); }
  KTX_TRACE_INSTANT_ARG("cat", "instant", "k", 7);
  KTX_TRACE_COUNTER("cat", "track", 19);
  trace::EmitAsyncBegin("req", "lifecycle", 5, "prompt", 3);
  trace::EmitAsyncEndStr("req", "lifecycle", 5, "slack_us", -10, "eos");
  const trace::Snapshot snap = trace::TakeSnapshot();
  ASSERT_EQ(snap.events.size(), 5u);
  EXPECT_EQ(snap.dropped, 0);

  const trace::SnapshotEvent& span = snap.events[0];
  EXPECT_EQ(span.phase, trace::Phase::kComplete);
  EXPECT_STREQ(span.name, "span");
  EXPECT_STREQ(span.cat, "cat");
  EXPECT_STREQ(span.arg_name, "n");
  EXPECT_EQ(span.arg_value, 42);
  EXPECT_GE(span.dur_ns, 0);

  EXPECT_EQ(snap.events[1].phase, trace::Phase::kInstant);
  EXPECT_EQ(snap.events[1].arg_value, 7);
  EXPECT_EQ(snap.events[2].phase, trace::Phase::kCounter);
  EXPECT_EQ(snap.events[2].arg_value, 19);

  const trace::SnapshotEvent& ab = snap.events[3];
  EXPECT_EQ(ab.phase, trace::Phase::kAsyncBegin);
  EXPECT_EQ(ab.id, 5u);
  const trace::SnapshotEvent& ae = snap.events[4];
  EXPECT_EQ(ae.phase, trace::Phase::kAsyncEnd);
  EXPECT_EQ(ae.arg_value, -10);
  EXPECT_STREQ(ae.arg_str, "eos");
  // Timestamps are monotone within one thread.
  EXPECT_LE(ab.ts_ns, ae.ts_ns);
}

TEST_F(TraceTest, SpanArmedAtConstructionIgnoresMidSpanToggle) {
  trace::SetEnabled(false);
  {
    KTX_TRACE_SPAN("t", "inert");
    trace::SetEnabled(true);  // too late for this span
  }
  EXPECT_EQ(trace::TakeSnapshot().events.size(), 0u);
}

TEST_F(TraceTest, RingWraparoundKeepsNewestAndCountsDropped) {
  trace::SetEnabled(true);
  // The calling thread's ring was created by an earlier test with the default
  // capacity; emit enough to wrap regardless.
  constexpr int kDefault = 8192;
  constexpr int kTotal = kDefault + 100;
  for (int i = 0; i < kTotal; ++i) {
    KTX_TRACE_INSTANT_ARG("t", "tick", "i", i);
  }
  const trace::Snapshot snap = trace::TakeSnapshot();
  ASSERT_EQ(snap.events.size(), static_cast<std::size_t>(kDefault));
  EXPECT_EQ(snap.dropped, kTotal - kDefault);
  // The survivors are exactly the newest kDefault events, oldest first.
  EXPECT_EQ(snap.events.front().arg_value, kTotal - kDefault);
  EXPECT_EQ(snap.events.back().arg_value, kTotal - 1);
}

TEST_F(TraceTest, ClearDropsEverything) {
  trace::SetEnabled(true);
  KTX_TRACE_INSTANT("t", "gone");
  trace::Clear();
  EXPECT_EQ(trace::TakeSnapshot().events.size(), 0u);
  KTX_TRACE_INSTANT("t", "kept");
  EXPECT_EQ(trace::TakeSnapshot().events.size(), 1u);
}

TEST_F(TraceTest, ChromeJsonIsWellFormedAndCarriesEvents) {
  trace::SetEnabled(true);
  trace::SetCurrentThreadName("trace_test_main");
  { KTX_TRACE_SPAN("engine", "decode_batch"); }
  KTX_TRACE_INSTANT("kv", "cow_copy");
  const std::string json = trace::ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"decode_batch\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("trace_test_main"), std::string::npos);
  // Balanced braces/brackets (JsonWriter guarantees it; belt and braces).
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(TraceTest, ConcurrentEmissionFromPoolWorkersIsComplete) {
  trace::SetEnabled(true);
  constexpr int kPerIndex = 4;
  constexpr std::size_t kIndices = 512;
  ThreadPool pool(4);
  // Emit from pool workers while a reader thread repeatedly snapshots: the
  // race TSan must bless — single-writer rings, seqlock-guarded export.
  std::atomic<bool> done{false};
  std::atomic<std::int64_t> emitted{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)trace::TakeSnapshot();
    }
  });
  for (int round = 0; round < kPerIndex; ++round) {
    pool.ParallelFor(kIndices, [&](std::size_t i) {
      KTX_TRACE_SPAN_ARG("stress", "unit", "i", static_cast<std::int64_t>(i));
      KTX_TRACE_INSTANT("stress", "mark");
      emitted.fetch_add(2, std::memory_order_relaxed);
    });
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();
  const trace::Snapshot snap = trace::TakeSnapshot();
  // Emissions were spread over >= 1 rings well under capacity: nothing drops.
  EXPECT_EQ(snap.dropped, 0);
  EXPECT_EQ(CountNamed(snap, "unit") + CountNamed(snap, "mark"),
            emitted.load(std::memory_order_relaxed));
  for (const auto& ev : snap.events) {
    if (std::strcmp(ev.name, "unit") == 0) {
      EXPECT_GE(ev.arg_value, 0);
      EXPECT_LT(ev.arg_value, static_cast<std::int64_t>(kIndices));
    }
  }
}

TEST_F(TraceTest, ThreadIndicesAreDenseAndStable) {
  const int mine = trace::CurrentThreadIndex();
  EXPECT_GE(mine, 0);
  EXPECT_EQ(mine, trace::CurrentThreadIndex());
  int other = -1;
  std::thread([&] { other = trace::CurrentThreadIndex(); }).join();
  EXPECT_GE(other, 0);
  EXPECT_NE(other, mine);
}

}  // namespace
}  // namespace ktx
