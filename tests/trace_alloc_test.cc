// Allocation-regression test for the trace recorder.
//
// The tracer sits on the decode hot path (engine sweeps, MoE dispatch, KV
// bookkeeping all emit through it), so it carries the same contract as the
// MoE workspace: after a thread's ring exists, emission performs ZERO heap
// allocations — disabled emission is one relaxed atomic load and branch,
// enabled emission writes into the preallocated ring. The only allocating
// operation is the very first emission on a thread (ring acquisition), which
// the test performs outside the measured window.
//
// Same single-purpose-binary caveat as moe_alloc_test: replacing global
// operator new affects every TU linked in, so this file gets its own binary.

// gcc cannot see that the replacement operator new below obtains memory from
// malloc, so pairing it with free trips -Wmismatched-new-delete at every
// inlined call site (including inside gtest headers). The pairing is correct
// by construction here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string_view>
#include <vector>

#include "src/common/trace.h"
#include "src/core/async_service.h"

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::int64_t> g_alloc_events{0};

void NoteAlloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_events.fetch_add(1, std::memory_order_relaxed);
  }
}

void* MallocOrNull(std::size_t size) {
  void* p = std::malloc(size ? size : 1);
  if (p != nullptr) {
    NoteAlloc();
  }
  return p;
}

void* AlignedOrNull(std::size_t size, std::size_t alignment) {
  if (alignment < sizeof(void*)) {
    alignment = sizeof(void*);
  }
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size ? size : alignment) != 0) {
    return nullptr;
  }
  NoteAlloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = MallocOrNull(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return MallocOrNull(size); }

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return MallocOrNull(size);
}

void* operator new(std::size_t size, std::align_val_t al) {
  void* p = AlignedOrNull(size, static_cast<std::size_t>(al));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t al) { return ::operator new(size, al); }

void* operator new(std::size_t size, std::align_val_t al, const std::nothrow_t&) noexcept {
  return AlignedOrNull(size, static_cast<std::size_t>(al));
}

void* operator new[](std::size_t size, std::align_val_t al, const std::nothrow_t&) noexcept {
  return AlignedOrNull(size, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ktx {
namespace {

TEST(TraceAllocTest, CounterInterceptsOrdinaryAllocations) {
  // Sanity canary: if the replaced operator new ever stops being linked in,
  // the zero-allocation assertions below would pass vacuously.
  g_alloc_events.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_seq_cst);
  auto* v = new std::vector<int>(128);
  g_count_allocs.store(false, std::memory_order_seq_cst);
  delete v;
  EXPECT_GT(g_alloc_events.load(), 0);
}

TEST(TraceAllocTest, DisabledEmissionIsAllocationFree) {
  trace::SetEnabled(false);

  g_alloc_events.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_seq_cst);
  for (int i = 0; i < 1000; ++i) {
    KTX_TRACE_SPAN_ARG("alloc", "span", "i", i);
    KTX_TRACE_INSTANT("alloc", "instant");
    KTX_TRACE_COUNTER("alloc", "counter", i);
    trace::EmitAsyncBegin("alloc", "async", static_cast<std::uint64_t>(i));
    trace::EmitAsyncEnd("alloc", "async", static_cast<std::uint64_t>(i));
  }
  g_count_allocs.store(false, std::memory_order_seq_cst);

  EXPECT_EQ(g_alloc_events.load(), 0)
      << "disabled trace emission performed heap allocations";
}

TEST(TraceAllocTest, EnabledSteadyStateEmissionIsAllocationFree) {
  trace::SetEnabled(true);
  trace::Clear();

  // Warm up: the first emission on this thread acquires its ring (the one
  // sanctioned allocation). Naming the thread also touches only the fixed
  // static name table.
  trace::SetCurrentThreadName("trace_alloc_test");
  KTX_TRACE_INSTANT("alloc", "warmup");

  g_alloc_events.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_seq_cst);
  for (int i = 0; i < 20000; ++i) {  // wraps the 8192-slot ring repeatedly
    KTX_TRACE_SPAN_ARG("alloc", "span", "i", i);
    KTX_TRACE_INSTANT_ARG("alloc", "instant", "i", i);
    KTX_TRACE_COUNTER("alloc", "counter", i);
    trace::EmitAsyncBegin("alloc", "async", static_cast<std::uint64_t>(i), "k", i);
    trace::EmitAsyncEndStr("alloc", "async", static_cast<std::uint64_t>(i), "k", i, "done");
  }
  g_count_allocs.store(false, std::memory_order_seq_cst);

  EXPECT_EQ(g_alloc_events.load(), 0)
      << "steady-state enabled trace emission performed heap allocations";

  // The ring really recorded the tail of that storm.
  trace::SetEnabled(false);
  const trace::Snapshot snap = trace::TakeSnapshot();
  EXPECT_GT(snap.events.size(), 0u);
  EXPECT_GT(snap.dropped, 0);
  trace::Clear();
}

TEST(TraceAllocTest, MoeSyncWaitSpanIsAllocationFree) {
  // The engine's sync host func wraps every immediate request's wait in a
  // moe/sync_wait span; it runs once per MoE layer per decode step.
  trace::SetEnabled(true);
  trace::Clear();
  MoeRequest request;
  request.done.store(true);
  request.SyncWait(0);  // warm up this thread's ring

  g_alloc_events.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_seq_cst);
  for (int i = 0; i < 1000; ++i) {
    request.SyncWait(i % 7);
  }
  g_count_allocs.store(false, std::memory_order_seq_cst);
  EXPECT_EQ(g_alloc_events.load(), 0) << "moe/sync_wait emission performed heap allocations";

  trace::SetEnabled(false);
  const trace::Snapshot snap = trace::TakeSnapshot();
  int spans = 0;
  for (const trace::SnapshotEvent& e : snap.events) {
    if (e.phase == trace::Phase::kComplete && std::string_view(e.cat) == "moe" &&
        std::string_view(e.name) == "sync_wait") {
      EXPECT_STREQ(e.arg_name, "layer");
      ++spans;
    }
  }
  EXPECT_EQ(spans, 1001);
  trace::Clear();
}

}  // namespace
}  // namespace ktx
