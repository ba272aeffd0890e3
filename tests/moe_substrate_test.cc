// Tests for the CPU execution substrate introduced for the zero-allocation
// decode hot path: ThreadPool::ParallelRun (generation-tagged lock-free
// cursor) and the chained (cross-phase) MoE schedule — including bit-identity
// of Forward outputs across schedules, thread counts, and workspace reuse.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/cpu/moe_cpu.h"

namespace ktx {
namespace {

// --------------------------- ParallelRun ------------------------------------

struct CountCtx {
  std::atomic<int>* counts;
};

void CountBody(void* ctx, std::size_t begin, std::size_t end) {
  auto* counts = static_cast<CountCtx*>(ctx)->counts;
  for (std::size_t i = begin; i < end; ++i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  }
}

TEST(ParallelRunTest, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u}) {
    for (std::size_t n : {1u, 7u, 64u, 1001u}) {
      for (std::size_t chunk : {1u, 3u, 16u}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> counts(n);
        CountCtx ctx{counts.data()};
        pool.ParallelRun(&CountBody, &ctx, n, chunk);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(counts[i].load(), 1)
              << "threads=" << threads << " n=" << n << " chunk=" << chunk << " i=" << i;
        }
      }
    }
  }
}

TEST(ParallelRunTest, BackToBackRunsReuseTheCursorCleanly) {
  // Many consecutive runs on one pool: exercises generation open/close cycles
  // and straggler workers observing stale generations.
  constexpr int kRuns = 300;
  constexpr std::size_t kN = 257;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(kN);
  CountCtx ctx{counts.data()};
  for (int r = 0; r < kRuns; ++r) {
    pool.ParallelRun(&CountBody, &ctx, kN, /*chunk=*/2);
  }
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), kRuns);
  }
}

struct SlotCtx {
  const ThreadPool* pool;
  std::atomic<int>* bad;
  std::atomic<int>* executed;
};

void SlotBody(void* ctx, std::size_t begin, std::size_t end) {
  auto* c = static_cast<SlotCtx*>(ctx);
  const int slot = c->pool->CurrentSlot();
  // The caller participates (slot -1); workers report stable in-range slots.
  if (slot < -1 || slot >= static_cast<int>(c->pool->num_threads())) {
    c->bad->fetch_add(1);
  }
  c->executed->fetch_add(static_cast<int>(end - begin));
}

TEST(ParallelRunTest, CurrentSlotIdentifiesWorkersAndCaller) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.CurrentSlot(), -1);  // the test thread is not a pool worker
  std::atomic<int> bad{0};
  std::atomic<int> executed{0};
  SlotCtx ctx{&pool, &bad, &executed};
  pool.ParallelRun(&SlotBody, &ctx, 512, /*chunk=*/1);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(executed.load(), 512);
}

// --------------------- Chained MoE schedule stress --------------------------

struct StressFixture {
  std::vector<Tensor> gate;
  std::vector<Tensor> up;
  std::vector<Tensor> down;
  std::shared_ptr<const PackedExperts> packed;
  MoeRouting routing;
  Tensor x;
  std::int64_t tokens = 0;
  std::int64_t hidden = 0;
};

// Unlike the moe_cpu_test fixture this allows the same expert in several slots
// of one token, which exercises duplicate rows within one expert group.
StressFixture MakeStressFixture(int num_experts, std::int64_t hidden, std::int64_t inter,
                                std::int64_t tokens, int top_k, DType dtype,
                                std::uint64_t seed) {
  StressFixture d;
  d.tokens = tokens;
  d.hidden = hidden;
  Rng rng(seed);
  for (int e = 0; e < num_experts; ++e) {
    Rng er = rng.Split(static_cast<std::uint64_t>(e));
    d.gate.push_back(Tensor::Randn({inter, hidden}, er, 0.3f));
    d.up.push_back(Tensor::Randn({inter, hidden}, er, 0.3f));
    d.down.push_back(Tensor::Randn({hidden, inter}, er, 0.3f));
  }
  auto packed = PackedExperts::Pack(d.gate, d.up, d.down, dtype);
  EXPECT_TRUE(packed.ok());
  d.packed = std::make_shared<const PackedExperts>(std::move(*packed));
  d.x = Tensor::Randn({tokens, hidden}, rng, 0.5f);
  d.routing.tokens = tokens;
  d.routing.top_k = top_k;
  for (std::int64_t t = 0; t < tokens * top_k; ++t) {
    d.routing.expert_ids.push_back(
        static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(num_experts))));
    d.routing.weights.push_back(rng.NextFloat() * 0.5f + 0.05f);
  }
  return d;
}

Tensor RunForward(const StressFixture& d, ScheduleKind schedule, std::size_t threads,
                  int slot_begin, int slot_end) {
  ThreadPool pool(threads);
  MoeOptions opts;
  opts.schedule = schedule;
  CpuMoe moe(d.packed, &pool, opts);
  Tensor out({d.tokens, d.hidden}, DType::kF32);
  moe.Forward(d.x.f32(), d.tokens, d.routing, slot_begin, slot_end, out.f32());
  return out;
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return std::memcmp(a.f32(), b.f32(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(MoeChainedStressTest, BitIdenticalAcrossSchedulesThreadsAndSlotWindows) {
  struct Shape {
    int experts;
    std::int64_t hidden, inter, tokens;
    int top_k;
    DType dtype;
  };
  const Shape shapes[] = {
      {4, 32, 32, 1, 1, DType::kBF16},    // minimal decode
      {12, 64, 48, 7, 3, DType::kBF16},   // inter not band-aligned
      {6, 96, 80, 33, 4, DType::kI8},     // crosses a reduce-band boundary
      {16, 64, 64, 40, 2, DType::kBF16},  // more tokens than experts
      // Decode shapes, one token and top-8: one Gate/Up band whose task runs
      // two Down bands inline; and three Gate/Up bands (the unfused chain).
      {16, 128, 48, 1, 8, DType::kBF16},
      {16, 128, 160, 1, 8, DType::kBF16},
  };
  std::uint64_t seed = 1234;
  for (const Shape& s : shapes) {
    auto d = MakeStressFixture(s.experts, s.hidden, s.inter, s.tokens, s.top_k, s.dtype,
                               seed++);
    for (int sb = 0; sb <= 1 && sb < s.top_k; ++sb) {
      const int se = s.top_k;
      // Serial static execution is the baseline ordering.
      Tensor base = RunForward(d, ScheduleKind::kStatic, 1, sb, se);
      for (auto schedule : {ScheduleKind::kStatic, ScheduleKind::kDynamic}) {
        for (std::size_t threads : {1u, 2u, 4u}) {
          Tensor out = RunForward(d, schedule, threads, sb, se);
          EXPECT_TRUE(BitIdentical(base, out))
              << "experts=" << s.experts << " tokens=" << s.tokens
              << " schedule=" << static_cast<int>(schedule) << " threads=" << threads
              << " slots=[" << sb << "," << se << ")";
        }
      }
    }
  }
}

TEST(MoeChainedStressTest, ChainedForwardMatchesReference) {
  auto d = MakeStressFixture(10, 64, 48, 21, 3, DType::kBF16, 99);
  Tensor out = RunForward(d, ScheduleKind::kDynamic, 4, 0, 3);
  Tensor ref({21, 64}, DType::kF32);
  RefMoeForward(d.gate, d.up, d.down, d.x.f32(), 21, d.routing, 0, 3, ref.f32());
  EXPECT_LT(RelativeError(out, ref), 0.03f);
}

TEST(MoeChainedStressTest, WorkspaceReuseAcrossInterleavedShapes) {
  // One CpuMoe serving alternating batch shapes must produce outputs
  // bit-identical to a fresh instance at every step (i.e. reuse leaks no state
  // between calls).
  ThreadPool pool(4);
  MoeOptions opts;  // default: chained dynamic schedule
  const std::int64_t shapes[] = {1, 17, 4, 33, 2, 8, 1};
  std::uint64_t seed = 777;
  // All fixtures share weights via the first fixture's packed table.
  auto first = MakeStressFixture(8, 64, 48, shapes[0], 3, DType::kBF16, seed);
  CpuMoe reused(first.packed, &pool, opts);
  for (std::int64_t tokens : shapes) {
    auto d = MakeStressFixture(8, 64, 48, tokens, 3, DType::kBF16, ++seed);
    d.packed = first.packed;  // same weights, different routing/inputs
    Tensor out_reused({tokens, 64}, DType::kF32);
    reused.Forward(d.x.f32(), tokens, d.routing, 0, 3, out_reused.f32());
    CpuMoe fresh(first.packed, &pool, opts);
    Tensor out_fresh({tokens, 64}, DType::kF32);
    fresh.Forward(d.x.f32(), tokens, d.routing, 0, 3, out_fresh.f32());
    EXPECT_TRUE(BitIdentical(out_reused, out_fresh)) << "tokens=" << tokens;
  }
}

TEST(MoeChainedStressTest, ReserveDoesNotChangeResults) {
  auto d = MakeStressFixture(8, 64, 48, 8, 4, DType::kBF16, 31);
  ThreadPool pool(4);
  CpuMoe moe(d.packed, &pool, MoeOptions{});
  moe.Reserve(/*max_tokens=*/64, /*max_slots=*/4);  // over-provision
  Tensor out({8, 64}, DType::kF32);
  moe.Forward(d.x.f32(), 8, d.routing, 0, 4, out.f32());
  Tensor base = RunForward(d, ScheduleKind::kStatic, 1, 0, 4);
  EXPECT_TRUE(BitIdentical(base, out));
}

TEST(MoeChainedStressTest, StatsCountAllThreePhases) {
  auto d = MakeStressFixture(6, 64, 48, 40, 2, DType::kBF16, 5);
  ThreadPool pool(2);
  CpuMoe moe(d.packed, &pool, MoeOptions{});
  Tensor out({40, 64}, DType::kF32);
  MoeStats stats;
  moe.Forward(d.x.f32(), 40, d.routing, 0, 2, out.f32(), &stats);
  // 40 tokens -> 2 reduce bands of 32; subtasks must include them on top of
  // the GEMM tasks. One Gate/Up band and one Down band per matrix: each GEMM
  // task is one expert's Gate/Up (2 calls) with its Down (1 call) run inline.
  const std::int64_t gemm_calls = stats.gemm_calls();
  EXPECT_GT(stats.subtasks, 0);
  EXPECT_GT(gemm_calls, 0);
  EXPECT_EQ(stats.subtasks, 2 + gemm_calls / 3);
  EXPECT_EQ(stats.tokens, 40);
}

}  // namespace
}  // namespace ktx
