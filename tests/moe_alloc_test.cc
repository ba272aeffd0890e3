// Allocation-regression test for the MoE decode hot path.
//
// Replaces global operator new/delete with counting versions, then asserts
// that after CpuMoe::Reserve + one warmup pass, steady-state decode Forward
// calls perform ZERO heap allocations: no closure captures, no shared_ptr
// control blocks, no per-call staging vectors, no thread-local scratch growth.
// This is the property the persistent MoeWorkspace + ParallelRun substrate
// exists to provide; any regression (someone reintroducing a std::vector or
// std::function on the hot path) fails loudly here. The same property is
// asserted for the vGPU plane's ops (attention, gating, shared / dense FFN,
// lm_head) on warm batch-1 and batch-4 paged decode steps.
//
// The counters are enabled only inside the measured window so gtest's own
// bookkeeping does not pollute the count. The test binary is single-purpose:
// replacing global new affects every TU linked into it.

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
#include <memory>
#include <new>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/cpu/kernel_registry.h"
#include "src/cpu/moe_cpu.h"
#include "src/model/attention.h"
#include "src/model/gating.h"
#include "src/model/kv_block_pool.h"
#include "src/model/packed_weights.h"
#include "src/model/reference_model.h"
#include "src/model/weights.h"

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

TEST(MoeAllocTest, CounterInterceptsOrdinaryAllocations) {
  // Sanity canary: if the replaced operator new ever stops being linked in,
  // the zero-allocation assertions below would pass vacuously. Prove the
  // counter is live first.
  g_alloc_events.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_seq_cst);
  auto* v = new std::vector<int>(128);
  g_count_allocs.store(false, std::memory_order_seq_cst);
  delete v;
  EXPECT_GT(g_alloc_events.load(), 0);
}

struct DecodeCase {
  std::int64_t tokens;
  MoeRouting routing;
  Tensor x;
  Tensor y;
};

TEST(MoeAllocTest, SteadyStateDecodeIsAllocationFree) {
  constexpr int kExperts = 16;
  constexpr std::int64_t kHidden = 64;
  constexpr std::int64_t kInter = 64;
  constexpr int kTopK = 4;
  constexpr std::int64_t kMaxTokens = 8;

  // ---- Setup (allocations allowed) ----
  Rng rng(2024);
  std::vector<Tensor> gate, up, down;
  for (int e = 0; e < kExperts; ++e) {
    Rng er = rng.Split(static_cast<std::uint64_t>(e));
    gate.push_back(Tensor::Randn({kInter, kHidden}, er, 0.3f));
    up.push_back(Tensor::Randn({kInter, kHidden}, er, 0.3f));
    down.push_back(Tensor::Randn({kHidden, kInter}, er, 0.3f));
  }
  auto packed = PackedExperts::Pack(gate, up, down, DType::kBF16);
  ASSERT_TRUE(packed.ok());
  auto shared = std::make_shared<const PackedExperts>(std::move(*packed));

  ThreadPool pool(4);
  MoeOptions opts;
  opts.schedule = ScheduleKind::kDynamic;  // chained hot path
  CpuMoe moe(shared, &pool, opts);
  moe.Reserve(kMaxTokens, kTopK);

  // Pre-build every decode-shaped request so the measured loop touches no
  // containers of its own.
  std::vector<DecodeCase> cases;
  for (std::int64_t tokens : {std::int64_t{1}, std::int64_t{2}, std::int64_t{4}, kMaxTokens}) {
    DecodeCase c;
    c.tokens = tokens;
    c.x = Tensor::Randn({tokens, kHidden}, rng, 0.5f);
    c.y = Tensor({tokens, kHidden}, DType::kF32);
    c.routing.tokens = tokens;
    c.routing.top_k = kTopK;
    for (std::int64_t i = 0; i < tokens * kTopK; ++i) {
      c.routing.expert_ids.push_back(
          static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(kExperts))));
      c.routing.weights.push_back(rng.NextFloat() * 0.5f + 0.05f);
    }
    cases.push_back(std::move(c));
  }

  // One warmup Forward per shape: lets any lazily-grown state (worker scratch,
  // stats plumbing) reach steady state. With Reserve this should already be a
  // no-op for the workspace itself.
  MoeStats stats;
  for (DecodeCase& c : cases) {
    moe.Forward(c.x.f32(), c.tokens, c.routing, 0, kTopK, c.y.f32(), &stats);
  }

  // ---- Measured steady-state window ----
  g_alloc_events.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_seq_cst);
  for (int iter = 0; iter < 50; ++iter) {
    for (DecodeCase& c : cases) {
      moe.Forward(c.x.f32(), c.tokens, c.routing, 0, kTopK, c.y.f32(), &stats);
    }
  }
  g_count_allocs.store(false, std::memory_order_seq_cst);

  EXPECT_EQ(g_alloc_events.load(), 0)
      << "steady-state decode Forward performed heap allocations";
  EXPECT_GT(stats.subtasks, 0);  // the loop really executed work
}

TEST(MoeAllocTest, ReserveAloneMakesFirstForwardAllocationFree) {
  // Stronger variant: no warmup at all. Reserve must size every workspace
  // array (including per-worker GEMM scratch) so even the FIRST Forward after
  // it allocates nothing.
  constexpr int kExperts = 8;
  constexpr std::int64_t kHidden = 64;
  constexpr std::int64_t kInter = 48;
  constexpr int kTopK = 2;

  Rng rng(7);
  std::vector<Tensor> gate, up, down;
  for (int e = 0; e < kExperts; ++e) {
    Rng er = rng.Split(static_cast<std::uint64_t>(e));
    gate.push_back(Tensor::Randn({kInter, kHidden}, er, 0.3f));
    up.push_back(Tensor::Randn({kInter, kHidden}, er, 0.3f));
    down.push_back(Tensor::Randn({kHidden, kInter}, er, 0.3f));
  }
  auto packed = PackedExperts::Pack(gate, up, down, DType::kBF16);
  ASSERT_TRUE(packed.ok());
  auto shared = std::make_shared<const PackedExperts>(std::move(*packed));

  ThreadPool pool(2);
  CpuMoe moe(shared, &pool, MoeOptions{});
  moe.Reserve(/*max_tokens=*/4, /*max_slots=*/kTopK);

  Tensor x = Tensor::Randn({4, kHidden}, rng, 0.5f);
  Tensor y({4, kHidden}, DType::kF32);
  MoeRouting routing;
  routing.tokens = 4;
  routing.top_k = kTopK;
  for (int i = 0; i < 4 * kTopK; ++i) {
    routing.expert_ids.push_back(
        static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(kExperts))));
    routing.weights.push_back(0.5f);
  }

  g_alloc_events.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_seq_cst);
  moe.Forward(x.f32(), 4, routing, 0, kTopK, y.f32());
  g_count_allocs.store(false, std::memory_order_seq_cst);

  EXPECT_EQ(g_alloc_events.load(), 0)
      << "first Forward after Reserve performed heap allocations";
}

TEST(MoeAllocTest, EverySelectableVariantDecodesAllocationFree) {
  // GemmScratchBytes is the max over the whole registry, so the workspace
  // Reserve sizes must cover EVERY variant the dispatcher could pick — not
  // just the one the ARI heuristic lands on for this host. Force each
  // available variant in turn and re-assert the zero-allocation property.
  constexpr int kExperts = 8;
  constexpr std::int64_t kHidden = 64;
  constexpr std::int64_t kInter = 48;
  constexpr int kTopK = 2;
  constexpr std::int64_t kTokens = 4;

  Rng rng(99);
  std::vector<Tensor> gate, up, down;
  for (int e = 0; e < kExperts; ++e) {
    Rng er = rng.Split(static_cast<std::uint64_t>(e));
    gate.push_back(Tensor::Randn({kInter, kHidden}, er, 0.3f));
    up.push_back(Tensor::Randn({kInter, kHidden}, er, 0.3f));
    down.push_back(Tensor::Randn({kHidden, kInter}, er, 0.3f));
  }
  auto packed = PackedExperts::Pack(gate, up, down, DType::kBF16);
  ASSERT_TRUE(packed.ok());
  auto shared = std::make_shared<const PackedExperts>(std::move(*packed));

  Tensor x = Tensor::Randn({kTokens, kHidden}, rng, 0.5f);
  MoeRouting routing;
  routing.tokens = kTokens;
  routing.top_k = kTopK;
  for (int i = 0; i < kTokens * kTopK; ++i) {
    routing.expert_ids.push_back(
        static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(kExperts))));
    routing.weights.push_back(0.5f);
  }

  ThreadPool pool(2);
  int variants_exercised = 0;
  for (const KernelVariant& v : KernelRegistry()) {
    if (!v.available() || !v.supports_dtype(DType::kBF16)) {
      continue;
    }
    ++variants_exercised;

    // ---- Setup per variant (allocations allowed) ----
    MoeOptions opts;
    opts.force_kind = v.kind;
    opts.impl = v.impl;
    CpuMoe moe(shared, &pool, opts);
    moe.Reserve(kTokens, kTopK);
    Tensor y({kTokens, kHidden}, DType::kF32);
    MoeStats stats;
    // Warmup reaches steady state for lazily-grown plumbing (trace, metrics).
    moe.Forward(x.f32(), kTokens, routing, 0, kTopK, y.f32(), &stats);

    // ---- Measured window ----
    g_alloc_events.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_seq_cst);
    for (int iter = 0; iter < 10; ++iter) {
      moe.Forward(x.f32(), kTokens, routing, 0, kTopK, y.f32(), &stats);
    }
    g_count_allocs.store(false, std::memory_order_seq_cst);

    EXPECT_EQ(g_alloc_events.load(), 0)
        << "variant " << v.name << " allocated on the decode hot path";
    EXPECT_GT(stats.subtasks, 0) << v.name;
  }
  // Emulated entries and scalar are always available: at least 3 variants run
  // on any host, all 6 on a full AMX + AVX-512 + AVX2 machine.
  EXPECT_GE(variants_exercised, 3);
}

// The engine's vGPU plane — attention, gating, shared / dense FFN and
// lm_head on the packed f32 weights — with its working memory in caller-owned
// scratch, as the engine's decode buffers hold it. Once one batch-1 and one
// batch-4 paged decode step have run, further steps allocate nothing.
class VgpuAllocTest : public ::testing::TestWithParam<AttentionKind> {};

TEST_P(VgpuAllocTest, WarmPagedDecodeStepsAreAllocationFree) {
  const MoeModelConfig config =
      GetParam() == AttentionKind::kMla ? TinyMlaConfig() : SmallMoeConfig();
  const ModelWeights weights = ModelWeights::Generate(config, 17);
  const PackedModelWeights packed(config, weights, ResolveProjectionVariant());
  const std::int64_t hidden = config.hidden;
  constexpr int kRows = 4;
  constexpr std::int64_t kContext = 20;  // steps cross the 16-row block edge
  constexpr int kSteps = 8;              // per row, warmup included

  KvPoolOptions pool_options;
  pool_options.num_blocks =
      kRows * ((kContext + kSteps) / pool_options.block_size + 1);
  KvBlockPool pool(config, pool_options);
  Rng rng(23);
  const Tensor context = Tensor::Randn({kContext, hidden}, rng, 0.5f);
  Tensor out({kContext, hidden}, DType::kF32);
  AttentionScratch attn_scratch;
  std::vector<std::unique_ptr<KvCache>> caches;
  std::vector<KvCache*> cache_ptrs;
  for (int r = 0; r < kRows; ++r) {
    caches.push_back(std::make_unique<KvCache>(config, &pool));
    KvCache& cache = *caches.back();
    // Every row the steps will append is reserved here: block-table growth
    // belongs to the KV layer, not to the vGPU ops under test.
    ASSERT_TRUE(cache.PrepareAppend(kContext + kSteps).ok());
    const std::int64_t len = kContext - r;  // rows at different positions
    for (int l = 0; l < config.num_layers; ++l) {
      ASSERT_TRUE(AttentionForward(config, packed.layer(l).attn, context.f32(), len, 0,
                                   cache.layer(l), &attn_scratch, out.f32())
                      .ok());
    }
    cache.Advance(len);
    cache_ptrs.push_back(&cache);
  }

  // Scratch as HybridEngine::DecodeBuffers holds it: attention reserved for
  // the longest window, the rest grown by the warmup steps.
  attn_scratch.Reserve(config, kRows, config.max_seq);
  GatingScratch gating_scratch;
  FfnScratch ffn_scratch;
  MoeRouting routing;
  const Tensor x = Tensor::Randn({kRows, hidden}, rng, 0.5f);
  Tensor y({kRows, hidden}, DType::kF32);
  Tensor logits({kRows, config.vocab}, DType::kF32);
  std::vector<std::int64_t> positions(kRows, 0);
  bool all_ok = true;
  auto step = [&](int rows) {
    for (int r = 0; r < rows; ++r) {
      positions[static_cast<std::size_t>(r)] = cache_ptrs[static_cast<std::size_t>(r)]->position();
    }
    for (int l = 0; l < config.num_layers; ++l) {
      const PackedModelWeights::Layer& pl = packed.layer(l);
      all_ok &= AttentionDecodeBatch(config, pl.attn, x.f32(), rows, positions.data(),
                                     cache_ptrs.data(), l, &attn_scratch, y.f32())
                    .ok();
      if (config.is_moe_layer(l)) {
        ComputeRouting(config, pl.router, weights.layers[static_cast<std::size_t>(l)].router_bias,
                       x.f32(), rows, &gating_scratch, &routing);
      }
      DenseFfnAdd(pl.ffn_gate, pl.ffn_up, pl.ffn_down, x.f32(), rows, hidden, &ffn_scratch,
                  y.f32());
    }
    packed.lm_head().Apply(x.f32(), rows, hidden, logits.f32(), config.vocab);
    for (int r = 0; r < rows; ++r) {
      cache_ptrs[static_cast<std::size_t>(r)]->Advance(1);
    }
  };

  step(1);
  step(kRows);
  g_alloc_events.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_seq_cst);
  for (int i = 2; i < kSteps; i += 2) {
    step(1);
    step(kRows);
  }
  g_count_allocs.store(false, std::memory_order_seq_cst);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(g_alloc_events.load(), 0) << "warm vGPU decode steps performed heap allocations";
  EXPECT_EQ(routing.tokens, kRows);  // the loop really routed the last batch
}

INSTANTIATE_TEST_SUITE_P(Kinds, VgpuAllocTest,
                         ::testing::Values(AttentionKind::kGqa, AttentionKind::kMla));

}  // namespace
}  // namespace ktx
