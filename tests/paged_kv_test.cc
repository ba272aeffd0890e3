// Paged KV cache: block pool mechanics, block-size bit-invariance, pool
// sizing, shared-prefix reuse, memory committed on first write, and
// recoverable pool exhaustion.
//
// The load-bearing guarantee throughout is tolerance ZERO: block layout is a
// memory layout change, so every logit an engine produces must be bitwise
// identical whatever its kv_block_size — max_seq, one contiguous run per
// session, included — across GQA and MLA attention, deferral depths, graph
// on/off, and shared-prefix sessions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.h"

namespace ktx {
namespace {

std::shared_ptr<const ModelWeights> WeightsFor(const MoeModelConfig& config) {
  return std::make_shared<const ModelWeights>(ModelWeights::Generate(config, 60));
}

// --- pool unit tests --------------------------------------------------------

TEST(KvBlockPoolTest, HashChainsCommitToEveryPrecedingToken) {
  const std::vector<int> tokens = {1, 2, 3, 4, 5, 6, 7, 8, 9};  // bs 4: 2 full blocks
  const auto hashes = HashTokenBlocks(tokens, 4);
  ASSERT_EQ(hashes.size(), 2u);  // the trailing partial block gets no hash

  // Identical prefix => identical chain.
  const auto same = HashTokenBlocks({1, 2, 3, 4, 5, 6, 7, 8}, 4);
  ASSERT_EQ(same.size(), 2u);
  EXPECT_EQ(same[0], hashes[0]);
  EXPECT_EQ(same[1], hashes[1]);

  // A divergence in block 0 changes EVERY hash after it (chained, not
  // per-block): two prompts agreeing on block 1's tokens must not collide.
  const auto diverged = HashTokenBlocks({9, 2, 3, 4, 5, 6, 7, 8}, 4);
  EXPECT_NE(diverged[0], hashes[0]);
  EXPECT_NE(diverged[1], hashes[1]);
}

TEST(KvBlockPoolTest, AllocRefcountExhaustionAndFree) {
  const MoeModelConfig config = TinyMoeConfig();
  KvBlockPool pool(config, {/*block_size=*/4, /*num_blocks=*/3});
  EXPECT_EQ(pool.free_blocks(), 3);

  auto a = pool.AllocBlock();
  auto b = pool.AllocBlock();
  auto c = pool.AllocBlock();
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(pool.free_blocks(), 0);
  EXPECT_EQ(pool.ref_count(*a), 1);

  // All blocks pinned by live references: allocation is a recoverable error.
  const auto exhausted = pool.AllocBlock();
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);

  // A second reference keeps the block alive through the first Unref.
  pool.Ref(*b);
  EXPECT_EQ(pool.ref_count(*b), 2);
  pool.Unref(*b);
  EXPECT_EQ(pool.free_blocks(), 0);
  pool.Unref(*b);
  EXPECT_EQ(pool.free_blocks(), 1);
  EXPECT_TRUE(pool.AllocBlock().ok());
}

TEST(KvBlockPoolTest, PrefixCacheMatchesLongestRunAndEvictsLru) {
  const MoeModelConfig config = TinyMoeConfig();
  KvBlockPool pool(config, {/*block_size=*/4, /*num_blocks=*/3});
  const std::vector<int> prompt = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto hashes = HashTokenBlocks(prompt, 4);
  ASSERT_EQ(hashes.size(), 2u);

  auto b0 = pool.AllocBlock();
  auto b1 = pool.AllocBlock();
  ASSERT_TRUE(b0.ok() && b1.ok());
  pool.RegisterPrefix(hashes[0], *b0);
  pool.RegisterPrefix(hashes[1], *b1);
  EXPECT_EQ(pool.ref_count(*b0), 2);  // allocator's ref + the cache's own

  const auto match = pool.MatchPrefix(hashes);
  ASSERT_EQ(match.size(), 2u);
  EXPECT_EQ(match[0], *b0);
  EXPECT_EQ(match[1], *b1);
  // A chain that diverges at block 0 matches nothing.
  EXPECT_TRUE(pool.MatchPrefix(HashTokenBlocks({9, 9, 9, 9}, 4)).empty());

  // Drop the session refs: both blocks become cache-only (evictable), and
  // allocation pressure reclaims them LRU instead of failing.
  pool.Unref(*b0);
  pool.Unref(*b1);
  EXPECT_EQ(pool.free_blocks(), 1);
  EXPECT_EQ(pool.available_blocks(), 3);
  ASSERT_TRUE(pool.AllocBlock().ok());  // free block
  ASSERT_TRUE(pool.AllocBlock().ok());  // evicts one cached block
  EXPECT_EQ(pool.stats().evictions, 1);
  EXPECT_LE(pool.MatchPrefix(hashes).size(), 1u);
}

// --- block-size bit-invariance ----------------------------------------------

// True when two logits tensors hold the same bytes.
bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && std::memcmp(a.raw(), b.raw(), a.byte_size()) == 0;
}

TEST(PagedKvTest, AnyBlockSizeGivesTheSameBits) {
  // GQA and MLA, deferral on/off, graph on/off — the full shape matrix the
  // attention rewrite touches. Block sizes 4 and 16 split each context into
  // runs (the prompts and decodes cross several boundaries), and two
  // sessions growing in turn interleave their blocks in the pool, so a
  // table's runs are not physically adjacent; max_seq keeps each context
  // one contiguous run. Every prefill's and decode's logits must be the
  // same bytes for all three.
  struct Case {
    MoeModelConfig config;
    int deferred;
    bool graph;
  };
  std::vector<Case> cases;
  for (const MoeModelConfig& config : {TinyMoeConfig(), TinyMlaConfig()}) {
    for (int deferred : {0, 1}) {
      for (bool graph : {true, false}) {
        cases.push_back({config, deferred, graph});
      }
    }
  }
  const std::vector<std::vector<int>> prompts = {
      {5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18},
      {40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.config.name + " deferred " + std::to_string(c.deferred) +
                 (c.graph ? " graph" : " eager"));
    const auto weights = WeightsFor(c.config);
    // Per block size: both prefills, then each decode step, in call order.
    std::vector<std::vector<Tensor>> logits;
    for (std::int64_t block_size : {std::int64_t{4}, std::int64_t{16}, c.config.max_seq}) {
      EngineOptions opts;
      opts.n_deferred = c.deferred;
      opts.use_cuda_graph = c.graph;
      opts.kv_block_size = block_size;
      HybridEngine engine(c.config, weights, opts);
      const int second = engine.CreateSession();
      logits.emplace_back();
      logits.back().push_back(engine.Prefill(0, prompts[0]));
      logits.back().push_back(engine.Prefill(second, prompts[1]));
      int token = 3;
      for (int step = 0; step < 10; ++step) {
        logits.back().push_back(engine.DecodeStep(step % 2 == 0 ? 0 : second, token));
        token = (token + 7) % c.config.vocab;
      }
    }
    for (std::size_t v = 1; v < logits.size(); ++v) {
      for (std::size_t i = 0; i < logits[0].size(); ++i) {
        EXPECT_TRUE(SameBits(logits[v][i], logits[0][i]))
            << (i < 2 ? "prefill " : "decode call ") << i << ", block-size variant " << v;
      }
    }
  }
}

// --- pool sizing -------------------------------------------------------------

TEST(PagedKvTest, DefaultPoolHoldsOneFullContextPerPotentialSession) {
  // Every engine builds one pool. Auto-sized, it holds max_batch full
  // max_seq contexts, or max_sessions of them when that bound is set.
  const MoeModelConfig config = TinyMoeConfig();
  const auto weights = WeightsFor(config);
  EngineOptions opts;
  opts.kv_block_size = 24;  // does not divide max_seq 128: 6 blocks per context
  const std::int64_t per_context = (config.max_seq + 23) / 24;
  {
    HybridEngine engine(config, weights, opts);
    ASSERT_NE(engine.kv_pool(), nullptr);
    EXPECT_EQ(engine.kv_pool()->num_blocks(), opts.max_batch * per_context);
    EXPECT_EQ(engine.kv_pool()->block_size(), 24);
  }
  opts.max_sessions = 3;
  HybridEngine engine(config, weights, opts);
  EXPECT_EQ(engine.kv_pool()->num_blocks(), 3 * per_context);
}

TEST(PagedKvTest, BlockTableGrowthNeverRecapturesTheGraph) {
  // The captured decode graph reads KV rows through views built at exec time;
  // growing the block table (decodes crossing block boundaries) must replay
  // the same graph, never recapture it.
  const MoeModelConfig config = TinyMoeConfig();
  EngineOptions opts;
  opts.kv_pool_blocks = -1;
  opts.kv_block_size = 2;  // a boundary every other decode
  HybridEngine engine(config, WeightsFor(config), opts);
  engine.Prefill({1, 2, 3});
  engine.DecodeStep(4);
  const std::int64_t captures = engine.counters().graph_captures;
  EXPECT_EQ(captures, 1);
  for (int step = 0; step < 12; ++step) {
    engine.DecodeStep(5 + step);
  }
  EXPECT_EQ(engine.counters().graph_captures, captures);
}

// --- shared-prefix reuse ----------------------------------------------------

TEST(PagedKvTest, SharedPrefixReuseSkipsPrefillAndStaysBitIdentical) {
  const MoeModelConfig config = TinyMoeConfig();
  const auto weights = WeightsFor(config);
  EngineOptions opts;
  opts.kv_pool_blocks = 64;
  opts.kv_block_size = 4;
  opts.prefill_chunk = 4;  // reuse unit = lcm(4, 4) = 4 tokens
  HybridEngine engine(config, weights, opts);
  // The baseline keeps each session's KV in one max_seq block and must chunk
  // prefill identically: chunk boundaries decide tokens-per-expert and thus
  // kernel-kind bits (the very reason reuse lengths are floored to the chunk
  // grid).
  EngineOptions contiguous_opts;
  contiguous_opts.kv_block_size = config.max_seq;
  contiguous_opts.prefill_chunk = 4;
  HybridEngine contiguous(config, weights, contiguous_opts);

  const std::vector<int> prompt = {11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22};
  const Tensor ref = contiguous.Prefill(prompt);

  const Tensor first = engine.Prefill(0, prompt);
  EXPECT_EQ(MaxAbsDiff(first, ref), 0.0f);
  EXPECT_EQ(engine.counters().prefix_cache_hits, 0);  // cold cache
  const std::int64_t blocks_after_first = engine.kv_pool()->stats().blocks_in_use;
  EXPECT_EQ(blocks_after_first, 3);  // 12 tokens / 4 per block

  // Same prompt on a fresh session: the longest cached run is adopted as a
  // ref-count bump — 8 of 12 tokens (capped below the prompt so the final
  // token's logits are computed) — and the suffix prefill reproduces the
  // exact same logits.
  const int second_session = engine.CreateSession();
  const Tensor second = engine.Prefill(second_session, prompt);
  EXPECT_EQ(MaxAbsDiff(second, ref), 0.0f);
  EXPECT_EQ(engine.counters().prefix_cache_hits, 1);
  EXPECT_EQ(engine.counters().prefix_tokens_reused, 8);
  // 2 shared blocks + each session's own tail block: 4 in use, not 6.
  EXPECT_EQ(engine.kv_pool()->stats().blocks_in_use, 4);

  // Both sessions decode on, bit-identical to the contiguous engine.
  int token = 7;
  for (int step = 0; step < 6; ++step) {
    const Tensor want = contiguous.DecodeStep(token);
    const Tensor a = engine.DecodeStep(0, token);
    const Tensor b = engine.DecodeStep(second_session, token);
    EXPECT_EQ(MaxAbsDiff(a, want), 0.0f) << "session 0 step " << step;
    EXPECT_EQ(MaxAbsDiff(b, want), 0.0f) << "shared session step " << step;
    token = (token + 5) % config.vocab;
  }
}

// --- memory commit ----------------------------------------------------------

// Resident pages of each row-storage tensor of `pool`.
std::vector<std::size_t> ResidentPagesPerTensor(const KvBlockPool& pool) {
  std::vector<std::size_t> pages;
  for (const Tensor* t : pool.storage()) {
    pages.push_back(ResidentPages(t->raw(), t->byte_size()));
  }
  return pages;
}

TEST(PagedKvTest, SharedPoolCommitsOnlyTheBlocksSessionsWrite) {
  // The perfbench fixture's geometry: a 16-row block of one K or V tensor is
  // 16 * 64 floats, one 4 KiB page on x86-64.
  const MoeModelConfig config = SmallMoeConfig();
  EngineOptions opts;
  opts.kv_pool_blocks = -1;
  // With the prefix cache on, a retired prompt's full blocks stay cached and
  // the next prompt draws fresh ones; this test is about the free list.
  opts.enable_prefix_cache = false;
  HybridEngine engine(config, WeightsFor(config), opts);
  const KvBlockPool& pool = *engine.kv_pool();
  ASSERT_GE(pool.storage().size(), 2u);

  // (a) Construction reserves the pool but commits none of it.
  for (std::size_t pages : ResidentPagesPerTensor(pool)) {
    EXPECT_EQ(pages, 0u);
  }

  // (b) 40 prompt tokens and 8 decodes fill blocks 0-2 exactly.
  auto run_session = [&](int first_token) {
    std::vector<int> prompt(40);
    for (int i = 0; i < 40; ++i) {
      prompt[static_cast<std::size_t>(i)] = (first_token + 3 * i) % config.vocab;
    }
    engine.Prefill(prompt);
    for (int step = 0; step < 8; ++step) {
      engine.DecodeStep((first_token + step) % config.vocab);
    }
  };
  run_session(1);
  ASSERT_EQ(engine.position(0), 48);
  ASSERT_EQ(pool.blocks_in_use(), 3);
  for (std::int32_t b = 0; b < 3; ++b) {
    ASSERT_EQ(pool.ref_count(b), 1);
  }
  const std::vector<std::size_t> after_first = ResidentPagesPerTensor(pool);
  for (std::size_t i = 0; i < after_first.size(); ++i) {
    const Tensor& t = *pool.storage()[i];
    const std::size_t block_bytes = t.byte_size() / static_cast<std::size_t>(pool.num_blocks());
    EXPECT_EQ(after_first[i], AlignUp(3 * block_bytes, PageBytes()) / PageBytes()) << i;
  }

  // (c) A second session as long as the first reuses the freed blocks (LIFO
  // free list), so it commits nothing new.
  engine.Reset(0);
  run_session(5);
  EXPECT_EQ(ResidentPagesPerTensor(pool), after_first);
}

TEST(PagedKvTest, OwnedBlockCommitsOnlyUpToItsPosition) {
  // KvCache(config), RefModel's storage: one owned max_seq-row block,
  // reserved at construction, committed as rows are written.
  const MoeModelConfig config = SmallMoeConfig();
  KvCache cache(config);
  const std::int64_t kv_dim = config.num_kv_heads * config.head_dim;
  const std::size_t stream_bytes =
      static_cast<std::size_t>(config.max_seq * kv_dim) * sizeof(float);
  const std::size_t all_pages = AlignUp(stream_bytes, PageBytes()) / PageBytes();
  ASSERT_GT(all_pages, 4u);
  for (int l = 0; l < config.num_layers; ++l) {
    const KvLayerView view = cache.layer(l);
    EXPECT_EQ(ResidentPages(view.k_row(0), stream_bytes), 0u);
    EXPECT_EQ(ResidentPages(view.v_row(0), stream_bytes), 0u);
  }

  constexpr std::int64_t kRows = 40;
  for (int l = 0; l < config.num_layers; ++l) {
    const KvLayerView view = cache.layer(l);
    for (std::int64_t pos = 0; pos < kRows; ++pos) {
      std::fill(view.k_row(pos), view.k_row(pos) + kv_dim, 1.0f);
      std::fill(view.v_row(pos), view.v_row(pos) + kv_dim, 2.0f);
    }
  }
  cache.Advance(kRows);

  const std::size_t written_pages =
      AlignUp(static_cast<std::size_t>(kRows * kv_dim) * sizeof(float), PageBytes()) /
      PageBytes();
  ASSERT_LT(written_pages, all_pages);
  for (int l = 0; l < config.num_layers; ++l) {
    const KvLayerView view = cache.layer(l);
    EXPECT_EQ(ResidentPages(view.k_row(0), stream_bytes), written_pages) << l;
    EXPECT_EQ(ResidentPages(view.v_row(0), stream_bytes), written_pages) << l;
  }
}

// --- recoverable exhaustion -------------------------------------------------

TEST(PagedKvTest, PoolExhaustionIsRecoverableNotFatal) {
  const MoeModelConfig config = TinyMoeConfig();
  EngineOptions opts;
  opts.kv_pool_blocks = 2;
  opts.kv_block_size = 4;  // 8 rows total
  HybridEngine engine(config, WeightsFor(config), opts);

  // A prompt needing 3 blocks fails cleanly and rolls back: position is
  // untouched and the reserved blocks are returned.
  const auto too_big = engine.TryPrefill(0, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.position(0), 0);
  EXPECT_EQ(engine.kv_pool()->free_blocks(), 2);

  // 8 tokens fill the pool exactly; the next decode needs a third block and
  // must fail recoverably, leaving the session intact.
  ASSERT_TRUE(engine.TryPrefill(0, {1, 2, 3, 4, 5, 6, 7, 8}).ok());
  EXPECT_EQ(engine.position(0), 8);
  EXPECT_EQ(engine.KvRemaining(0), 0);
  const auto decode = engine.TryDecodeBatch({SessionToken{0, 3}});
  ASSERT_FALSE(decode.ok());
  EXPECT_EQ(decode.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.position(0), 8);

  // Reset frees the blocks (the prompt's full blocks stay cached but
  // evictable) and the engine keeps working.
  engine.Reset(0);
  const auto retry = engine.TryPrefill(0, {9, 10, 11, 12});
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(engine.TryDecodeBatch({SessionToken{0, 3}}).ok());
}

}  // namespace
}  // namespace ktx
