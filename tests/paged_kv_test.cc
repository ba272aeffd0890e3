// Paged KV cache: block pool mechanics, shared-pool vs private-block
// bit-identity, shared-prefix reuse, copy-on-write and cross-pool forking,
// cross-storage KV-state round-trips, memory committed on first write, and
// recoverable pool exhaustion.
//
// The load-bearing guarantee throughout is tolerance ZERO: a shared pool is a
// memory layout change, so every logit a shared-pool engine produces must be
// bitwise identical to a private-storage engine's (each session one max_seq
// block) — across GQA and MLA attention, deferral depths, graph on/off, and
// shared-prefix sessions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/model/serialize.h"

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

// --- paged vs contiguous bit-identity ---------------------------------------

TEST(PagedKvTest, MatchesContiguousBitwiseAcrossConfigs) {
  // GQA and MLA, deferral on/off, graph on/off — the full shape matrix the
  // attention rewrite touches. Logits must agree to the bit at every step,
  // including steps that cross block boundaries (block_size 4, 10 decodes).
  struct Case {
    const char* name;
    MoeModelConfig config;
    int deferred;
    bool graph;
  };
  const std::vector<Case> cases = {
      {"gqa", TinyMoeConfig(), 0, true},
      {"gqa-nograph", TinyMoeConfig(), 0, false},
      {"gqa-deferral", TinyMoeConfig(), 1, true},
      {"mla", TinyMlaConfig(), 0, true},
      {"mla-nograph", TinyMlaConfig(), 0, false},
      {"mla-deferral", TinyMlaConfig(), 2, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto weights = WeightsFor(c.config);
    EngineOptions base;
    base.n_deferred = c.deferred;
    base.use_cuda_graph = c.graph;
    EngineOptions paged = base;
    paged.kv_pool_blocks = -1;  // auto-size
    paged.kv_block_size = 4;
    HybridEngine contiguous(c.config, weights, base);
    HybridEngine paged_engine(c.config, weights, paged);
    ASSERT_TRUE(paged_engine.kv_paged());
    ASSERT_FALSE(contiguous.kv_paged());

    const std::vector<int> prompt = {5, 6, 7, 8, 9, 10};
    const Tensor ref_prefill = contiguous.Prefill(prompt);
    const Tensor got_prefill = paged_engine.Prefill(prompt);
    EXPECT_EQ(MaxAbsDiff(got_prefill, ref_prefill), 0.0f) << "prefill";

    int token = 3;
    for (int step = 0; step < 10; ++step) {
      const Tensor ref = contiguous.DecodeStep(token);
      const Tensor got = paged_engine.DecodeStep(token);
      EXPECT_EQ(MaxAbsDiff(got, ref), 0.0f) << "decode step " << step;
      token = (token + 7) % c.config.vocab;
    }
  }
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
  // The baseline must chunk prefill identically: chunk boundaries decide
  // tokens-per-expert and thus kernel-kind bits (the very reason reuse
  // lengths are floored to the chunk grid).
  EngineOptions contiguous_opts;
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
  // 2 shared blocks + each session's private tail block: 4 in use, not 6.
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

// --- copy-on-write forking --------------------------------------------------

TEST(PagedKvTest, ForkSharesBlocksAndCowsOnDivergence) {
  // Fork a prefilled session and drive parent and child apart. The paged
  // fork is a block-table copy (plus COW of the shared partial tail on first
  // append); both lineages must match a contiguous engine doing the same.
  const MoeModelConfig config = TinyMlaConfig();  // exercise the MLA streams
  const auto weights = WeightsFor(config);
  EngineOptions paged_opts;
  paged_opts.kv_pool_blocks = 32;
  paged_opts.kv_block_size = 4;
  HybridEngine paged(config, weights, paged_opts);
  HybridEngine contiguous(config, weights, EngineOptions{});

  const std::vector<int> prompt = {3, 1, 4, 1, 5, 9};  // 6 tokens: partial tail
  paged.Prefill(0, prompt);
  contiguous.Prefill(0, prompt);
  const auto paged_child = paged.TryForkSession(0);
  const auto contig_child = contiguous.TryForkSession(0);
  ASSERT_TRUE(paged_child.ok());
  ASSERT_TRUE(contig_child.ok());
  ASSERT_EQ(paged.position(*paged_child), 6);

  // Divergent continuations: parent takes one token stream, child another.
  const std::int64_t cow_before = paged.kv_pool()->stats().cow_copies;
  int parent_token = 8;
  int child_token = 42;
  for (int step = 0; step < 6; ++step) {
    const Tensor want_parent = contiguous.DecodeStep(0, parent_token);
    const Tensor got_parent = paged.DecodeStep(0, parent_token);
    EXPECT_EQ(MaxAbsDiff(got_parent, want_parent), 0.0f) << "parent step " << step;
    const Tensor want_child = contiguous.DecodeStep(*contig_child, child_token);
    const Tensor got_child = paged.DecodeStep(*paged_child, child_token);
    EXPECT_EQ(MaxAbsDiff(got_child, want_child), 0.0f) << "child step " << step;
    parent_token = (parent_token + 3) % config.vocab;
    child_token = (child_token + 11) % config.vocab;
  }
  // The shared partial tail block (6 % 4 = 2 rows) forced at least one
  // copy-on-write when the lineages first appended into it.
  EXPECT_GT(paged.kv_pool()->stats().cow_copies, cow_before);
}

TEST(PagedKvTest, PrivateForkCopiesRowsThenDivergesAlone) {
  // With private storage (kv_pool_blocks = 0) every session owns its own
  // one-block pool, so a fork copies the parent's rows across pools. The
  // child must equal the parent row for row, then decode on without touching
  // a parent row; both lineages must match an unforked twin engine.
  for (const MoeModelConfig& config : {TinyMoeConfig(), TinyMlaConfig()}) {
    SCOPED_TRACE(config.name);
    const auto weights = WeightsFor(config);
    HybridEngine engine(config, weights, EngineOptions{});
    HybridEngine twin(config, weights, EngineOptions{});
    ASSERT_FALSE(engine.kv_paged());

    const std::vector<int> prompt = {3, 1, 4, 1, 5, 9, 2};
    engine.Prefill(0, prompt);
    twin.Prefill(0, prompt);
    const auto child = engine.TryForkSession(0);
    ASSERT_TRUE(child.ok());
    ASSERT_EQ(engine.position(*child), engine.position(0));
    const auto parent_rows = engine.TrySaveKv(0);
    const auto child_rows = engine.TrySaveKv(*child);
    ASSERT_TRUE(parent_rows.ok() && child_rows.ok());
    // Compared as bools: a mismatch would otherwise print both blobs.
    EXPECT_TRUE(*child_rows == *parent_rows) << "the fork differs from its parent";

    int token = 42;
    for (int step = 0; step < 4; ++step) {
      engine.DecodeStep(*child, token);
      token = (token + 11) % config.vocab;
    }
    EXPECT_TRUE(*engine.TrySaveKv(0) == *parent_rows) << "the child's decode wrote a parent row";

    const Tensor want = twin.DecodeStep(0, 8);
    EXPECT_EQ(MaxAbsDiff(engine.DecodeStep(0, 8), want), 0.0f);
  }
}

// --- KV-state serialization across storage modes ----------------------------

TEST(PagedKvTest, KvStateRoundTripsAcrossStorageModes) {
  // Serialize a paged cache (including one with a shared-prefix block table),
  // restore into a contiguous cache, and require (a) bit-identical bytes on
  // re-serialization and (b) bit-identical logits when both caches keep
  // decoding — storage layout must never leak into the stream.
  for (const MoeModelConfig& config : {TinyMoeConfig(), TinyMlaConfig()}) {
    SCOPED_TRACE(config.name);
    const auto weights = WeightsFor(config);
    RefModel model(config, weights);
    KvBlockPool pool(config, {/*block_size=*/4, /*num_blocks=*/16});

    KvCache paged(config, &pool);
    const std::vector<int> prompt = {2, 7, 1, 8, 2, 8};
    model.Forward(prompt, &paged);
    const std::string bytes = SerializeKvState(config, paged);

    // A forked cache shares the parent's blocks — same logical rows, so the
    // serialized stream must be byte-identical.
    KvCache shared(config, &pool);
    ASSERT_TRUE(shared.CloneFrom(paged).ok());
    EXPECT_EQ(SerializeKvState(config, shared), bytes);

    KvCache contiguous(config);
    ASSERT_TRUE(DeserializeKvState(bytes, config, &contiguous).ok());
    EXPECT_EQ(contiguous.position(), paged.position());
    EXPECT_EQ(SerializeKvState(config, contiguous), bytes);

    const Tensor from_paged = model.Forward({9}, &paged);
    const Tensor from_contiguous = model.Forward({9}, &contiguous);
    EXPECT_EQ(MaxAbsDiff(from_paged, from_contiguous), 0.0f);

    // Round-trip the other way: contiguous bytes into a fresh paged cache.
    KvCache repaged(config, &pool);
    const std::string bytes2 = SerializeKvState(config, contiguous);
    ASSERT_TRUE(DeserializeKvState(bytes2, config, &repaged).ok());
    EXPECT_EQ(SerializeKvState(config, repaged), bytes2);
  }
}

TEST(PagedKvTest, KvStateRestoreRejectsCorruptAndMismatched) {
  const MoeModelConfig config = TinyMoeConfig();
  const auto weights = WeightsFor(config);
  RefModel model(config, weights);
  KvCache cache(config);
  model.Forward({1, 2, 3}, &cache);
  const std::string bytes = SerializeKvState(config, cache);

  KvCache fresh(config);
  EXPECT_EQ(DeserializeKvState("KTXQ garbage", config, &fresh).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DeserializeKvState(bytes.substr(0, bytes.size() - 5), config, &fresh).code(),
            StatusCode::kOutOfRange);  // truncated mid-payload
  // Geometry mismatch: MLA blob into a GQA-configured cache.
  KvCache mla_cache(TinyMlaConfig());
  RefModel mla_model(TinyMlaConfig(), WeightsFor(TinyMlaConfig()));
  mla_model.Forward({1, 2, 3}, &mla_cache);
  EXPECT_EQ(DeserializeKvState(SerializeKvState(TinyMlaConfig(), mla_cache), config, &fresh)
                .code(),
            StatusCode::kInvalidArgument);
  // Restoring into a non-empty cache is a caller error, not data corruption.
  EXPECT_EQ(DeserializeKvState(bytes, config, &cache).code(),
            StatusCode::kFailedPrecondition);
  // And the pristine blob still restores fine afterwards.
  EXPECT_TRUE(DeserializeKvState(bytes, config, &fresh).ok());
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

TEST(PagedKvTest, PrivateBlockCommitsOnlyUpToItsPosition) {
  // kv_pool_blocks = 0 storage: one max_seq-row block per cache, reserved at
  // construction, committed as rows are written.
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
