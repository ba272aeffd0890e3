// Resumable-prefill cursor tests (engine level).
//
// The contract under test: StartPrefill + a TryPrefillNext loop must produce
// the SAME BITS as a single-shot Prefill over the same prompt — logits,
// KV-cache state, and everything decoded afterwards. The load-bearing detail
// is chunk boundaries: tokens-per-chunk decides tokens-per-expert, which
// decides the MoE kernel-kind dispatch, and different kernels are bitwise
// different. TryPrefillNext therefore advances exactly one engine chunk with
// boundaries fixed at multiples of prefill_chunk from the prompt start, so
// both entry points cut the prompt identically by construction. These tests
// pin that with tolerance 0, including the awkward lengths (exactly one
// chunk, an exact multiple, one past a multiple, chunk size 1).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/engine.h"

namespace ktx {
namespace {

std::vector<int> Prompt(int n, int vocab = 256) {
  std::vector<int> tokens(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    tokens[static_cast<std::size_t>(i)] = (i * 7 + 3) % vocab;
  }
  return tokens;
}

struct Fixture {
  MoeModelConfig config = TinyMoeConfig();
  std::shared_ptr<const ModelWeights> weights =
      std::make_shared<const ModelWeights>(ModelWeights::Generate(TinyMoeConfig(), 60));
  EngineOptions opts;

  std::unique_ptr<HybridEngine> MakeEngine() const {
    return std::make_unique<HybridEngine>(config, weights, opts);
  }
};

// Drives a cursor to completion, asserting each chunk has the engine-fixed
// size, and returns the final-position logits.
Tensor DriveCursor(HybridEngine* engine, int session, const std::vector<int>& tokens,
                   std::int64_t chunk) {
  auto cursor = engine->StartPrefill(session, tokens);
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_TRUE(cursor->valid());
  EXPECT_EQ(cursor->session(), session);
  EXPECT_EQ(cursor->total_tokens(), static_cast<std::int64_t>(tokens.size()));
  EXPECT_EQ(cursor->processed_tokens(), 0);
  std::int64_t chunks = 0;
  while (!cursor->done()) {
    const std::int64_t expect = std::min(chunk, cursor->remaining_tokens());
    auto advanced = engine->TryPrefillNext(&*cursor);
    EXPECT_TRUE(advanced.ok()) << advanced.status().ToString();
    EXPECT_EQ(*advanced, expect);
    ++chunks;
  }
  EXPECT_EQ(chunks, (static_cast<std::int64_t>(tokens.size()) + chunk - 1) / chunk);
  EXPECT_EQ(cursor->remaining_tokens(), 0);
  return cursor->logits();
}

TEST(PrefillCursorTest, ChunkBoundaryLengthsBitIdenticalToSingleShot) {
  Fixture f;
  f.opts.prefill_chunk = 4;
  // Exactly one chunk, an exact multiple, one past a multiple, and a ragged
  // tail mid-chunk.
  for (const int len : {4, 8, 9, 11}) {
    SCOPED_TRACE("prompt length " + std::to_string(len));
    const std::vector<int> prompt = Prompt(len);
    auto chunked = f.MakeEngine();
    auto single = f.MakeEngine();
    const Tensor a = DriveCursor(chunked.get(), 0, prompt, 4);
    const Tensor b = single->Prefill(0, prompt);
    EXPECT_EQ(MaxAbsDiff(a, b), 0.0f);
    // The caches must be identical too: decode the same fixed continuation
    // on both engines and compare every step's logits bit-for-bit.
    for (int t = 0; t < 4; ++t) {
      const int token = (t * 5 + 1) % f.config.vocab;
      const Tensor da = chunked->DecodeStep(0, token);
      const Tensor db = single->DecodeStep(0, token);
      EXPECT_EQ(MaxAbsDiff(da, db), 0.0f) << "decode step " << t;
    }
  }
}

TEST(PrefillCursorTest, ChunkSizeOneMatchesSingleShot) {
  Fixture f;
  f.opts.prefill_chunk = 1;
  const std::vector<int> prompt = Prompt(5);
  auto chunked = f.MakeEngine();
  auto single = f.MakeEngine();
  const Tensor a = DriveCursor(chunked.get(), 0, prompt, 1);
  const Tensor b = single->Prefill(0, prompt);
  EXPECT_EQ(MaxAbsDiff(a, b), 0.0f);
}

TEST(PrefillCursorTest, CursorMatchesSingleShotAcrossConfigs) {
  // GQA, MLA, expert deferral, and graph-off all route through different
  // execution paths; the cursor must be bit-exact in each.
  struct Case {
    const char* name;
    MoeModelConfig config;
    int n_deferred;
    bool use_cuda_graph;
  };
  const Case cases[] = {
      {"gqa", TinyMoeConfig(), 0, true},
      {"mla", TinyMlaConfig(), 0, true},
      {"deferral", TinyMoeConfig(), 1, true},
      {"graph_off", TinyMoeConfig(), 0, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto weights =
        std::make_shared<const ModelWeights>(ModelWeights::Generate(c.config, 60));
    EngineOptions opts;
    opts.prefill_chunk = 4;
    opts.n_deferred = c.n_deferred;
    opts.use_cuda_graph = c.use_cuda_graph;
    HybridEngine chunked(c.config, weights, opts);
    HybridEngine single(c.config, weights, opts);
    const std::vector<int> prompt = Prompt(9, c.config.vocab);
    const Tensor a = DriveCursor(&chunked, 0, prompt, 4);
    const Tensor b = single.Prefill(0, prompt);
    EXPECT_EQ(MaxAbsDiff(a, b), 0.0f);
    const Tensor da = chunked.DecodeStep(0, 2);
    const Tensor db = single.DecodeStep(0, 2);
    EXPECT_EQ(MaxAbsDiff(da, db), 0.0f);
  }
}

TEST(PrefillCursorTest, StartPrefillValidatesWithoutMutating) {
  Fixture f;
  auto engine = f.MakeEngine();

  EXPECT_EQ(engine->StartPrefill(99, Prompt(4)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->StartPrefill(0, {}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->StartPrefill(0, {1, static_cast<int>(f.config.vocab), 2}).status().code(),
            StatusCode::kInvalidArgument);
  // KV headroom for the WHOLE prompt is checked up front: a prompt one past
  // max_seq is refused before any token is processed.
  EXPECT_EQ(engine->StartPrefill(0, Prompt(f.config.max_seq + 1)).status().code(),
            StatusCode::kResourceExhausted);

  // None of the rejections touched the session: a normal prefill afterwards
  // matches a fresh engine bit-for-bit.
  EXPECT_EQ(engine->position(0), 0);
  auto fresh = f.MakeEngine();
  EXPECT_EQ(MaxAbsDiff(engine->Prefill(0, Prompt(6)), fresh->Prefill(0, Prompt(6))), 0.0f);
}

TEST(PrefillCursorTest, TryPrefillNextRejectsInvalidAndDoneCursors) {
  Fixture f;
  auto engine = f.MakeEngine();

  PrefillCursor invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_EQ(engine->TryPrefillNext(&invalid).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->TryPrefillNext(nullptr).status().code(), StatusCode::kInvalidArgument);

  auto cursor = engine->StartPrefill(0, Prompt(3));
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(engine->TryPrefillNext(&*cursor).ok());
  ASSERT_TRUE(cursor->done());
  EXPECT_EQ(engine->TryPrefillNext(&*cursor).status().code(), StatusCode::kInvalidArgument);
  // The completed cursor still exposes its final logits.
  EXPECT_EQ(cursor->logits().numel(), static_cast<std::int64_t>(f.config.vocab));
}

TEST(PrefillCursorTest, MidPrefillBackendFaultLeavesCursorResumable) {
  Fixture f;
  f.opts.prefill_chunk = 4;
  auto engine = f.MakeEngine();
  const std::vector<int> prompt = Prompt(12);

  auto cursor = engine->StartPrefill(0, prompt);
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(engine->TryPrefillNext(&*cursor).ok());
  ASSERT_EQ(cursor->processed_tokens(), 4);

  // The fault is polled BEFORE any mutation: the failing call must leave the
  // cursor and the KV cache exactly where they were.
  engine->InjectBackendFault(InternalError("vcuda: injected mid-prefill fault"));
  auto failed = engine->TryPrefillNext(&*cursor);
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(cursor->processed_tokens(), 4);
  EXPECT_EQ(engine->position(0), 4);

  // Retrying resumes the same chunk; the final bits match single-shot.
  while (!cursor->done()) {
    ASSERT_TRUE(engine->TryPrefillNext(&*cursor).ok());
  }
  auto single = f.MakeEngine();
  EXPECT_EQ(MaxAbsDiff(cursor->logits(), single->Prefill(0, prompt)), 0.0f);
  EXPECT_EQ(engine->counters().prefill_tokens, 12);
}

TEST(PrefillCursorTest, KvOverrunMidCursorIsRecoverable) {
  // StartPrefill reserves headroom for the whole prompt, but a caller that
  // advances the session out-of-band voids the reservation; the next chunk
  // then fails with kResourceExhausted instead of corrupting the cache.
  Fixture f;
  f.config.max_seq = 8;
  f.opts.prefill_chunk = 4;
  auto engine = f.MakeEngine();

  engine->Prefill(0, Prompt(4));
  auto cursor = engine->StartPrefill(0, Prompt(4));  // fits exactly: 4 + 4 == 8
  ASSERT_TRUE(cursor.ok());
  engine->DecodeStep(0, 1);  // out-of-band: position 5, only 3 slots left
  EXPECT_EQ(engine->TryPrefillNext(&*cursor).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(cursor->processed_tokens(), 0);
}

TEST(PrefillCursorTest, SiblingDecodeBetweenChunksDoesNotPerturbEitherSession) {
  // The serving loop's steady state: one session decoding between another
  // session's prefill chunks. Both streams must match their solo runs
  // bit-for-bit (session isolation across interleaved prefill/decode).
  Fixture f;
  f.opts.prefill_chunk = 4;
  auto engine = f.MakeEngine();
  auto decode_session = engine->TryCreateSession();
  ASSERT_TRUE(decode_session.ok());
  const int sib = *decode_session;
  const std::vector<int> long_prompt = Prompt(12);

  engine->Prefill(sib, {7, 8});
  auto cursor = engine->StartPrefill(0, long_prompt);
  ASSERT_TRUE(cursor.ok());
  std::vector<Tensor> sibling_logits;
  int step = 0;
  while (!cursor->done()) {
    ASSERT_TRUE(engine->TryPrefillNext(&*cursor).ok());
    sibling_logits.push_back(engine->DecodeStep(sib, (step++ * 3 + 1) % f.config.vocab));
  }

  auto solo_prefill = f.MakeEngine();
  EXPECT_EQ(MaxAbsDiff(cursor->logits(), solo_prefill->Prefill(0, long_prompt)), 0.0f);

  auto solo_decode = f.MakeEngine();
  solo_decode->Prefill(0, {7, 8});
  for (std::size_t t = 0; t < sibling_logits.size(); ++t) {
    const Tensor expect =
        solo_decode->DecodeStep(0, (static_cast<int>(t) * 3 + 1) % f.config.vocab);
    EXPECT_EQ(MaxAbsDiff(sibling_logits[t], expect), 0.0f) << "sibling step " << t;
  }
}

}  // namespace
}  // namespace ktx
