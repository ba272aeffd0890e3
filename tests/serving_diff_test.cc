// Randomized differential serving test.
//
// Every seed builds one serving scenario from a seeded Rng: the KV block
// pool (one small enough to force pool-pressure requeues and kv_exhausted
// finishes, or the engine's default auto-sized one), decode graphs on or
// off, Expert Deferral on or off, GQA or MLA attention, one of the two
// scheduling policies, a finite or unbounded prefill budget, and a request mix
// with shared prompt prefixes, priorities, deadlines, EOS tokens and seeded
// sampling, part of it submitted while the loop is already running. The
// scenario runs to completion and four invariants are checked against a solo
// run of every request (its own engine session, prefill then batch-1 decode,
// no serving loop):
//
//   1. every submitted id gets exactly one terminal result;
//   2. an OK stream equals its solo run (tokens and finish reason), and a
//      non-OK stream is a prefix of it;
//   3. after RunToCompletion the pool holds only cache-only blocks
//      (every block still in use is an evictable prefix-cache entry);
//   4. queue_seconds <= time_to_first_token_s <= total_seconds.
//
// Invariant 2 is bit-identity at tolerance 0: batching, chunked prefill,
// prefix adoption, block size and requeues change when work runs, never
// what it computes. Deadlines make some outcomes timing-dependent; the
// invariants hold for every outcome.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/serve/serving.h"

namespace ktx {
namespace {

constexpr int kSeeds = 400;

int Pick(Rng& rng, int lo, int hi) {  // uniform in [lo, hi]
  return lo + static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(hi - lo + 1)));
}

bool Coin(Rng& rng, double p) { return rng.NextDouble() < p; }

struct Scenario {
  MoeModelConfig config;
  EngineOptions engine;
  ServingOptions serving;
  std::vector<GenerationRequest> requests;
  int submitted_up_front = 0;
};

struct Expected {
  std::vector<int> tokens;
  FinishReason finish_reason = FinishReason::kNone;
};

// The request generated alone: prefill on session 0, then batch-1 decode,
// sampled by the request's own Sampler, for max_new_tokens and ignoring EOS
// (the EOS cut is applied afterwards, by ExpectedFor).
std::vector<int> SoloStream(HybridEngine* engine, const GenerationRequest& request) {
  engine->Reset(0);
  Sampler sampler(request.sampling);
  auto logits = engine->TryPrefill(0, request.prompt);
  EXPECT_TRUE(logits.ok()) << logits.status().ToString();
  if (!logits.ok()) {
    return {};
  }
  std::vector<int> stream;
  int token = sampler.Sample(*logits);
  while (true) {
    stream.push_back(token);
    if (static_cast<int>(stream.size()) >= request.max_new_tokens) {
      return stream;
    }
    token = sampler.Sample(engine->DecodeStep(0, token));
  }
}

// The serving loop stops before emitting the EOS token itself.
Expected ExpectedFor(const std::vector<int>& stream, int eos_token) {
  Expected e;
  const auto eos = std::find(stream.begin(), stream.end(), eos_token);
  if (eos_token >= 0 && eos != stream.end()) {
    e.tokens.assign(stream.begin(), eos);
    e.finish_reason = FinishReason::kEos;
  } else {
    e.tokens = stream;
    e.finish_reason = FinishReason::kLength;
  }
  return e;
}

Scenario MakeScenario(std::uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  s.config = Coin(rng, 0.75) ? TinyMoeConfig() : TinyMlaConfig();
  s.engine.cpu_threads = 2;
  s.engine.max_batch = 4;
  s.engine.prefill_chunk = Coin(rng, 0.5) ? 4 : 8;
  s.engine.use_cuda_graph = Coin(rng, 0.5);
  s.engine.n_deferred = Coin(rng, 0.5) ? 1 : 0;
  if (Coin(rng, 0.5)) {
    // A small pool: 6-16 blocks of 4 rows. A long prompt plus its generation
    // needs up to 9 blocks, so pressure, requeues and kv_exhausted are common.
    // Otherwise the default pool: max_batch contexts of 16-row blocks.
    s.engine.kv_block_size = 4;
    s.engine.kv_pool_blocks = Pick(rng, 6, 16);
  }
  s.serving.max_concurrent = Pick(rng, 1, 4);
  s.serving.max_queue = Pick(rng, 3, 12);
  s.serving.policy = static_cast<SchedulePolicy>(Pick(rng, 0, 1));
  const std::int64_t budgets[] = {4, 8, 16, kUnboundedPrefillBudget};
  s.serving.prefill_budget_tokens = budgets[Pick(rng, 0, 3)];

  // A few shared prefixes so the prefix cache gets hits.
  std::vector<std::vector<int>> prefixes(2);
  for (auto& prefix : prefixes) {
    prefix.resize(static_cast<std::size_t>(Pick(rng, 4, 12)));
    for (int& t : prefix) {
      t = Pick(rng, 0, s.config.vocab - 1);
    }
  }
  const int count = Pick(rng, 4, 10);
  for (int i = 0; i < count; ++i) {
    GenerationRequest r;
    if (Coin(rng, 0.4)) {
      r.prompt = prefixes[static_cast<std::size_t>(Pick(rng, 0, 1))];
    }
    const int suffix = Pick(rng, 1, 14);
    for (int t = 0; t < suffix; ++t) {
      r.prompt.push_back(Pick(rng, 0, s.config.vocab - 1));
    }
    r.max_new_tokens = Pick(rng, 1, 10);
    if (Coin(rng, 0.35)) {
      r.sampling.temperature = 0.8f;
      r.sampling.top_k = 16;
      r.sampling.seed = rng.NextU64();
    }
    r.priority = Pick(rng, 0, kMaxRequestPriority);
    if (Coin(rng, 0.25)) {
      r.deadline_s = rng.Uniform(0.0005, 0.03);
    }
    // eos_token is chosen from the solo stream once it is known (see below);
    // mark the requests that get one.
    r.eos_token = Coin(rng, 0.35) ? -2 : -1;
    s.requests.push_back(std::move(r));
  }
  s.submitted_up_front = Pick(rng, 1, count);
  return s;
}

struct Coverage {
  int scenarios = 0;
  int requests = 0;
  std::map<FinishReason, int> finishes;
  std::int64_t prefix_tokens_reused = 0;
};

void RunScenario(std::uint64_t seed, Coverage* coverage) {
  Scenario s = MakeScenario(seed);
  const auto weights =
      std::make_shared<const ModelWeights>(ModelWeights::Generate(s.config, 60));

  // Solo references with the same numerics knobs, each session's KV in one
  // max_seq block and no prefix reuse.
  EngineOptions solo_options = s.engine;
  solo_options.kv_pool_blocks = 0;
  solo_options.kv_block_size = s.config.max_seq;
  solo_options.enable_prefix_cache = false;
  HybridEngine solo(s.config, weights, solo_options);
  Rng eos_rng(seed ^ 0x5eedULL);
  std::vector<Expected> expected;
  std::vector<std::vector<int>> streams;
  for (GenerationRequest& r : s.requests) {
    streams.push_back(SoloStream(&solo, r));
    if (r.eos_token == -2) {
      const std::vector<int>& stream = streams.back();
      r.eos_token = stream[static_cast<std::size_t>(
          Pick(eos_rng, 0, static_cast<int>(stream.size()) - 1))];
    }
    expected.push_back(ExpectedFor(streams.back(), r.eos_token));
  }

  HybridEngine engine(s.config, weights, s.engine);
  ServingLoop loop(&engine, s.serving);
  std::map<std::uint64_t, std::size_t> index_of;  // id -> request index
  std::vector<GenerationResult> results;
  std::size_t next = 0;
  for (; next < static_cast<std::size_t>(s.submitted_up_front); ++next) {
    index_of[loop.Submit(s.requests[next])] = next;
  }
  // Open-loop tail: one late arrival per sweep.
  while (next < s.requests.size()) {
    loop.RunOnce();
    index_of[loop.Submit(s.requests[next])] = next;
    ++next;
    for (GenerationResult& r : loop.TakeResults()) {
      results.push_back(std::move(r));
    }
  }
  for (GenerationResult& r : loop.RunToCompletion()) {
    results.push_back(std::move(r));
  }

  // 1. Exactly one terminal result per id.
  std::map<std::uint64_t, int> seen;
  for (const GenerationResult& r : results) {
    ++seen[r.id];
  }
  EXPECT_EQ(seen.size(), s.requests.size());
  for (const auto& [id, n] : seen) {
    EXPECT_EQ(index_of.count(id), 1u) << "result for unknown id " << id;
    EXPECT_EQ(n, 1) << "request " << id << " has " << n << " terminal results";
  }

  for (const GenerationResult& r : results) {
    SCOPED_TRACE("request " + std::to_string(r.id) + " finish " +
                 std::string(FinishReasonName(r.finish_reason)) + " " + r.status.ToString());
    const auto it = index_of.find(r.id);
    if (it == index_of.end()) {
      continue;
    }
    const Expected& want = expected[it->second];
    EXPECT_NE(r.finish_reason, FinishReason::kNone);
    EXPECT_EQ(r.ok, r.status.ok());
    // 2. OK streams equal the solo run; failed streams are a prefix of it.
    if (r.ok) {
      EXPECT_EQ(r.tokens, want.tokens);
      EXPECT_EQ(r.finish_reason, want.finish_reason);
    } else {
      ASSERT_LE(r.tokens.size(), want.tokens.size());
      EXPECT_TRUE(std::equal(r.tokens.begin(), r.tokens.end(), want.tokens.begin()));
    }
    // 4. Submit-anchored clocks are ordered. TTFT exists only once a token
    // was sampled (a kEos finish sampled the EOS token).
    EXPECT_LE(r.queue_seconds, r.total_seconds);
    if (!r.tokens.empty() || r.finish_reason == FinishReason::kEos) {
      EXPECT_LE(r.queue_seconds, r.time_to_first_token_s);
      EXPECT_LE(r.time_to_first_token_s, r.total_seconds);
    }
    ++coverage->finishes[r.finish_reason];
  }

  // 3. The pool drains to cache-only references.
  const KvBlockPool::Stats pool = engine.kv_pool()->stats();
  EXPECT_EQ(pool.blocks_in_use, pool.evictable_blocks);
  EXPECT_EQ(pool.cached_blocks, pool.evictable_blocks);

  ++coverage->scenarios;
  coverage->requests += static_cast<int>(s.requests.size());
  coverage->prefix_tokens_reused += loop.stats().prefix_tokens_reused;
}

TEST(ServingDiffTest, RandomScenariosMatchSoloRuns) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunScenario(seed, &coverage);
    if (HasFatalFailure()) {
      return;
    }
  }
  std::string summary = std::to_string(coverage.scenarios) + " scenarios, " +
                        std::to_string(coverage.requests) + " requests, " +
                        std::to_string(coverage.prefix_tokens_reused) +
                        " prefix tokens reused;";
  for (const auto& [reason, n] : coverage.finishes) {
    summary += " " + std::string(FinishReasonName(reason)) + "=" + std::to_string(n);
  }
  std::printf("%s\n", summary.c_str());
  // The seed list must keep exercising the paths the invariants guard; none
  // of these depend on timing.
  EXPECT_GT(coverage.finishes[FinishReason::kEos], 0);
  EXPECT_GT(coverage.finishes[FinishReason::kLength], 0);
  EXPECT_GT(coverage.finishes[FinishReason::kKvExhausted], 0);
  EXPECT_GT(coverage.finishes[FinishReason::kRejected], 0);
  EXPECT_GT(coverage.prefix_tokens_reused, 0);
}

}  // namespace
}  // namespace ktx
