#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>

#include "src/serve/serving.h"

namespace ktx {
namespace {

struct Fixture {
  MoeModelConfig config = TinyMoeConfig();
  std::shared_ptr<const ModelWeights> weights =
      std::make_shared<const ModelWeights>(ModelWeights::Generate(TinyMoeConfig(), 60));
  std::unique_ptr<HybridEngine> engine =
      std::make_unique<HybridEngine>(config, weights, EngineOptions{});
};

ServingOptions Concurrency(int max_concurrent) {
  ServingOptions options;
  options.max_concurrent = max_concurrent;
  return options;
}

GenerationRequest Req(std::vector<int> prompt, int max_new = 6) {
  GenerationRequest r;
  r.prompt = std::move(prompt);
  r.max_new_tokens = max_new;
  return r;
}

TEST(ServingTest, SingleRequestMatchesDirectGeneration) {
  Fixture f;
  ServingLoop loop(f.engine.get(), Concurrency(1));
  loop.Submit(Req({3, 1, 4}, 6));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 1u);

  HybridEngine direct(f.config, f.weights, EngineOptions{});
  EXPECT_EQ(results[0].tokens, direct.GenerateGreedy({3, 1, 4}, 6));
  EXPECT_EQ(results[0].prompt_tokens, 3);
}

TEST(ServingTest, InterleavedRequestsMatchIsolatedRuns) {
  // Batched interleaving across sessions must not change any request's
  // output (the session-isolation guarantee, end to end).
  Fixture f;
  ServingLoop loop(f.engine.get(), Concurrency(3));
  loop.Submit(Req({1, 2}, 5));
  loop.Submit(Req({7, 8, 9}, 5));
  loop.Submit(Req({4}, 5));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 3u);

  for (const auto& [id, prompt] :
       {std::pair<std::uint64_t, std::vector<int>>{1, {1, 2}},
        std::pair<std::uint64_t, std::vector<int>>{2, {7, 8, 9}},
        std::pair<std::uint64_t, std::vector<int>>{3, {4}}}) {
    HybridEngine solo(f.config, f.weights, EngineOptions{});
    const std::vector<int> expect = solo.GenerateGreedy(prompt, 5);
    const auto it = std::find_if(results.begin(), results.end(),
                                 [&](const GenerationResult& r) { return r.id == id; });
    ASSERT_NE(it, results.end());
    EXPECT_EQ(it->tokens, expect) << "request " << id;
  }
}

TEST(ServingTest, ConcurrencyLimitQueuesExcessRequests) {
  Fixture f;
  ServingLoop loop(f.engine.get(), Concurrency(2));
  for (int i = 0; i < 5; ++i) {
    loop.Submit(Req({i + 1}, 3));
  }
  const auto results = loop.RunToCompletion();
  EXPECT_EQ(results.size(), 5u);
  EXPECT_EQ(loop.stats().peak_concurrency, 2);
  EXPECT_EQ(loop.stats().requests_completed, 5);
  EXPECT_EQ(loop.stats().tokens_generated, 15);
}

TEST(ServingTest, SessionsAreReusedAcrossRequests) {
  Fixture f;
  ServingLoop loop(f.engine.get(), Concurrency(1));
  for (int i = 0; i < 4; ++i) {
    loop.Submit(Req({i + 2}, 2));
  }
  loop.RunToCompletion();
  // One serving slot -> at most one extra session beyond the built-in one.
  EXPECT_LE(f.engine->num_sessions(), 2);
}

TEST(ServingTest, EosStopsGeneration) {
  Fixture f;
  // Find what greedy generates first, then use it as the EOS token: the
  // request must stop immediately with zero emitted tokens after it.
  HybridEngine probe(f.config, f.weights, EngineOptions{});
  const std::vector<int> probe_out = probe.GenerateGreedy({5, 5}, 3);
  ASSERT_FALSE(probe_out.empty());

  ServingLoop loop(f.engine.get(), Concurrency(1));
  GenerationRequest r = Req({5, 5}, 10);
  r.eos_token = probe_out[0];
  loop.Submit(std::move(r));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].finish_reason, FinishReason::kEos);
  EXPECT_TRUE(results[0].tokens.empty());
}

TEST(ServingTest, BatchedLoopMatchesSequentialLoop) {
  // Continuous batching must emit token-for-token what a one-slot loop (each
  // request decoded alone at batch 1) emits, with fewer engine decode calls.
  Fixture f;
  ServingLoop batched(f.engine.get(), Concurrency(3));
  HybridEngine seq_engine(f.config, f.weights, EngineOptions{});
  ServingLoop sequential(&seq_engine, Concurrency(1));
  for (ServingLoop* loop : {&batched, &sequential}) {
    loop->Submit(Req({1, 2}, 5));
    loop->Submit(Req({7, 8, 9}, 4));
    loop->Submit(Req({4}, 6));
  }
  const auto batched_results = batched.RunToCompletion();
  const auto sequential_results = sequential.RunToCompletion();
  ASSERT_EQ(batched_results.size(), 3u);
  ASSERT_EQ(sequential_results.size(), 3u);
  for (const GenerationResult& br : batched_results) {
    const auto it =
        std::find_if(sequential_results.begin(), sequential_results.end(),
                     [&](const GenerationResult& sr) { return sr.id == br.id; });
    ASSERT_NE(it, sequential_results.end());
    EXPECT_EQ(br.tokens, it->tokens) << "request " << br.id;
  }
  EXPECT_EQ(batched.stats().tokens_generated, sequential.stats().tokens_generated);
  EXPECT_EQ(batched.stats().peak_batch, 3);
  EXPECT_LT(batched.stats().decode_iterations, sequential.stats().decode_iterations);
}

TEST(ServingTest, MidFlightAdmissionRefillsFreedSlots) {
  // A short request retires mid-flight; the queued one takes over its slot
  // while the long request keeps decoding in the same batch — and every
  // output still matches its isolated run.
  Fixture f;
  ServingLoop loop(f.engine.get(), Concurrency(2));
  loop.Submit(Req({1, 2}, 2));      // retires first
  loop.Submit(Req({7, 8, 9}, 7));   // stays resident
  loop.Submit(Req({4}, 3));         // admitted mid-flight
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(loop.stats().peak_concurrency, 2);
  EXPECT_EQ(loop.stats().peak_batch, 2);

  for (const auto& [id, prompt, max_new] :
       {std::tuple<std::uint64_t, std::vector<int>, int>{1, {1, 2}, 2},
        std::tuple<std::uint64_t, std::vector<int>, int>{2, {7, 8, 9}, 7},
        std::tuple<std::uint64_t, std::vector<int>, int>{3, {4}, 3}}) {
    HybridEngine solo(f.config, f.weights, EngineOptions{});
    const std::vector<int> expect = solo.GenerateGreedy(prompt, max_new);
    const auto it = std::find_if(results.begin(), results.end(),
                                 [&](const GenerationResult& r) { return r.id == id; });
    ASSERT_NE(it, results.end());
    EXPECT_EQ(it->tokens, expect) << "request " << id;
  }
}

TEST(ServingTest, EosMidBatchStopsOnlyThatRequest) {
  Fixture f;
  // Probe greedy output over a few prompts for a token whose FIRST occurrence
  // is past position 0 — using it as EOS forces a stop strictly mid-request.
  std::vector<int> prompt;
  std::vector<int> probe_out;
  int eos = -1;
  std::size_t eos_at = 0;
  for (const std::vector<int>& candidate :
       {std::vector<int>{5, 5}, {1, 2, 3}, {9}, {2, 7}}) {
    HybridEngine probe(f.config, f.weights, EngineOptions{});
    const std::vector<int> out = probe.GenerateGreedy(candidate, 8);
    for (std::size_t k = 1; k < out.size(); ++k) {
      if (std::find(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(k), out[k]) ==
          out.begin() + static_cast<std::ptrdiff_t>(k)) {
        prompt = candidate;
        probe_out = out;
        eos = out[k];
        eos_at = k;
        break;
      }
    }
    if (eos >= 0) {
      break;
    }
  }
  ASSERT_GE(eos, 0) << "no prompt produced a mid-stream novel token";

  ServingLoop loop(f.engine.get(), Concurrency(2));
  GenerationRequest stopping = Req(prompt, 10);
  stopping.eos_token = eos;  // stops after emitting eos_at tokens
  loop.Submit(std::move(stopping));
  loop.Submit(Req({1, 2, 3}, 6));  // unaffected neighbor in the same batch
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 2u);

  const auto stopped = std::find_if(results.begin(), results.end(),
                                    [](const GenerationResult& r) { return r.id == 1; });
  ASSERT_NE(stopped, results.end());
  EXPECT_EQ(stopped->finish_reason, FinishReason::kEos);
  EXPECT_EQ(stopped->tokens,
            std::vector<int>(probe_out.begin(),
                             probe_out.begin() + static_cast<std::ptrdiff_t>(eos_at)));

  HybridEngine solo(f.config, f.weights, EngineOptions{});
  const auto other = std::find_if(results.begin(), results.end(),
                                  [](const GenerationResult& r) { return r.id == 2; });
  ASSERT_NE(other, results.end());
  EXPECT_NE(other->finish_reason, FinishReason::kEos);
  EXPECT_EQ(other->tokens, solo.GenerateGreedy({1, 2, 3}, 6));
}

TEST(ServingTest, BatchedSweepStatsAreFair) {
  // 3 equal-length requests admitted together: every sweep decodes all 3
  // (peak_batch 3), nobody starves, and the iteration count is max_new - 1
  // (the first token of each request comes from prefill).
  Fixture f;
  ServingLoop loop(f.engine.get(), Concurrency(3));
  for (int i = 0; i < 3; ++i) {
    loop.Submit(Req({i + 1}, 5));
  }
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 3u);
  for (const GenerationResult& r : results) {
    EXPECT_EQ(r.tokens.size(), 5u);
  }
  EXPECT_EQ(loop.stats().tokens_generated, 15);
  EXPECT_EQ(loop.stats().decoded_tokens, 12);
  EXPECT_EQ(loop.stats().decode_iterations, 4);
  EXPECT_EQ(loop.stats().peak_batch, 3);
  EXPECT_EQ(loop.stats().peak_concurrency, 3);
  EXPECT_EQ(f.engine->counters().max_decode_batch, 3);
}

TEST(ServingLifecycleTest, InvalidRequestsAreRejectedNotAborted) {
  // Untrusted submit-time input must never crash the loop: each bad request
  // gets a terminal kRejected result and a valid sibling is unaffected.
  Fixture f;
  ServingLoop loop(f.engine.get(), Concurrency(2));

  GenerationRequest empty;  // empty prompt
  const std::uint64_t empty_id = loop.Submit(std::move(empty));

  GenerationRequest zero = Req({1, 2}, /*max_new=*/0);  // the old off-by-one path
  const std::uint64_t zero_id = loop.Submit(std::move(zero));

  GenerationRequest oov = Req({1, 99999}, 3);  // token outside vocab
  const std::uint64_t oov_id = loop.Submit(std::move(oov));

  const std::uint64_t good_id = loop.Submit(Req({3, 1, 4}, 4));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 4u);

  for (std::uint64_t id : {empty_id, zero_id, oov_id}) {
    const auto it = std::find_if(results.begin(), results.end(),
                                 [&](const GenerationResult& r) { return r.id == id; });
    ASSERT_NE(it, results.end());
    EXPECT_FALSE(it->ok);
    EXPECT_EQ(it->finish_reason, FinishReason::kRejected);
    EXPECT_EQ(it->status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(it->tokens.empty());
  }
  const auto good = std::find_if(results.begin(), results.end(),
                                 [&](const GenerationResult& r) { return r.id == good_id; });
  ASSERT_NE(good, results.end());
  EXPECT_TRUE(good->ok);
  EXPECT_EQ(good->finish_reason, FinishReason::kLength);
  HybridEngine solo(f.config, f.weights, EngineOptions{});
  EXPECT_EQ(good->tokens, solo.GenerateGreedy({3, 1, 4}, 4));
  EXPECT_EQ(loop.stats().requests_rejected, 3);
  EXPECT_EQ(loop.stats().requests_completed, 1);
}

TEST(ServingLifecycleTest, MaxNewTokensOneYieldsExactlyOneToken) {
  // Regression for the ConsumeToken off-by-one: a 1-token request returns
  // exactly the prefill-sampled token, never a second one.
  Fixture f;
  ServingLoop loop(f.engine.get(), Concurrency(1));
  loop.Submit(Req({3, 1, 4}, 1));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_EQ(results[0].finish_reason, FinishReason::kLength);
  ASSERT_EQ(results[0].tokens.size(), 1u);
  HybridEngine solo(f.config, f.weights, EngineOptions{});
  EXPECT_EQ(results[0].tokens, solo.GenerateGreedy({3, 1, 4}, 1));
}

TEST(ServingLifecycleTest, FullAdmissionQueueRejectsOverflow) {
  Fixture f;
  ServingOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 2;
  ServingLoop loop(f.engine.get(), opts);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(loop.Submit(Req({i + 1}, 2)));
  }
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 4u);
  int rejected = 0;
  for (const GenerationResult& r : results) {
    if (r.id <= ids[1]) {
      EXPECT_TRUE(r.ok) << "request " << r.id;
    } else {
      EXPECT_FALSE(r.ok);
      EXPECT_EQ(r.finish_reason, FinishReason::kRejected);
      EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(loop.stats().requests_rejected, 2);
  EXPECT_EQ(loop.stats().requests_completed, 2);
}

TEST(ServingLifecycleTest, TtftAndTotalsIncludeQueueWait) {
  // With one slot, the second request waits through the whole first
  // generation; its metrics must show that wait instead of hiding it.
  Fixture f;
  ServingLoop loop(f.engine.get(), Concurrency(1));
  loop.Submit(Req({1, 2}, 6));
  loop.Submit(Req({7, 8}, 3));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 2u);
  const auto& first = results[0].id == 1 ? results[0] : results[1];
  const auto& second = results[0].id == 2 ? results[0] : results[1];
  EXPECT_GT(second.queue_seconds, 0.0);
  EXPECT_GE(second.time_to_first_token_s, second.queue_seconds);
  EXPECT_GE(second.total_seconds, second.time_to_first_token_s);
  // The first request barely queues; prefill dominates its TTFT.
  EXPECT_LT(first.queue_seconds, first.time_to_first_token_s);
  // The second request queued behind the first's full generation — its wait
  // dwarfs the first's.
  EXPECT_GT(second.queue_seconds, first.queue_seconds);
}

TEST(ServingLifecycleTest, ExpiredDeadlineIsRejectedAtAdmissionWithoutPrefill) {
  // A deadline that has already passed when the loop runs never reaches the
  // engine: no prefill, no tokens, terminal kDeadline.
  Fixture f;
  ServingLoop loop(f.engine.get(), Concurrency(2));
  GenerationRequest doomed = Req({5, 5}, 4);
  doomed.deadline_s = 1e-9;
  loop.Submit(std::move(doomed));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].finish_reason, FinishReason::kDeadline);
  EXPECT_EQ(results[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(results[0].tokens.empty());
}

TEST(ServingLifecycleTest, DeadlineExpiryMidBatchRetiresOnlyThatRequest) {
  // The doomed request asks for the entire 8192-position KV budget under a
  // 50 ms deadline. The loop's clock is stepped by hand, 1 ms per sweep, so
  // admission (sweep 1) always beats the deadline, and the deadline (sweep
  // 52) always beats ~8k decode steps — it is deterministically retired by
  // the per-row sweep, whatever a step costs on the host, while its neighbor
  // (a short request that completes well inside the deadline) keeps
  // decoding. max_new_tokens exactly fills max_seq: any more would be
  // rejected at Submit as a doomed capacity ask.
  Fixture f;
  f.config.max_seq = 8192;
  f.engine = std::make_unique<HybridEngine>(f.config, f.weights, EngineOptions{});
  std::int64_t now_ns = 0;
  ServingLoop loop(f.engine.get(), Concurrency(2), [&now_ns] { return now_ns; });
  GenerationRequest doomed = Req({5, 5}, 8190);
  doomed.deadline_s = 0.05;
  loop.Submit(std::move(doomed));
  loop.Submit(Req({1, 2, 3}, 5));
  while (loop.pending() > 0) {
    loop.RunOnce();
    now_ns += 1'000'000;
  }
  const auto results = loop.TakeResults();
  ASSERT_EQ(results.size(), 2u);

  const auto expired = std::find_if(results.begin(), results.end(),
                                    [](const GenerationResult& r) { return r.id == 1; });
  ASSERT_NE(expired, results.end());
  EXPECT_FALSE(expired->ok);
  EXPECT_EQ(expired->finish_reason, FinishReason::kDeadline);
  EXPECT_EQ(expired->status.code(), StatusCode::kDeadlineExceeded);
  // It was admitted (prefill token consumed) but cut off far short of its
  // requested length.
  EXPECT_GE(expired->tokens.size(), 1u);
  EXPECT_LT(expired->tokens.size(), 8190u);
  EXPECT_GT(expired->total_seconds, 0.05);  // ran up to (and past) its deadline

  const auto neighbor = std::find_if(results.begin(), results.end(),
                                     [](const GenerationResult& r) { return r.id == 2; });
  ASSERT_NE(neighbor, results.end());
  EXPECT_TRUE(neighbor->ok);
  EXPECT_EQ(neighbor->finish_reason, FinishReason::kLength);
  HybridEngine solo(f.config, f.weights, EngineOptions{});
  EXPECT_EQ(neighbor->tokens, solo.GenerateGreedy({1, 2, 3}, 5));
}

TEST(ServingLifecycleTest, InjectedSessionFaultRetiresOnlyThatRequest) {
  // The acceptance scenario: a vcuda-injected fault on one session of a
  // width-4 batch retires exactly that request; the other three finish with
  // outputs bit-identical to a no-fault run, and nothing aborts.
  Fixture f;
  ServingLoop loop(f.engine.get(), Concurrency(4));
  const std::vector<std::vector<int>> prompts = {{1, 2}, {7, 8, 9}, {4}, {5, 5}};
  for (const auto& prompt : prompts) {
    loop.Submit(Req(prompt, 8));
  }
  // Requests admit in submit order onto fresh sessions 1..4; arm the fault
  // for request 3 (session 3), firing on the 4th per-sweep poll so it lands
  // mid-generation.
  f.engine->InjectSessionFault(3, InternalError("injected vcuda fault"), /*after_polls=*/3);

  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(loop.stats().peak_batch, 4);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    const auto it = std::find_if(results.begin(), results.end(),
                                 [&](const GenerationResult& r) { return r.id == id; });
    ASSERT_NE(it, results.end());
    HybridEngine solo(f.config, f.weights, EngineOptions{});
    const std::vector<int> expect =
        solo.GenerateGreedy(prompts[static_cast<std::size_t>(id - 1)], 8);
    if (id == 3) {
      EXPECT_FALSE(it->ok);
      EXPECT_EQ(it->finish_reason, FinishReason::kBackendError);
      EXPECT_EQ(it->status.code(), StatusCode::kInternal);
      // Fault fired on sweep 4: prefill token + 3 decoded tokens, and the
      // prefix it did produce matches the no-fault run bit for bit.
      ASSERT_EQ(it->tokens.size(), 4u);
      EXPECT_EQ(it->tokens, std::vector<int>(expect.begin(), expect.begin() + 4));
    } else {
      EXPECT_TRUE(it->ok) << it->status.ToString();
      EXPECT_EQ(it->tokens, expect) << "sibling " << id << " diverged";
    }
  }
  EXPECT_EQ(loop.stats().requests_failed, 1);
}

TEST(ServingLifecycleTest, DoomedCapacityAskIsRejectedAtSubmit) {
  // A request whose prompt + max_new_tokens can never fit max_seq used to be
  // admitted, burn its whole prefill plus every decode step the cache could
  // hold, and then retire kv_exhausted. It is now rejected at Submit with
  // zero engine work; its sibling is unaffected.
  MoeModelConfig config = TinyMoeConfig();
  config.max_seq = 16;
  auto weights =
      std::make_shared<const ModelWeights>(ModelWeights::Generate(TinyMoeConfig(), 60));
  HybridEngine engine(config, weights, EngineOptions{});
  ServingLoop loop(&engine, Concurrency(2));
  const std::vector<int> long_prompt = {1, 2, 3, 4, 5, 6, 7, 8};
  loop.Submit(Req(long_prompt, 20));  // 8 + 20 > 16: doomed, never admitted
  loop.Submit(Req({2}, 5));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 2u);

  const auto rejected = std::find_if(results.begin(), results.end(),
                                     [](const GenerationResult& r) { return r.id == 1; });
  ASSERT_NE(rejected, results.end());
  EXPECT_FALSE(rejected->ok);
  EXPECT_EQ(rejected->finish_reason, FinishReason::kRejected);
  EXPECT_EQ(rejected->status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(rejected->tokens.empty());
  EXPECT_EQ(loop.stats().requests_rejected, 1);
  // The doomed prompt never reached the engine: only the sibling prefilled.
  EXPECT_EQ(engine.counters().prefill_tokens, 1);

  const auto sibling = std::find_if(results.begin(), results.end(),
                                    [](const GenerationResult& r) { return r.id == 2; });
  ASSERT_NE(sibling, results.end());
  EXPECT_TRUE(sibling->ok);
  MoeModelConfig roomy = config;
  roomy.max_seq = 128;
  HybridEngine solo(roomy, weights, EngineOptions{});
  EXPECT_EQ(sibling->tokens, solo.GenerateGreedy({2}, 5));
}

TEST(ServingLifecycleTest, PagedPoolPressureRetiresYoungestRowMidGeneration) {
  // With paged KV, kv_exhausted mid-generation is a *shared-pool* condition:
  // both requests individually fit max_seq (so Submit admits them) but their
  // combined growth outruns a 4-block pool. The aggregate sweep check must
  // retire the YOUNGEST row (least sunk work) and give its blocks to the
  // older one, which then completes its full ask.
  MoeModelConfig config = TinyMoeConfig();
  config.max_seq = 16;
  auto weights =
      std::make_shared<const ModelWeights>(ModelWeights::Generate(TinyMoeConfig(), 60));
  EngineOptions opts;
  opts.kv_pool_blocks = 4;
  opts.kv_block_size = 4;  // 16 rows total: exactly ONE full context
  HybridEngine engine(config, weights, opts);
  ServingLoop loop(&engine, Concurrency(2));
  const std::vector<int> prompt_a = {1, 2, 3, 4};
  const std::vector<int> prompt_b = {7, 8, 9, 5};  // distinct: no prefix sharing
  loop.Submit(Req(prompt_a, 12));  // 4 + 12 = 16: fits max_seq exactly
  loop.Submit(Req(prompt_b, 12));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 2u);

  const auto first = std::find_if(results.begin(), results.end(),
                                  [](const GenerationResult& r) { return r.id == 1; });
  const auto second = std::find_if(results.begin(), results.end(),
                                   [](const GenerationResult& r) { return r.id == 2; });
  ASSERT_NE(first, results.end());
  ASSERT_NE(second, results.end());

  // The older request rides out the pressure and finishes in full, emitting
  // exactly what a contiguous solo engine produces.
  EXPECT_TRUE(first->ok) << first->status.ToString();
  EXPECT_EQ(first->finish_reason, FinishReason::kLength);
  HybridEngine solo_a(config, weights, EngineOptions{});
  EXPECT_EQ(first->tokens, solo_a.GenerateGreedy(prompt_a, 12));

  // The younger one is cut off by the pool, not by its own max_seq — and the
  // prefix it did emit is bit-identical to an unconstrained run.
  EXPECT_FALSE(second->ok);
  EXPECT_EQ(second->finish_reason, FinishReason::kKvExhausted);
  EXPECT_EQ(second->status.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(second->tokens.size(), 1u);
  EXPECT_LT(second->tokens.size(), 12u);
  HybridEngine solo_b(config, weights, EngineOptions{});
  const std::vector<int> full_b = solo_b.GenerateGreedy(prompt_b, 12);
  EXPECT_EQ(second->tokens,
            std::vector<int>(full_b.begin(),
                             full_b.begin() + static_cast<std::ptrdiff_t>(
                                                  second->tokens.size())));
  EXPECT_EQ(loop.stats().requests_failed, 1);
  // Pool telemetry made it into the serving stats.
  EXPECT_GT(loop.stats().kv_blocks_in_use, 0);
  EXPECT_GT(loop.stats().kv_utilization, 0.0);
}

TEST(ServingLifecycleTest, SessionPoolExhaustionRejectsInsteadOfAborting) {
  Fixture f;
  EngineOptions opts;
  opts.max_sessions = 2;  // built-in session 0 + one serving session
  HybridEngine engine(f.config, f.weights, opts);
  ServingLoop loop(&engine, Concurrency(2));
  loop.Submit(Req({1, 2}, 4));
  loop.Submit(Req({7, 8}, 4));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 2u);
  const auto& admitted = results[0].id == 1 ? results[0] : results[1];
  const auto& rejected = results[0].id == 2 ? results[0] : results[1];
  EXPECT_TRUE(admitted.ok);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.finish_reason, FinishReason::kRejected);
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.num_sessions(), 2);
}

TEST(ServingLifecycleTest, WholeBatchBackendFaultRetiresSweepAndLoopRecovers) {
  // A fault no row can be blamed for (device-wide) fails the whole sweep:
  // every active request retires with backend_error — and the loop, not the
  // process, absorbs it: the next submission completes normally.
  Fixture f;
  ServingLoop loop(f.engine.get(), Concurrency(2));
  loop.Submit(Req({1, 2}, 6));
  loop.Submit(Req({7, 8}, 6));
  // Polls 1+2 are the two admission prefills; poll 3 is the first batched
  // decode sweep, where the fault lands.
  f.engine->InjectBackendFault(InternalError("device wedged"), /*after_polls=*/2);
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 2u);
  for (const GenerationResult& r : results) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.finish_reason, FinishReason::kBackendError);
    EXPECT_EQ(r.status.code(), StatusCode::kInternal);
    EXPECT_EQ(r.tokens.size(), 1u);  // the prefill token; the sweep never ran
  }
  EXPECT_EQ(loop.stats().requests_failed, 2);

  // Fault consumed: the loop keeps serving.
  loop.Submit(Req({3, 1, 4}, 4));
  const auto after = loop.RunToCompletion();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_TRUE(after[0].ok);
  HybridEngine solo(f.config, f.weights, EngineOptions{});
  EXPECT_EQ(after[0].tokens, solo.GenerateGreedy({3, 1, 4}, 4));
}

TEST(ServingTest, SampledRequestsAreSeedDeterministic) {
  Fixture f;
  auto run_once = [&] {
    HybridEngine engine(f.config, f.weights, EngineOptions{});
    ServingLoop loop(&engine, Concurrency(2));
    GenerationRequest r = Req({9, 1}, 8);
    r.sampling.temperature = 0.7f;
    r.sampling.seed = 42;
    loop.Submit(std::move(r));
    return loop.RunToCompletion()[0].tokens;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace ktx
