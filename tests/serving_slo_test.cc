// SLO-aware serving: deadline-honest accounting, slack scheduling and
// KV-preserving preemption.
//
// The load-bearing guarantee here is bit-identity: a preempted-and-resumed
// request must emit EXACTLY the tokens of an uninterrupted run (tolerance 0),
// because resume restores the saved KV bits (blob + block adoption) instead
// of re-prefilling generated tokens through a different kernel dispatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "bench/arrival_trace.h"
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

std::vector<int> Prompt(int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    p[static_cast<std::size_t>(i)] = (i * 7 + 3) % 250;
  }
  return p;
}

const GenerationResult& FindResult(const std::vector<GenerationResult>& results,
                                   std::uint64_t id) {
  const auto it = std::find_if(results.begin(), results.end(),
                               [&](const GenerationResult& r) { return r.id == id; });
  EXPECT_NE(it, results.end()) << "no result for request " << id;
  return *it;
}

// --- the starvation bugfix ---------------------------------------------------

TEST(SloQueueTest, QueueFullOfExpiredRequestsDoesNotStarveFreshSubmit) {
  // Regression: expired requests used to be detected only at admission, so a
  // queue packed with dead requests pinned every max_queue slot and fresh
  // arrivals were rejected kResourceExhausted. Submit now sweeps expiries
  // before judging capacity.
  Fixture f;
  ServingOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 4;
  ServingLoop loop(f.engine.get(), opts);
  std::vector<std::uint64_t> dead_ids;
  for (int i = 0; i < 4; ++i) {
    GenerationRequest doomed = Req({5, 5}, 4);
    doomed.deadline_s = 1e-12;  // expired by the time anything looks at it
    dead_ids.push_back(loop.Submit(std::move(doomed)));
  }
  const std::uint64_t fresh_id = loop.Submit(Req({3, 1, 4}, 4));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 5u);

  const GenerationResult& fresh = FindResult(results, fresh_id);
  EXPECT_TRUE(fresh.ok) << fresh.status.message();
  EXPECT_EQ(fresh.finish_reason, FinishReason::kLength);
  EXPECT_EQ(fresh.tokens.size(), 4u);
  for (const std::uint64_t id : dead_ids) {
    const GenerationResult& dead = FindResult(results, id);
    EXPECT_FALSE(dead.ok);
    EXPECT_EQ(dead.finish_reason, FinishReason::kDeadline);
    EXPECT_EQ(dead.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(dead.tokens.empty());
  }
  // Never admitted => not a rejection, not a completion, not a failure.
  EXPECT_EQ(loop.stats().requests_deadline_expired, 4);
  EXPECT_EQ(loop.stats().requests_rejected, 0);
  EXPECT_EQ(loop.stats().requests_completed, 1);
  EXPECT_EQ(loop.stats().requests_failed, 0);
}

TEST(SloQueueTest, PerIterationSweepExpiresQueuedRequestWithoutNewSubmits) {
  // The sweep must not depend on Submit traffic: a request that expires
  // while queued behind a running one is retired by the loop itself.
  Fixture f;
  ServingOptions opts;
  opts.max_concurrent = 1;
  ServingLoop loop(f.engine.get(), opts);
  const std::uint64_t front_id = loop.Submit(Req(Prompt(8), 12));
  GenerationRequest doomed = Req({5, 5}, 4);
  doomed.deadline_s = 1e-12;
  const std::uint64_t doomed_id = loop.Submit(std::move(doomed));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(FindResult(results, front_id).ok);
  const GenerationResult& dead = FindResult(results, doomed_id);
  EXPECT_EQ(dead.finish_reason, FinishReason::kDeadline);
  EXPECT_EQ(loop.stats().requests_deadline_expired, 1);
  EXPECT_EQ(loop.stats().requests_rejected, 0);
}

// --- deadline accounting split across expiry paths ---------------------------

TEST(SloStatsTest, QueueExpiryCountsExpiredNotRejectedNotCompleted) {
  Fixture f;
  ServingLoop loop(f.engine.get(), Concurrency(1));
  GenerationRequest doomed = Req({5, 5}, 4);
  doomed.deadline_s = 1e-12;
  loop.Submit(std::move(doomed));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].finish_reason, FinishReason::kDeadline);
  EXPECT_EQ(loop.stats().requests_deadline_expired, 1);
  EXPECT_EQ(loop.stats().requests_rejected, 0);
  EXPECT_EQ(loop.stats().requests_completed, 0);
  EXPECT_EQ(loop.stats().requests_failed, 0);
}

TEST(SloStatsTest, PrefillExpiryCountsExpiredAndCompletedAndFailed) {
  // An 8000-token prompt under a 0.25 s deadline deterministically expires
  // between prefill chunks (same construction as the stall-free tests).
  Fixture f;
  f.config.max_seq = 8192;
  f.engine = std::make_unique<HybridEngine>(f.config, f.weights, EngineOptions{});
  ServingLoop loop(f.engine.get(), Concurrency(1));
  GenerationRequest doomed = Req(Prompt(8000), 4);
  doomed.deadline_s = 0.25;
  loop.Submit(std::move(doomed));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].finish_reason, FinishReason::kDeadline);
  EXPECT_NE(results[0].status.message().find("prompt tokens prefilled"), std::string::npos)
      << results[0].status.message();
  EXPECT_EQ(loop.stats().requests_deadline_expired, 1);
  EXPECT_EQ(loop.stats().requests_completed, 1);
  EXPECT_EQ(loop.stats().requests_failed, 1);
  EXPECT_EQ(loop.stats().requests_rejected, 0);
}

TEST(SloStatsTest, DecodeExpiryCountsExpiredAndLateTokensEarnNoGoodput) {
  // Nearly the whole 8192-position budget under a 50 ms deadline: expires
  // mid-decode. Its sibling (no deadline) finishes OK and is the only
  // goodput contributor.
  Fixture f;
  f.config.max_seq = 8192;
  f.engine = std::make_unique<HybridEngine>(f.config, f.weights, EngineOptions{});
  ServingLoop loop(f.engine.get(), Concurrency(2));
  GenerationRequest doomed = Req({5, 5}, 8190);
  doomed.deadline_s = 0.05;
  const std::uint64_t doomed_id = loop.Submit(std::move(doomed));
  const std::uint64_t ok_id = loop.Submit(Req({3, 1, 4}, 6));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(FindResult(results, doomed_id).finish_reason, FinishReason::kDeadline);
  const GenerationResult& ok = FindResult(results, ok_id);
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(loop.stats().requests_deadline_expired, 1);
  EXPECT_EQ(loop.stats().requests_completed, 2);
  EXPECT_EQ(loop.stats().requests_failed, 1);
  // Goodput counts only the in-deadline finisher, not the expired stream.
  EXPECT_EQ(loop.stats().goodput_tokens, static_cast<std::int64_t>(ok.tokens.size()));
  EXPECT_GT(loop.stats().tokens_generated, loop.stats().goodput_tokens);
}

// --- request validation ------------------------------------------------------

TEST(SloValidationTest, NegativeDeadlineIsInvalidArgumentNotSilentNoDeadline) {
  Fixture f;
  ServingLoop loop(f.engine.get(), Concurrency(1));
  GenerationRequest bad = Req({5, 5}, 4);
  bad.deadline_s = -1.0;
  loop.Submit(std::move(bad));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].finish_reason, FinishReason::kRejected);
  EXPECT_EQ(results[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loop.stats().requests_rejected, 1);
  EXPECT_EQ(loop.stats().requests_deadline_expired, 0);
}

TEST(SloValidationTest, PriorityOutsideRangeIsInvalidArgument) {
  Fixture f;
  ServingLoop loop(f.engine.get(), Concurrency(1));
  GenerationRequest low = Req({5, 5}, 2);
  low.priority = -1;
  loop.Submit(std::move(low));
  GenerationRequest high = Req({5, 5}, 2);
  high.priority = kMaxRequestPriority + 1;
  loop.Submit(std::move(high));
  GenerationRequest top = Req({5, 5}, 2);
  top.priority = kMaxRequestPriority;  // inclusive bound is admissible
  loop.Submit(std::move(top));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(FindResult(results, 3).ok);
  EXPECT_EQ(loop.stats().requests_rejected, 2);
}

// --- scheduling order --------------------------------------------------------

TEST(SloScheduleTest, SlackPolicyAdmitsTightDeadlineBeforeDeadlineFree) {
  // max_concurrent = 1 serializes the loop, so completion order IS admission
  // order. The deadline-free request (infinite slack) yields to the
  // deadlined one despite submitting first.
  Fixture f;
  ServingOptions opts;
  opts.max_concurrent = 1;
  opts.policy = SchedulePolicy::kSlack;
  ServingLoop loop(f.engine.get(), opts);
  const std::uint64_t relaxed_id = loop.Submit(Req({1, 2}, 3));
  GenerationRequest urgent = Req({7, 8, 9}, 3);
  urgent.deadline_s = 30.0;  // loose enough to never expire, tight vs infinity
  const std::uint64_t urgent_id = loop.Submit(std::move(urgent));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, urgent_id);
  EXPECT_EQ(results[1].id, relaxed_id);
  EXPECT_TRUE(results[0].ok);
  EXPECT_TRUE(results[1].ok);
}

TEST(SloScheduleTest, HigherPriorityClassAdmitsFirstRegardlessOfSlack) {
  Fixture f;
  ServingOptions opts;
  opts.max_concurrent = 1;
  opts.policy = SchedulePolicy::kSlack;
  ServingLoop loop(f.engine.get(), opts);
  GenerationRequest batch = Req({1, 2}, 3);
  batch.deadline_s = 30.0;  // finite slack, but a lower class
  const std::uint64_t batch_id = loop.Submit(std::move(batch));
  GenerationRequest vip = Req({7, 8, 9}, 3);
  vip.priority = 2;
  const std::uint64_t vip_id = loop.Submit(std::move(vip));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, vip_id);
  EXPECT_EQ(results[1].id, batch_id);
}

TEST(SloScheduleTest, FifoPolicyKeepsSubmitOrder) {
  Fixture f;
  ServingOptions opts;
  opts.max_concurrent = 1;
  opts.policy = SchedulePolicy::kFifo;
  ServingLoop loop(f.engine.get(), opts);
  const std::uint64_t first_id = loop.Submit(Req({1, 2}, 3));
  GenerationRequest urgent = Req({7, 8, 9}, 3);
  urgent.deadline_s = 30.0;
  urgent.priority = 2;
  loop.Submit(std::move(urgent));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, first_id);
}

TEST(SloScheduleTest, DeadlineFreeWorkloadSchedulesExactlyLikeFifo) {
  // The compatibility guarantee behind defaulting to kSlack: without
  // deadlines or priorities every key is (0, feasible, inf) and ties break
  // by submit id.
  Fixture f;
  ServingOptions opts;
  opts.max_concurrent = 1;
  opts.policy = SchedulePolicy::kSlack;
  ServingLoop loop(f.engine.get(), opts);
  for (int i = 0; i < 4; ++i) {
    loop.Submit(Req({i + 1}, 2));
  }
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].id, i + 1);
  }
}

// --- KV-preserving preemption: bit-identity ----------------------------------

struct PreemptCase {
  const char* name;
  bool mla;
  bool graph;
  bool paged;
};

void ExpectPreemptResumeBitIdentical(const PreemptCase& pc) {
  SCOPED_TRACE(pc.name);
  const MoeModelConfig config = pc.mla ? TinyMlaConfig() : TinyMoeConfig();
  const auto weights =
      std::make_shared<const ModelWeights>(ModelWeights::Generate(config, 60));
  EngineOptions eopts;
  eopts.use_cuda_graph = pc.graph;
  if (pc.paged) {
    eopts.kv_pool_blocks = 64;
    eopts.kv_block_size = 4;
  }
  HybridEngine engine(config, weights, eopts);
  ServingOptions sopts;
  sopts.max_concurrent = 1;
  sopts.policy = SchedulePolicy::kSlackPreempt;
  ServingLoop loop(&engine, sopts);

  const std::vector<int> victim_prompt = {3, 1, 4, 1, 5};
  const int victim_new = 24;
  GenerationRequest victim = Req(victim_prompt, victim_new);
  const std::uint64_t victim_id = loop.Submit(std::move(victim));
  // Let the victim prefill and decode a handful of tokens mid-stream.
  for (int i = 0; i < 6; ++i) {
    loop.RunOnce();
  }
  const std::vector<int> vip_prompt = {2, 7, 1};
  GenerationRequest vip = Req(vip_prompt, 4);
  vip.priority = 2;
  const std::uint64_t vip_id = loop.Submit(std::move(vip));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 2u);

  const GenerationResult& victim_result = FindResult(results, victim_id);
  const GenerationResult& vip_result = FindResult(results, vip_id);
  ASSERT_TRUE(victim_result.ok) << victim_result.status.message();
  ASSERT_TRUE(vip_result.ok) << vip_result.status.message();
  EXPECT_GE(victim_result.preemptions, 1);
  EXPECT_GE(loop.stats().preemptions, 1);
  EXPECT_GE(loop.stats().preempt_resumes, 1);
  EXPECT_GE(loop.stats().preempt_tokens_preserved,
            static_cast<std::int64_t>(victim_prompt.size()));
  if (pc.paged) {
    // Resume must adopt the victim's own still-resident blocks, not copy
    // everything back through the blob.
    EXPECT_GE(loop.stats().preempt_tokens_adopted, 4);
  }

  // Tolerance 0: the preempted stream equals the uninterrupted one exactly.
  HybridEngine solo_victim(config, weights, eopts);
  EXPECT_EQ(victim_result.tokens, solo_victim.GenerateGreedy(victim_prompt, victim_new));
  HybridEngine solo_vip(config, weights, eopts);
  EXPECT_EQ(vip_result.tokens, solo_vip.GenerateGreedy(vip_prompt, 4));
}

TEST(SloPreemptTest, ResumedStreamBitIdenticalGqaGraphContiguous) {
  ExpectPreemptResumeBitIdentical({"gqa/graph/contiguous", false, true, false});
}

TEST(SloPreemptTest, ResumedStreamBitIdenticalGqaGraphPaged) {
  ExpectPreemptResumeBitIdentical({"gqa/graph/paged", false, true, true});
}

TEST(SloPreemptTest, ResumedStreamBitIdenticalGqaNoGraphPaged) {
  ExpectPreemptResumeBitIdentical({"gqa/nograph/paged", false, false, true});
}

TEST(SloPreemptTest, ResumedStreamBitIdenticalMlaGraphContiguous) {
  ExpectPreemptResumeBitIdentical({"mla/graph/contiguous", true, true, false});
}

TEST(SloPreemptTest, ResumedStreamBitIdenticalMlaNoGraphPaged) {
  ExpectPreemptResumeBitIdentical({"mla/nograph/paged", true, false, true});
}

TEST(SloPreemptTest, PrefillingVictimRequeuesAndStillMatchesSolo) {
  // A victim caught mid-prefill has sampled nothing: it re-queues as pending
  // and re-prefills through the same engine-fixed chunk grid, which is
  // bit-identical by the stall-free guarantee.
  MoeModelConfig config = TinyMoeConfig();
  config.max_seq = 256;
  const auto weights =
      std::make_shared<const ModelWeights>(ModelWeights::Generate(config, 60));
  EngineOptions eopts;
  eopts.prefill_chunk = 16;
  HybridEngine engine(config, weights, eopts);
  ServingOptions sopts;
  sopts.max_concurrent = 1;
  sopts.policy = SchedulePolicy::kSlackPreempt;
  sopts.prefill_budget_tokens = 16;  // one chunk per sweep: long prefill window
  ServingLoop loop(&engine, sopts);

  const std::vector<int> long_prompt = Prompt(96);
  const std::uint64_t victim_id = loop.Submit(Req(long_prompt, 6));
  loop.RunOnce();  // victim is now mid-prefill (16 of 96 tokens)
  GenerationRequest vip = Req({2, 7, 1}, 3);
  vip.priority = 2;
  const std::uint64_t vip_id = loop.Submit(std::move(vip));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 2u);

  const GenerationResult& victim_result = FindResult(results, victim_id);
  ASSERT_TRUE(victim_result.ok) << victim_result.status.message();
  EXPECT_GE(victim_result.preemptions, 1);
  EXPECT_TRUE(FindResult(results, vip_id).ok);
  HybridEngine solo(config, weights, eopts);
  EXPECT_EQ(victim_result.tokens, solo.GenerateGreedy(long_prompt, 6));
}

TEST(SloPreemptTest, EqualPriorityNeverPreempts) {
  Fixture f;
  ServingOptions opts;
  opts.max_concurrent = 1;
  opts.policy = SchedulePolicy::kSlackPreempt;
  ServingLoop loop(f.engine.get(), opts);
  loop.Submit(Req({3, 1, 4}, 12));
  for (int i = 0; i < 4; ++i) {
    loop.RunOnce();
  }
  GenerationRequest rival = Req({2, 7, 1}, 3);
  rival.deadline_s = 30.0;  // tighter slack, same class
  loop.Submit(std::move(rival));
  loop.RunToCompletion();
  EXPECT_EQ(loop.stats().preemptions, 0);
}

// --- arrival traces ----------------------------------------------------------

TEST(ArrivalTraceTest, SameSeedSameTrace) {
  ArrivalTraceOptions opts;
  opts.rate_rps = 200.0;
  opts.duration_s = 2.0;
  opts.seed = 42;
  const auto a = GenerateArrivalTimes(opts);
  const auto b = GenerateArrivalTimes(opts);
  EXPECT_EQ(a, b);  // bit-identical, not merely close
  EXPECT_GT(a.size(), 100u);
  opts.seed = 43;
  EXPECT_NE(GenerateArrivalTimes(opts), a);
}

TEST(ArrivalTraceTest, TracesAreSortedAndBounded) {
  for (const bool bursty : {false, true}) {
    ArrivalTraceOptions opts;
    opts.rate_rps = 500.0;
    opts.duration_s = 1.0;
    opts.bursty = bursty;
    opts.seed = 7;
    const auto trace = GenerateArrivalTimes(opts);
    ASSERT_FALSE(trace.empty());
    EXPECT_TRUE(std::is_sorted(trace.begin(), trace.end()));
    EXPECT_GE(trace.front(), 0.0);
    EXPECT_LT(trace.back(), opts.duration_s);
  }
}

TEST(ArrivalTraceTest, BurstyTraceIsDeterministicAndDenserThanBase) {
  ArrivalTraceOptions opts;
  opts.rate_rps = 300.0;
  opts.duration_s = 2.0;
  opts.bursty = true;
  opts.burst_rate_multiplier = 6.0;
  opts.seed = 11;
  const auto a = GenerateArrivalTimes(opts);
  EXPECT_EQ(a, GenerateArrivalTimes(opts));
  opts.bursty = false;
  // Burst phases raise the average rate, so over a long window the bursty
  // trace carries more arrivals than the plain Poisson one (same seed).
  EXPECT_GT(a.size(), GenerateArrivalTimes(opts).size());
}

}  // namespace
}  // namespace ktx
