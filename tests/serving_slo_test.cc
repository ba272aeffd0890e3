// SLO-aware serving: deadline-honest accounting and slack scheduling.

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
  // goodput contributor. The clock advances 1 ms per sweep by hand, so the
  // deadline lands on the 52nd sweep whatever a step costs on the host.
  Fixture f;
  f.config.max_seq = 8192;
  f.engine = std::make_unique<HybridEngine>(f.config, f.weights, EngineOptions{});
  std::int64_t now_ns = 0;
  ServingLoop loop(f.engine.get(), Concurrency(2), [&now_ns] { return now_ns; });
  GenerationRequest doomed = Req({5, 5}, 8190);
  doomed.deadline_s = 0.05;
  const std::uint64_t doomed_id = loop.Submit(std::move(doomed));
  const std::uint64_t ok_id = loop.Submit(Req({3, 1, 4}, 6));
  while (loop.pending() > 0) {
    loop.RunOnce();
    now_ns += 1'000'000;
  }
  const auto results = loop.TakeResults();
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
