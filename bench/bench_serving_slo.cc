// Goodput under open-loop load: FIFO vs slack-ordered scheduling.
//
// The serving loop is driven open-loop (arrivals fire on a wall clock from a
// seeded bursty trace, regardless of how fast the loop drains) across a sweep
// of offered loads, from half the engine's measured capacity to 8x overload.
// The workload is the two-class mix SLO scheduling exists for:
//
//   * ~70% batch: long prompt, more tokens, priority 0, a loose deadline.
//   * ~30% interactive: short prompt, few tokens, priority 2, a tight
//     deadline a queue of batch work easily blows through.
//
// Goodput — tokens of requests that finished within their deadline — is the
// contested metric. FIFO burns capacity on requests that are already doomed
// and makes interactive arrivals wait behind batch prompts; slack ordering
// admits the higher class first, serves feasible-first and sheds the doomed.
// Every completed stream is checked against a solo run of the same prompt —
// scheduling must not change a single token.
//
// Emits BENCH_serving_slo.json. Acceptance: at the highest load, slack
// scheduling delivers >= 1.5x FIFO's goodput, with zero stream mismatches
// anywhere in the sweep.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/arrival_trace.h"
#include "src/common/metrics.h"
#include "src/serve/serving.h"

namespace {

ktx::MoeModelConfig BenchConfig() {
  ktx::MoeModelConfig c = ktx::TinyMoeConfig();
  c.max_seq = 512;
  c.num_layers = 9;
  c.first_dense_layers = 1;
  c.hidden = 16;
  c.vocab = 16;
  c.dense_inter = 16;
  c.moe_inter = 16;
  c.num_experts = 4;
  c.top_k = 3;
  c.num_heads = 1;
  c.num_kv_heads = 1;
  c.head_dim = 16;
  return c;
}

ktx::EngineOptions BenchEngineOptions() {
  ktx::EngineOptions eopts;
  eopts.prefill_chunk = 32;
  eopts.max_batch = 8;
  eopts.cpu_threads = 2;
  eopts.numa_mode = ktx::NumaMode::kSingleSocket;
  // Paged KV + prefix cache, the serving configuration. Pool sized to stay out
  // of the way.
  eopts.kv_pool_blocks = 512;
  eopts.kv_block_size = 16;
  return eopts;
}

constexpr int kBatchPromptTokens = 96;
constexpr int kBatchNewTokens = 64;
constexpr int kInteractivePromptTokens = 16;
constexpr int kInteractiveNewTokens = 8;
constexpr int kPromptPoolPerClass = 4;
constexpr double kInteractiveFraction = 0.3;
constexpr std::uint64_t kTraceSeed = 2025;
constexpr double kTraceDurationS = 1.5;
// One solo pass over the prompt pool read 31-208 rps of capacity at unchanged
// code on a shared 4-core host, so the calibration takes the median of
// several interleaved passes.
constexpr int kCalibrationPasses = 5;

// Small pool of distinct prompts per class: enough variety to defeat pure
// prefix reuse, few enough to precompute every solo reference stream.
std::vector<int> PoolPrompt(bool interactive, int variant, int vocab) {
  const int n = interactive ? kInteractivePromptTokens : kBatchPromptTokens;
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    p[static_cast<std::size_t>(i)] =
        ((interactive ? 5 : 7) * i + 3 * variant + 1) % vocab;
  }
  return p;
}

struct WorkItem {
  double arrival_s = 0.0;
  int pool_index = 0;  // into the precomputed prompt/reference pool
  ktx::GenerationRequest request;
};

struct PoolEntry {
  std::vector<int> prompt;
  int max_new = 0;
  std::vector<int> reference;  // solo uninterrupted greedy stream
};

struct TrialOutcome {
  std::int64_t goodput_tokens = 0;
  std::int64_t tokens_generated = 0;
  std::int64_t deadline_expired = 0;
  std::int64_t completed_ok = 0;
  std::int64_t stream_mismatches = 0;
  double elapsed_s = 0.0;
  ktx::ServingLoop::Stats stats;  // full loop stats, serialized per trial
};

TrialOutcome RunTrial(const ktx::MoeModelConfig& config,
                      const std::shared_ptr<const ktx::ModelWeights>& weights,
                      ktx::SchedulePolicy policy, const std::vector<WorkItem>& work,
                      const std::vector<PoolEntry>& pool) {
  ktx::HybridEngine engine(config, weights, BenchEngineOptions());
  ktx::ServingOptions sopts;
  sopts.max_concurrent = 4;
  sopts.max_queue = 512;  // overload is shed by deadlines, not queue bounds
  sopts.policy = policy;
  ktx::ServingLoop loop(&engine, sopts);
  // Warmup: capture the decode graph and seed the timing EMAs the slack
  // estimates read.
  loop.Submit([&] {
    ktx::GenerationRequest r;
    r.prompt = pool[0].prompt;
    r.max_new_tokens = 4;
    return r;
  }());
  loop.RunToCompletion();

  std::unordered_map<std::uint64_t, int> pool_of_id;
  ktx::Stopwatch clock;
  std::size_t next = 0;
  while (next < work.size() || loop.pending() > 0) {
    const double now = clock.ElapsedSeconds();
    while (next < work.size() && work[next].arrival_s <= now) {
      pool_of_id[loop.Submit(work[next].request)] = work[next].pool_index;
      ++next;
    }
    loop.RunOnce();  // returns immediately when idle between arrivals
  }
  TrialOutcome out;
  out.elapsed_s = clock.ElapsedSeconds();
  for (const ktx::GenerationResult& res : loop.TakeResults()) {
    if (!res.ok) {
      continue;
    }
    ++out.completed_ok;
    // Every finished stream ran to max_new_tokens (no EOS in this workload):
    // it must equal the solo reference bit for bit.
    const auto it = pool_of_id.find(res.id);
    if (it != pool_of_id.end() &&
        res.tokens != pool[static_cast<std::size_t>(it->second)].reference) {
      ++out.stream_mismatches;
    }
  }
  const ktx::ServingLoop::Stats& stats = loop.stats();
  out.goodput_tokens = stats.goodput_tokens;
  out.tokens_generated = stats.tokens_generated;
  out.deadline_expired = stats.requests_deadline_expired;
  out.stats = stats;
  return out;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  const ktx::MoeModelConfig config = BenchConfig();
  const auto weights =
      std::make_shared<const ktx::ModelWeights>(ktx::ModelWeights::Generate(config, 7));

  // --- calibrate: measure per-class service time, derive capacity -----------
  // Each pass times one solo run of every prompt in the pool, so the passes
  // interleave rather than timing one prompt back to back; a pass's class
  // figure is the mean over that class's prompts. Capacity and deadlines use
  // each class's median over the passes, and the JSON records the min-max
  // spread of the passes' capacities. The first pass's streams are the
  // references every served stream must equal.
  std::vector<PoolEntry> pool;
  for (int v = 0; v < kPromptPoolPerClass; ++v) {
    pool.push_back({PoolPrompt(false, v, config.vocab), kBatchNewTokens, {}});
  }
  for (int v = 0; v < kPromptPoolPerClass; ++v) {
    pool.push_back({PoolPrompt(true, v, config.vocab), kInteractiveNewTokens, {}});
  }
  ktx::HybridEngine solo(config, weights, BenchEngineOptions());
  solo.GenerateGreedy(pool.back().prompt, 4);  // graph capture outside timers
  const auto capacity_of = [](double batch_s, double interactive_s) {
    return 1.0 / ((1.0 - kInteractiveFraction) * batch_s + kInteractiveFraction * interactive_s);
  };
  std::vector<double> batch_pass_s;
  std::vector<double> interactive_pass_s;
  std::vector<double> capacity_pass_rps;
  for (int pass = 0; pass < kCalibrationPasses; ++pass) {
    double batch_s = 0.0;
    double interactive_s = 0.0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      ktx::Stopwatch clock;
      std::vector<int> stream = solo.GenerateGreedy(pool[i].prompt, pool[i].max_new);
      const double s = clock.ElapsedSeconds();
      if (pass == 0) {
        pool[i].reference = std::move(stream);
      }
      (i < kPromptPoolPerClass ? batch_s : interactive_s) += s / kPromptPoolPerClass;
    }
    batch_pass_s.push_back(batch_s);
    interactive_pass_s.push_back(interactive_s);
    capacity_pass_rps.push_back(capacity_of(batch_s, interactive_s));
  }
  const double batch_service_s = Median(batch_pass_s);
  const double interactive_service_s = Median(interactive_pass_s);
  const double capacity_rps = capacity_of(batch_service_s, interactive_service_s);
  const auto [capacity_min, capacity_max] =
      std::minmax_element(capacity_pass_rps.begin(), capacity_pass_rps.end());
  // Loose enough to survive moderate queueing, tight enough that overload
  // kills them: the spread FIFO cannot exploit and slack scheduling can.
  const double batch_deadline_s = 6.0 * batch_service_s;
  const double interactive_deadline_s = 3.0 * interactive_service_s + 0.008;

  std::printf("=== SLO serving: goodput vs offered load, %s arrivals over %.1fs ===\n",
              "bursty (MMPP)", kTraceDurationS);
  std::printf("calibration (median of %d passes): batch %.1fms/req, interactive %.1fms/req "
              "-> capacity %.1f rps (passes %.1f-%.1f rps)\n",
              kCalibrationPasses, batch_service_s * 1e3, interactive_service_s * 1e3,
              capacity_rps, *capacity_min, *capacity_max);
  std::printf("deadlines: batch %.0fms (priority 0), interactive %.0fms (priority 2)\n\n",
              batch_deadline_s * 1e3, interactive_deadline_s * 1e3);

  const double loads[] = {0.5, 1.0, 2.0, 4.0, 8.0};
  const ktx::SchedulePolicy policies[] = {ktx::SchedulePolicy::kFifo,
                                          ktx::SchedulePolicy::kSlack};
  std::printf("%-14s %6s %9s %9s %9s %8s %10s\n", "policy", "load", "goodput", "tokens",
              "expired", "ok", "mismatch");

  struct TrialRecord {
    ktx::SchedulePolicy policy;
    double load;
    TrialOutcome out;
  };
  std::vector<TrialRecord> records;
  std::int64_t total_mismatches = 0;
  for (const double load : loads) {
    // One trace per load, shared verbatim by both policies: identical
    // arrival instants, classes, prompts and deadlines.
    ktx::ArrivalTraceOptions topts;
    topts.rate_rps = load * capacity_rps;
    topts.duration_s = kTraceDurationS;
    topts.bursty = true;
    topts.burst_rate_multiplier = 3.0;
    topts.mean_phase_s = 0.2;
    topts.seed = kTraceSeed;
    const std::vector<double> arrivals = ktx::GenerateArrivalTimes(topts);
    ktx::Rng mix(kTraceSeed ^ 0x5107);
    std::vector<WorkItem> work;
    for (const double t : arrivals) {
      const bool interactive = mix.NextDouble() < kInteractiveFraction;
      const int variant = static_cast<int>(mix.NextBounded(kPromptPoolPerClass));
      WorkItem item;
      item.arrival_s = t;
      item.pool_index = (interactive ? kPromptPoolPerClass : 0) + variant;
      item.request.prompt = pool[static_cast<std::size_t>(item.pool_index)].prompt;
      item.request.max_new_tokens = pool[static_cast<std::size_t>(item.pool_index)].max_new;
      item.request.deadline_s = interactive ? interactive_deadline_s : batch_deadline_s;
      item.request.priority = interactive ? 2 : 0;
      work.push_back(std::move(item));
    }
    for (const ktx::SchedulePolicy policy : policies) {
      const TrialOutcome out = RunTrial(config, weights, policy, work, pool);
      total_mismatches += out.stream_mismatches;
      records.push_back({policy, load, out});
      std::printf("%-14s %5.1fx %9lld %9lld %9lld %8lld %10lld\n",
                  std::string(ktx::SchedulePolicyName(policy)).c_str(), load,
                  static_cast<long long>(out.goodput_tokens),
                  static_cast<long long>(out.tokens_generated),
                  static_cast<long long>(out.deadline_expired),
                  static_cast<long long>(out.completed_ok),
                  static_cast<long long>(out.stream_mismatches));
    }
  }

  std::int64_t fifo_overload = 0;
  std::int64_t slack_overload = 0;
  for (const TrialRecord& r : records) {
    if (r.load == loads[4]) {
      if (r.policy == ktx::SchedulePolicy::kFifo) fifo_overload = r.out.goodput_tokens;
      if (r.policy == ktx::SchedulePolicy::kSlack) slack_overload = r.out.goodput_tokens;
    }
  }
  const double ratio = fifo_overload > 0
                           ? static_cast<double>(slack_overload) / fifo_overload
                           : (slack_overload > 0 ? 1e9 : 0.0);
  std::printf("\nat %.0fx overload: fifo %lld, slack %lld goodput tokens -> slack/fifo "
              "%.2fx   stream mismatches: %lld\n",
              loads[4], static_cast<long long>(fifo_overload),
              static_cast<long long>(slack_overload), ratio,
              static_cast<long long>(total_mismatches));

  ktx::JsonWriter w;
  w.BeginObject();
  w.Key("fixture");
  w.BeginObject();
  w.Field("config", "micro-moe-9L");
  char buf[192];
  std::snprintf(buf, sizeof(buf), "bursty MMPP, seed %llu, %.1fs",
                static_cast<unsigned long long>(kTraceSeed), kTraceDurationS);
  w.Field("arrivals", buf);
  w.Field("capacity_rps", capacity_rps);
  w.Field("calibration_passes", kCalibrationPasses);
  w.Field("capacity_rps_min", *capacity_min);
  w.Field("capacity_rps_max", *capacity_max);
  std::snprintf(buf, sizeof(buf),
                "%.0f%% batch (%d+%d tok, pri 0, %.0fms deadline), "
                "%.0f%% interactive (%d+%d tok, pri 2, %.0fms deadline)",
                (1.0 - kInteractiveFraction) * 100.0, kBatchPromptTokens, kBatchNewTokens,
                batch_deadline_s * 1e3, kInteractiveFraction * 100.0,
                kInteractivePromptTokens, kInteractiveNewTokens,
                interactive_deadline_s * 1e3);
  w.Field("workload", buf);
  w.Field("max_concurrent", 4);
  w.Field("kv", "paged, prefix cache on");
  w.EndObject();
  w.Key("trials");
  w.BeginArray();
  for (const TrialRecord& r : records) {
    w.BeginObject();
    w.Field("policy", ktx::SchedulePolicyName(r.policy));
    w.Field("load", r.load);
    w.Field("goodput_tokens", r.out.goodput_tokens);
    w.Field("tokens_generated", r.out.tokens_generated);
    w.Field("deadline_expired", r.out.deadline_expired);
    w.Field("completed_ok", r.out.completed_ok);
    w.Field("stream_mismatches", r.out.stream_mismatches);
    w.Field("elapsed_s", r.out.elapsed_s);
    w.Key("stats");
    r.out.stats.AppendJson(w);
    w.EndObject();
  }
  w.EndArray();
  w.Key("overload_goodput");
  w.BeginObject();
  w.Field("fifo", fifo_overload);
  w.Field("slack", slack_overload);
  w.EndObject();
  w.Field("goodput_ratio_slack_over_fifo_at_overload", ratio);
  w.Field("stream_mismatches", total_mismatches);
  w.Field("accept_goodput_ge_1p5x", ratio >= 1.5);
  w.Field("accept_streams_bit_identical", total_mismatches == 0);
  w.EndObject();

  std::FILE* f = std::fopen("BENCH_serving_slo.json", "w");
  if (f != nullptr) {
    std::fwrite(w.str().data(), 1, w.str().size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote BENCH_serving_slo.json\n");
  }
  return 0;
}
