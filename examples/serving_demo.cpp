// Low-concurrency serving demo (paper §1's local-deployment regime).
//
// Several generation requests with different prompts, lengths and sampling
// settings are queued against one hybrid engine; the serving loop admits a
// bounded number concurrently (each on its own KV-cache session over the
// shared weights and one captured decode graph) and decodes them together,
// one batched step per sweep. One long-prompt request arrives mid-stream: its
// prefill is chunked and interleaved with the residents' decode sweeps
// (prefill_budget_tokens), so their time-between-tokens stays bounded —
// watch the loop-level TBT percentiles at the end.
//
//   ./serving_demo
//   ./serving_demo --trace=serving_trace.json   # Perfetto-loadable trace
//
// With --trace, the whole run is recorded by the in-process tracer: one
// lifecycle track per request (submit -> queued -> prefill -> decode ->
// retire, with the finish reason and deadline slack),
// engine prefill/decode spans, CPU MoE sweep spans, and KV pool instants. Load the file at https://ui.perfetto.dev.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/common/trace.h"
#include "src/serve/serving.h"

int main(int argc, char** argv) {
  auto flags_or = ktx::FlagParser::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::printf("%s\n", flags_or.status().ToString().c_str());
    return 2;
  }
  const ktx::FlagParser& flags = *flags_or;
  const std::string trace_path = flags.GetString("trace", "");
  if (!trace_path.empty()) {
    ktx::trace::SetEnabled(true);
    ktx::trace::SetCurrentThreadName("serving");
  }

  const ktx::MoeModelConfig config = ktx::SmallMoeConfig();
  auto weights =
      std::make_shared<const ktx::ModelWeights>(ktx::ModelWeights::Generate(config, 500));
  ktx::EngineOptions options;
  options.cpu_weight_dtype = ktx::DType::kI8;
  options.n_deferred = 2;
  options.prefill_chunk = 32;  // small chunks so the long prompt interleaves
  // Per-(layer, expert) activation counts, for the hottest-experts line.
  ktx::ExpertProfiler profiler(config.num_moe_layers(), config.num_experts);
  options.profiler = &profiler;
  // A 512-block KV pool with prefix caching: repeated prompts map the same
  // full prefix blocks.
  options.kv_pool_blocks = 512;
  options.kv_block_size = 16;
  ktx::HybridEngine engine(config, weights, options);

  ktx::ServingOptions serving;
  serving.max_concurrent = 2;
  serving.prefill_budget_tokens = 32;  // one chunk per sweep between decodes
  // Slack-ordered admission: a high-priority arrival takes the next free slot
  // ahead of every queued lower-priority request.
  serving.policy = ktx::SchedulePolicy::kSlack;
  ktx::ServingLoop loop(&engine, serving);

  // A mixed workload: greedy and sampled, short and long. One request is
  // deliberately malformed to show the recoverable rejection path.
  for (int i = 0; i < 5; ++i) {
    ktx::GenerationRequest request;
    request.prompt = {10 + i, 20 + i, 30 + i};
    request.max_new_tokens = 6 + 2 * i;
    if (i % 2 == 1) {
      request.sampling.temperature = 0.5f;
      request.sampling.top_k = 32;
      request.sampling.seed = static_cast<std::uint64_t>(100 + i);
    }
    const std::uint64_t id = loop.Submit(std::move(request));
    std::printf("queued request %llu (%s, %d tokens)\n",
                static_cast<unsigned long long>(id), i % 2 == 1 ? "sampled" : "greedy",
                6 + 2 * i);
  }
  {
    // A long prompt queued behind the short ones: it admits mid-stream and
    // prefills 32 tokens per sweep instead of stalling its neighbors.
    ktx::GenerationRequest longreq;
    for (int t = 0; t < 160; ++t) {
      longreq.prompt.push_back((t * 11 + 5) % config.vocab);
    }
    longreq.max_new_tokens = 8;
    const std::uint64_t id = loop.Submit(std::move(longreq));
    std::printf("queued request %llu (greedy, 160-token prompt, chunked prefill)\n",
                static_cast<unsigned long long>(id));
    // The same long prompt again: once the first has prefilled, the repeat
    // adopts its cached prefix blocks (watch prefix_tokens_reused below).
    ktx::GenerationRequest repeat;
    repeat.prompt.assign(160, 0);
    for (int t = 0; t < 160; ++t) {
      repeat.prompt[static_cast<std::size_t>(t)] = (t * 11 + 5) % config.vocab;
    }
    repeat.max_new_tokens = 8;
    const std::uint64_t repeat_id = loop.Submit(std::move(repeat));
    std::printf("queued request %llu (greedy, same 160-token prompt: prefix reuse)\n",
                static_cast<unsigned long long>(repeat_id));
  }
  {
    ktx::GenerationRequest bad;
    bad.prompt = {};  // empty prompt: rejected at submit, never aborts
    bad.max_new_tokens = 4;
    const std::uint64_t id = loop.Submit(std::move(bad));
    std::printf("queued request %llu (intentionally invalid)\n",
                static_cast<unsigned long long>(id));
  }

  // Let the loop run a few sweeps, then drop in a priority-3 request while
  // both slots are busy with priority-0 work: it does not wait its turn in
  // the queue — the next slot a retirement frees goes to it.
  for (int sweep = 0; sweep < 3; ++sweep) {
    loop.RunOnce();
  }
  {
    ktx::GenerationRequest vip;
    vip.prompt = {42, 41, 40};
    vip.max_new_tokens = 6;
    vip.priority = 3;
    const std::uint64_t id = loop.Submit(std::move(vip));
    std::printf("submitted request %llu mid-stream (greedy, priority 3: next free slot)\n",
                static_cast<unsigned long long>(id));
  }

  const auto results = loop.RunToCompletion();
  std::printf("\ncompleted %zu requests:\n", results.size());
  for (const auto& r : results) {
    const std::string reason(ktx::FinishReasonName(r.finish_reason));
    std::printf("  #%llu (%lld-token prompt, %s) ->", static_cast<unsigned long long>(r.id),
                static_cast<long long>(r.prompt_tokens), reason.c_str());
    for (int t : r.tokens) {
      std::printf(" %d", t);
    }
    if (!r.ok) {
      std::printf(" [%s]", r.status.ToString().c_str());
    }
    std::printf("\n    queue %.3f ms, ttft %.3f ms, total %.3f ms\n",
                r.queue_seconds * 1e3, r.time_to_first_token_s * 1e3,
                r.total_seconds * 1e3);
  }

  const auto& stats = loop.stats();
  std::printf("\nserving stats: %lld requests (%lld rejected, %lld failed, "
              "%lld deadline-expired), %lld tokens, peak concurrency %d\n",
              static_cast<long long>(stats.requests_completed),
              static_cast<long long>(stats.requests_rejected),
              static_cast<long long>(stats.requests_failed),
              static_cast<long long>(stats.requests_deadline_expired),
              static_cast<long long>(stats.tokens_generated), stats.peak_concurrency);
  std::printf("scheduling (%s): goodput %lld tokens within deadline\n",
              std::string(ktx::SchedulePolicyName(serving.policy)).c_str(),
              static_cast<long long>(stats.goodput_tokens));
  std::printf("prefill: %lld prompt tokens in %lld chunks (budget %lld/sweep)\n",
              static_cast<long long>(stats.prefill_tokens),
              static_cast<long long>(stats.prefill_chunks),
              static_cast<long long>(serving.prefill_budget_tokens));
  std::printf("latency: ttft p50 %.3f ms p99 %.3f ms | tbt p50 %.3f ms p99 %.3f ms "
              "max %.3f ms (%lld gaps)\n",
              stats.ttft_s.Percentile(50.0) * 1e3, stats.ttft_s.Percentile(99.0) * 1e3,
              stats.tbt_s.Percentile(50.0) * 1e3, stats.tbt_s.Percentile(99.0) * 1e3,
              stats.tbt_s.max_seconds() * 1e3, static_cast<long long>(stats.tbt_s.count()));
  std::printf("engine: %d sessions created, %lld graph replays, %lld CPU MoE requests\n",
              engine.num_sessions(),
              static_cast<long long>(engine.device().stats().graph_launches.load()),
              static_cast<long long>(engine.counters().moe_requests));

  // The popularity signal an offline placement plan (core/profiling.h) reads.
  std::printf("hottest experts (layer.expert: activations):");
  const std::vector<std::pair<int, int>> ranked = profiler.RankedExperts();
  for (std::size_t i = 0; i < 8 && i < ranked.size(); ++i) {
    const auto [layer, expert] = ranked[i];
    std::printf(" %d.%d:%lld", layer, expert,
                static_cast<long long>(profiler.count(layer, expert)));
  }
  std::printf("\n");

  if (!trace_path.empty()) {
    ktx::trace::SetEnabled(false);
    if (ktx::trace::WriteChromeJson(trace_path)) {
      const ktx::trace::Snapshot snap = ktx::trace::TakeSnapshot();
      std::printf("\nwrote %zu trace events (%lld dropped) across %d threads to %s "
                  "(open at https://ui.perfetto.dev)\n",
                  snap.events.size(), static_cast<long long>(snap.dropped),
                  snap.threads, trace_path.c_str());
    } else {
      std::printf("\nfailed to write trace to %s\n", trace_path.c_str());
      return 1;
    }
  }
  return 0;
}
