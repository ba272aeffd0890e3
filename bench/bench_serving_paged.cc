// A paged KV pool + prefix sharing vs contiguous per-session caches (a pool
// of 2 blocks of max_seq rows: each session one contiguous block), at a
// FIXED KV byte budget.
//
// What paging buys (vLLM-style block tables + ref-counted prefix sharing):
//
//   1. Admitted concurrency. A contiguous engine charges every session
//      max_seq rows up front, so a byte budget of B admits
//      B / (max_seq * bytes_per_position) requests — period. A paged engine
//      commits blocks lazily as contexts actually grow and stores a shared
//      prompt prefix ONCE, so the same bytes admit many more simultaneous
//      requests. Measured here as ServingLoop peak_concurrency on a
//      12-request burst whose prompts share a 256-token prefix.
//
//   2. Prefix-hit TTFT. Once one request has prefilled the shared prefix,
//      later requests adopt its blocks with a ref-count bump and prefill only
//      their private suffix: TTFT collapses roughly proportionally to the
//      reused fraction (256 of 264 tokens here). Measured on sequential
//      single requests so queue wait does not pollute the number.
//
// Both modes decode greedily on twin engines with identical prefill
// chunking, so their token streams must stay bit-identical — paging is a
// memory-layout change, not a numerics change — and the bench checks that.
//
// Emits BENCH_serving_paged.json with the two acceptance numbers:
// peak-concurrency ratio (expect >= 2x) and warm/cold TTFT ratio on
// prefix hits (expect well under 0.5).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/serve/serving.h"

namespace {

constexpr std::int64_t kMaxSeq = 512;

ktx::MoeModelConfig BenchConfig() {
  ktx::MoeModelConfig c = ktx::TinyMoeConfig();
  c.max_seq = kMaxSeq;
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

constexpr std::int64_t kBlockSize = 16;
constexpr std::int64_t kSharedPrefixTokens = 256;
constexpr std::int64_t kSuffixTokens = 8;
// The fixed budget: exactly TWO contiguous max_seq contexts' worth of rows.
constexpr std::int64_t kBudgetRows = 2 * kMaxSeq;
constexpr int kBurstRequests = 12;

// 256 shared tokens, then a per-request suffix (distinct from request 0 on):
// every burst prompt walks the same hash chain for its 16 full prefix blocks.
std::vector<int> SharedPrefixPrompt(int request, int vocab) {
  std::vector<int> tokens;
  tokens.reserve(static_cast<std::size_t>(kSharedPrefixTokens + kSuffixTokens));
  for (std::int64_t i = 0; i < kSharedPrefixTokens; ++i) {
    tokens.push_back(static_cast<int>((i * 7 + 3) % vocab));
  }
  for (std::int64_t i = 0; i < kSuffixTokens; ++i) {
    tokens.push_back(static_cast<int>((request * 5 + i * 3 + 1) % vocab));
  }
  return tokens;
}

ktx::GenerationRequest Req(std::vector<int> prompt, int max_new) {
  ktx::GenerationRequest r;
  r.prompt = std::move(prompt);
  r.max_new_tokens = max_new;
  return r;
}

ktx::EngineOptions BaseEngineOptions() {
  ktx::EngineOptions eopts;
  eopts.prefill_chunk = 16;  // lcm(chunk, block) = 16: whole prefix reusable
  eopts.max_batch = 8;
  eopts.cpu_threads = 2;
  eopts.numa_mode = ktx::NumaMode::kSingleSocket;
  return eopts;
}

// Each session one max_seq block: the same bytes and the same one-run layout
// as a contiguous cache, and no prompt ever fills a block the prefix cache
// could share.
ktx::EngineOptions ContiguousEngineOptions() {
  ktx::EngineOptions eopts = BaseEngineOptions();
  eopts.kv_pool_blocks = kBudgetRows / kMaxSeq;  // 2 contexts
  eopts.kv_block_size = kMaxSeq;
  return eopts;
}

ktx::EngineOptions PagedEngineOptions() {
  ktx::EngineOptions eopts = BaseEngineOptions();
  eopts.kv_pool_blocks = kBudgetRows / kBlockSize;  // same bytes as 2 contexts
  eopts.kv_block_size = kBlockSize;
  return eopts;
}

struct BurstOutcome {
  int peak_concurrency = 0;
  double elapsed_s = 0.0;
  ktx::ServingLoop::Stats stats;
  // Token streams keyed by request id (terminal order differs between modes).
  std::vector<std::pair<std::uint64_t, std::vector<int>>> streams;
};

// The shared-prefix burst against a WARMED prefix cache. `max_concurrent`
// encodes the admission cap the byte budget implies: 2 for contiguous (2
// preallocated contexts fit), kBurstRequests for paged (the pool itself
// gates admission). A seed request runs to completion first — serving the
// system prompt once, the steady state of a shared-prefix deployment — so
// every burst request adopts its 16 prefix blocks instead of reserving a
// private copy; without the warm cache the cold burst's first few arrivals
// each prefill (and hold) the full prefix.
BurstOutcome RunBurst(ktx::HybridEngine* engine, int max_concurrent, int vocab) {
  ktx::ServingOptions sopts;
  sopts.max_concurrent = max_concurrent;
  ktx::ServingLoop loop(engine, sopts);
  // Warmup outside the timer: capture the decode graph and seed the prefix.
  loop.Submit(Req({1, 2}, 4));
  loop.Submit(Req(SharedPrefixPrompt(0, vocab), 16));
  const auto seed_results = loop.RunToCompletion();

  for (int i = 1; i < kBurstRequests; ++i) {
    loop.Submit(Req(SharedPrefixPrompt(i, vocab), 16));
  }
  ktx::Stopwatch clock;
  const auto results = loop.RunToCompletion();
  BurstOutcome out;
  out.elapsed_s = clock.ElapsedSeconds();
  out.peak_concurrency = loop.stats().peak_concurrency;
  out.stats = loop.stats();
  for (const auto& res : seed_results) {
    out.streams.emplace_back(res.id, res.tokens);
  }
  for (const auto& res : results) {
    out.streams.emplace_back(res.id, res.tokens);
  }
  std::sort(out.streams.begin(), out.streams.end());
  return out;
}

struct TtftOutcome {
  double cold_ms = 0.0;
  double warm_ms = 0.0;  // median of the post-cold requests
};

// Sequential single requests (no queue wait in TTFT): request 0 pays the
// full prefill; for a paged engine, requests 1..n adopt the cached prefix.
TtftOutcome RunTtftProbe(ktx::HybridEngine* engine, int vocab) {
  ktx::ServingOptions sopts;
  sopts.max_concurrent = 1;
  ktx::ServingLoop loop(engine, sopts);
  loop.Submit(Req({1, 2}, 4));  // warmup: graph capture
  loop.RunToCompletion();

  std::vector<double> ttft_ms;
  for (int i = 0; i < 6; ++i) {
    loop.Submit(Req(SharedPrefixPrompt(i, vocab), 4));
    const auto results = loop.RunToCompletion();
    for (const auto& res : results) {
      ttft_ms.push_back(res.time_to_first_token_s * 1e3);
    }
  }
  TtftOutcome out;
  out.cold_ms = ttft_ms.front();
  std::vector<double> warm(ttft_ms.begin() + 1, ttft_ms.end());
  std::sort(warm.begin(), warm.end());
  out.warm_ms = warm[warm.size() / 2];
  return out;
}

}  // namespace

int main() {
  const ktx::MoeModelConfig config = BenchConfig();
  const auto weights =
      std::make_shared<const ktx::ModelWeights>(ktx::ModelWeights::Generate(config, 7));

  // --- burst: admitted concurrency at fixed KV bytes ------------------------
  ktx::HybridEngine contiguous_engine(config, weights, ContiguousEngineOptions());
  ktx::HybridEngine paged_engine(config, weights, PagedEngineOptions());
  const int contiguous_cap = static_cast<int>(kBudgetRows / config.max_seq);  // = 2
  const BurstOutcome contiguous =
      RunBurst(&contiguous_engine, contiguous_cap, config.vocab);
  const BurstOutcome paged = RunBurst(&paged_engine, kBurstRequests, config.vocab);
  const bool bit_identical = contiguous.streams == paged.streams;
  const double concurrency_ratio =
      static_cast<double>(paged.peak_concurrency) / contiguous.peak_concurrency;

  // --- sequential: prefix-hit TTFT ------------------------------------------
  ktx::HybridEngine contiguous_ttft_engine(config, weights, ContiguousEngineOptions());
  ktx::HybridEngine paged_ttft_engine(config, weights, PagedEngineOptions());
  const TtftOutcome contiguous_ttft = RunTtftProbe(&contiguous_ttft_engine, config.vocab);
  const TtftOutcome paged_ttft = RunTtftProbe(&paged_ttft_engine, config.vocab);
  const double warm_over_cold = paged_ttft.warm_ms / paged_ttft.cold_ms;
  const double reuse_fraction =
      static_cast<double>(kSharedPrefixTokens) / (kSharedPrefixTokens + kSuffixTokens);

  std::printf("=== Paged KV + prefix sharing vs contiguous, fixed budget of %lld KV rows "
              "(2 max_seq contexts) ===\n",
              static_cast<long long>(kBudgetRows));
  std::printf("burst: %d requests after a prefix-seeding request, 256-token shared prefix "
              "+ 8-token private suffix, 16 new tokens each\n\n",
              kBurstRequests - 1);
  std::printf("%-12s %17s %12s %14s %15s\n", "mode", "peak_concurrency", "burst (s)",
              "ttft cold", "ttft warm");
  std::printf("%-12s %17d %12.2f %12.2fms %13.2fms\n", "contiguous",
              contiguous.peak_concurrency, contiguous.elapsed_s, contiguous_ttft.cold_ms,
              contiguous_ttft.warm_ms);
  std::printf("%-12s %17d %12.2f %12.2fms %13.2fms\n", "paged", paged.peak_concurrency,
              paged.elapsed_s, paged_ttft.cold_ms, paged_ttft.warm_ms);
  std::printf("\nconcurrency ratio: %.2fx   warm/cold ttft: %.3f (prefix reuse %.1f%%)   "
              "prefix hit rate: %.2f   kv utilization: %.2f   streams bit-identical: %s\n",
              concurrency_ratio, warm_over_cold, reuse_fraction * 100.0,
              paged.stats.prefix_hit_rate, paged.stats.kv_utilization,
              bit_identical ? "yes" : "NO");

  ktx::JsonWriter w;
  w.BeginObject();
  w.Key("fixture");
  w.BeginObject();
  w.Field("config", "micro-moe-9L");
  w.Field("max_seq", config.max_seq);
  w.Field("kv_budget_rows", kBudgetRows);
  w.Field("block_size", kBlockSize);
  w.Field("pool_blocks", kBudgetRows / kBlockSize);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "1 prefix-seeding request + %d-request burst: 256-token shared prefix "
                "+ 8-token suffix, 16 new tokens",
                kBurstRequests - 1);
  w.Field("workload", buf);
  w.Field("prefill_chunk", 16);
  w.EndObject();
  w.Key("modes");
  w.BeginArray();
  w.BeginObject();
  w.Field("mode", "contiguous");
  w.Field("peak_concurrency", contiguous.peak_concurrency);
  w.Field("burst_s", contiguous.elapsed_s);
  w.Field("ttft_cold_ms", contiguous_ttft.cold_ms);
  w.Field("ttft_warm_ms", contiguous_ttft.warm_ms);
  w.Key("stats");
  contiguous.stats.AppendJson(w);
  w.EndObject();
  w.BeginObject();
  w.Field("mode", "paged");
  w.Field("peak_concurrency", paged.peak_concurrency);
  w.Field("burst_s", paged.elapsed_s);
  w.Field("ttft_cold_ms", paged_ttft.cold_ms);
  w.Field("ttft_warm_ms", paged_ttft.warm_ms);
  w.Field("prefix_hit_rate", paged.stats.prefix_hit_rate);
  w.Field("prefix_tokens_reused", paged.stats.prefix_tokens_reused);
  w.Field("kv_blocks_in_use_peak", paged.stats.kv_blocks_in_use);
  w.Field("kv_utilization", paged.stats.kv_utilization);
  w.Key("stats");
  paged.stats.AppendJson(w);
  w.EndObject();
  w.EndArray();
  w.Field("concurrency_ratio_paged_over_contiguous", concurrency_ratio);
  w.Field("ttft_warm_over_cold_paged", warm_over_cold);
  w.Field("prefix_reuse_fraction", reuse_fraction);
  w.Field("streams_bit_identical", bit_identical);
  w.Field("accept_concurrency_ge_2x", concurrency_ratio >= 2.0);
  w.Field("accept_warm_ttft_under_half_cold", warm_over_cold < 0.5);
  w.EndObject();

  std::FILE* f = std::fopen("BENCH_serving_paged.json", "w");
  if (f != nullptr) {
    std::fwrite(w.str().data(), 1, w.str().size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote BENCH_serving_paged.json\n");
  }
  return 0;
}
