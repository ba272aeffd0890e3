// Low-concurrency serving loop (paper §1: "local deployments with low
// concurrency (e.g., single or few requests per batch)").
//
// Requests wait in a bounded admission queue; the loop admits up to
// `max_concurrent` generations, each on its own engine session (independent
// KV cache over the shared weights and captured decode graph). Decoding is
// *continuous batching*: every iteration admits into free slots, decodes ALL
// decoding requests in one HybridEngine::DecodeBatch call (one graph replay,
// one MoE request per layer for the whole batch), and retires finished rows
// in place — a freed slot is refilled on the very next iteration. Per-request
// outputs are bit-identical to running each request alone (engine guarantee;
// tests compare against a max_concurrent = 1 loop and against solo runs).
//
// Stall-free admission (§4.1 chunked prefill, Sarathi-style): an admitted
// request enters a *prefilling* state holding an engine PrefillCursor. Each
// sweep spends at most `prefill_budget_tokens` advancing prompt tokens —
// whole engine chunks — then decodes every active row in one batch, so the
// decode cadence (TBT) is bounded by the budget, not by the longest queued
// prompt. Budget accounting is whole-chunk: it is checked before each chunk,
// guaranteeing at least one chunk of progress per sweep and bounding
// per-sweep overshoot by prefill_chunk - 1 tokens. An unbounded budget
// (kUnboundedPrefillBudget) prefills every admitted prompt whole inside the
// admitting sweep, before that sweep's decode — the stall-prone synchronous
// behavior benches use as the baseline. Token streams are bit-identical
// across budgets: chunk boundaries are engine-fixed and sessions are
// isolated.
//
// SLO-aware scheduling (ServingOptions::policy): both scheduling decisions —
// which waiting request to admit and which prefilling row gets the next
// budget chunk — order candidates by priority class first, then by *slack
// to deadline*: deadline_s minus elapsed time minus the estimated remaining
// work (prefill chunks times an EMA of measured per-chunk seconds, plus
// remaining tokens times an EMA of per-sweep decode seconds). Within a
// priority class, requests whose deadline is already estimated unreachable
// sort last (serving them would burn capacity a feasible request could use;
// they expire cheaply in the queue instead of expensively mid-decode). kFifo
// keeps pure submit order as the measurable baseline. No deadline means
// infinite slack; ties break by submit order, so a deadline-free
// equal-priority workload schedules exactly like FIFO.
//
// A running row keeps its slot until it retires: a high-priority arrival
// takes the next free slot, never a running row's. Slack ordering already
// sorts infeasible requests last and lets them expire in the queue, so
// evicting running work would only move slots between classes.
//
// Request lifecycle: every request ends in exactly one terminal state,
// recorded on its GenerationResult as {ok, status, finish_reason}. Invalid
// requests and a full queue are rejected at Submit (never an abort); admitted
// requests retire with EOS / length on success, or kv_exhausted / deadline /
// backend_error when capacity runs out, the wall-clock budget expires, or an
// injected backend fault hits their session — including *during* a chunked
// prefill. The queue itself is swept for expired deadlines every iteration
// (and at Submit when full), so a dead request can never pin a max_queue slot
// and starve fresh arrivals. Queue expiries count requests_deadline_expired,
// NOT requests_rejected: an SLO miss is not an admission rejection.
//
// Single-threaded by design: the engine already parallelizes inside each
// step (CPU worker pool + GPU stream), and the control flow here is the
// simple dispatcher a local deployment runs. RunOnce exposes one sweep so
// open-loop drivers (bench/bench_serving_slo.cc) can interleave Submit with
// the loop's progress.
//
// Time: every deadline, latency metric and work estimate reads one clock
// function, passed to the constructor (SteadyNowNanos by default). Tests
// step a fake clock by hand, so deadline outcomes do not depend on how fast
// the host runs a step.

#ifndef KTX_SRC_SERVE_SERVING_H_
#define KTX_SRC_SERVE_SERVING_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/core/engine.h"
#include "src/model/sampler.h"

namespace ktx {

// Terminal state of a request. kNone only while the request is in flight
// (queued, prefilling or decoding).
enum class FinishReason {
  kNone = 0,
  kEos,           // emitted the request's eos_token
  kLength,        // reached max_new_tokens
  kKvExhausted,   // session KV cache ran out of positions mid-generation
  kRejected,      // never admitted: invalid request, full queue, no session
  kDeadline,      // wall-clock deadline expired (queued, prefilling or decoding)
  kBackendError,  // backend fault attributed to this request (or its sweep)
};
std::string_view FinishReasonName(FinishReason reason);

// Scheduling policy for admission order and prefill-budget order.
enum class SchedulePolicy {
  kFifo = 0,   // pure submit order (the baseline)
  kSlack = 1,  // priority class, then least slack-to-deadline
};
std::string_view SchedulePolicyName(SchedulePolicy policy);

// Highest admissible GenerationRequest::priority (inclusive).
inline constexpr int kMaxRequestPriority = 3;

// A prefill budget no sweep exhausts: every admitted prompt prefills whole in
// its admitting sweep (ServingOptions::prefill_budget_tokens).
inline constexpr std::int64_t kUnboundedPrefillBudget =
    std::numeric_limits<std::int64_t>::max();

struct GenerationRequest {
  std::vector<int> prompt;
  int max_new_tokens = 32;
  SamplerOptions sampling;  // temperature 0 = greedy
  int eos_token = -1;       // stop token; -1 disables
  // Wall-clock budget measured from Submit; 0 disables (negative is
  // kInvalidArgument — it is NOT a silent "no deadline"). Checked by the
  // per-iteration queue sweep, at admission, between prefill chunks, and once
  // per decode sweep; an expired request retires with finish_reason kDeadline
  // and a kDeadlineExceeded status.
  double deadline_s = 0.0;
  // Scheduling class, [0, kMaxRequestPriority]; higher is more important.
  // Under kSlack a higher class is admitted and prefilled first; it waits
  // for a free slot like any other request.
  int priority = 0;
};

struct GenerationResult {
  std::uint64_t id = 0;
  std::vector<int> tokens;
  // Terminal state: ok mirrors status.ok(). EOS and length finishes are OK;
  // every other finish carries the error that retired the request.
  bool ok = true;
  Status status;
  FinishReason finish_reason = FinishReason::kNone;
  std::int64_t prompt_tokens = 0;
  // Wall-clock request metrics (this process; the paper-scale numbers come
  // from the timed plane). All are measured from Submit, so queue wait is
  // visible: queue_seconds <= time_to_first_token_s <= total_seconds.
  double queue_seconds = 0.0;          // Submit -> (latest) admission
  double time_to_first_token_s = 0.0;  // Submit -> first sampled token
  double total_seconds = 0.0;          // Submit -> terminal state
};

struct ServingOptions {
  // Bounds simultaneously active generations (sessions are pooled, reused).
  // Prefilling requests occupy a slot: they hold a session.
  int max_concurrent = 2;
  // Bound on queued-but-unadmitted requests. Submit past it rejects the new
  // request with kResourceExhausted instead of queueing without limit —
  // after first sweeping expired entries out of the queue, so dead requests
  // never hold capacity against live ones.
  int max_queue = 256;
  // Prompt tokens each sweep may spend advancing prefilling requests before
  // the decode batch runs (Sarathi-style chunked-prefill budget). Spent in
  // whole engine chunks, checked before each chunk, best-scheduled request
  // first: a sweep always makes >= 1 chunk of progress and overshoots by at
  // most prefill_chunk - 1 tokens. Lower budget => tighter TBT bound for
  // decoding neighbors but later TTFT for long prompts; must be >= 1.
  // kUnboundedPrefillBudget prefills whole prompts in the admitting sweep
  // (the stall-prone baseline).
  std::int64_t prefill_budget_tokens = 256;
  // Scheduling policy (see the header comment). The default kSlack is
  // behaviorally identical to kFifo for workloads without deadlines or
  // priorities (infinite slack ties break by submit order).
  SchedulePolicy policy = SchedulePolicy::kSlack;
};

// Monotonic time in nanoseconds; only differences between readings matter.
using ServingClock = std::function<std::int64_t()>;

class ServingLoop {
 public:
  struct Stats {
    // Requests that reached a terminal state after admission (any finish).
    std::int64_t requests_completed = 0;
    // Requests rejected at Submit (never admitted): invalid argument, full
    // queue, no session. Deadline expiries are NOT rejections — see
    // requests_deadline_expired.
    std::int64_t requests_rejected = 0;
    // Admitted requests retired with a non-OK status.
    std::int64_t requests_failed = 0;
    // Requests whose wall-clock deadline expired, on ANY path: still queued
    // (never admitted — counted here only), mid-prefill or mid-decode (those
    // also count requests_completed + requests_failed, like every
    // post-admission failure).
    std::int64_t requests_deadline_expired = 0;
    std::int64_t tokens_generated = 0;
    // Goodput: tokens of requests that finished OK *within their deadline*
    // (deadline-free requests count in full; a late or failed request
    // contributes zero — its tokens were wasted work). The SLO counterpart
    // of tokens_generated, and the number the scheduling policies compete on.
    std::int64_t goodput_tokens = 0;
    // Engine decode calls: one per DecodeBatch. Batching shows up as fewer
    // iterations for the same tokens_generated.
    std::int64_t decode_iterations = 0;
    // Tokens produced by those decode calls (excludes the prefill-sampled
    // first token of each request).
    std::int64_t decoded_tokens = 0;
    // Prompt tokens pushed through prefill, and the engine chunks that
    // carried them.
    std::int64_t prefill_tokens = 0;
    std::int64_t prefill_chunks = 0;
    int peak_concurrency = 0;
    // Widest single decode batch issued.
    int peak_batch = 0;
    // Streaming latency distributions (seconds), the SLO view of the loop:
    // ttft_s records Submit -> first sampled token per admitted request;
    // tbt_s records every gap between consecutive sampled tokens of the same
    // request, across all requests. Tail TBT is what a synchronous long
    // prefill wrecks and the budget bounds — p99(tbt_s) is the number the
    // stall-free bench asserts on.
    LatencyHistogram ttft_s;
    LatencyHistogram tbt_s;
    // Shared KV pool telemetry, sampled once per sweep (all zero when every
    // session owns private storage). prefix_tokens_reused counts prompt
    // tokens served from the pool's prefix cache instead of prefill compute;
    // prefix_hit_rate is cache hits over lookups (one lookup per empty-start
    // prompt with >= 1 full block). kv_blocks_in_use is the PEAK pool
    // occupancy observed, and kv_utilization that peak over the pool's total
    // blocks — the capacity-planning pair: high utilization with low hit rate
    // means the pool is sized for genuinely distinct contexts.
    std::int64_t prefix_tokens_reused = 0;
    double prefix_hit_rate = 0.0;
    std::int64_t kv_blocks_in_use = 0;
    double kv_utilization = 0.0;

    // Appends this snapshot as a JSON object on `w` (histograms as
    // {count, mean_s, min_s, max_s, p50_s, p95_s, p99_s}). The single
    // serialization path every BENCH_*.json emitter shares.
    void AppendJson(JsonWriter& w) const;
    // The same object as a standalone string.
    std::string ToJson() const;
  };

  // The engine must outlive the loop. `clock` is read for every time the
  // loop measures (deadlines, latencies, work estimates).
  explicit ServingLoop(HybridEngine* engine, ServingOptions options = {},
                       ServingClock clock = SteadyNowNanos);

  // Enqueues a request and returns its id. Never aborts: an invalid request
  // (empty prompt, out-of-vocab token, max_new_tokens < 1, negative
  // deadline_s, priority outside [0, kMaxRequestPriority], or a doomed
  // capacity ask — prompt.size() + max_new_tokens > max_seq can never finish,
  // so it is rejected here instead of burning prefill work and dying
  // kv_exhausted later) or a full queue produces an immediate terminal result
  // with finish_reason kRejected, returned by RunToCompletion like any
  // other. Thread-compatible (call from the same thread as Run*).
  std::uint64_t Submit(GenerationRequest request);

  std::size_t pending() const {
    return queue_.size() + prefilling_.size() + active_.size();
  }

  // Runs ONE scheduling sweep: queue deadline sweep, admission, budgeted
  // prefill, token consumption/retirement, failure sweep, one batched
  // decode. A no-op when nothing is pending.
  // Returns the number of requests that reached a terminal state. Open-loop
  // drivers interleave Submit with RunOnce and collect via TakeResults().
  int RunOnce();
  // Terminal results accumulated so far (terminal order), clearing the
  // internal buffer.
  std::vector<GenerationResult> TakeResults();

  // Runs sweeps until everything pending completes. Results are returned in
  // terminal order (rejections first).
  std::vector<GenerationResult> RunToCompletion();

  const Stats& stats() const { return stats_; }

 private:
  struct Pending {
    std::uint64_t id = 0;
    GenerationRequest request;
    std::int64_t submit_ns = 0;  // clock reading at Submit
  };

  // One admitted request. Lives in prefilling_ while its PrefillCursor still
  // has prompt tokens left (the kPrefilling state), then moves to active_
  // once its first token is sampled (the decoding state).
  struct Active {
    std::uint64_t id = 0;
    int session = -1;
    GenerationRequest request;
    GenerationResult result;
    Sampler sampler;
    PrefillCursor cursor;  // engaged while prefilling
    int last_token = -1;
    std::int64_t submit_ns = 0;  // clock reading at Submit
    double last_emit_s = 0.0;    // seconds since Submit at the previous sampled token
    // Name of the request's currently-open nested lifecycle span ("prefill",
    // "decode", "queued") on its trace track, or nullptr.
    const char* trace_phase = nullptr;

    Active(std::uint64_t rid, GenerationRequest req)
        : id(rid), request(std::move(req)), sampler(request.sampling) {}
  };

  // Scheduling key; see ScheduledBefore for the ordering.
  struct SchedKey {
    int priority = 0;
    bool infeasible = false;  // deadline set and estimated unreachable
    double slack_s = 0.0;     // +inf when no deadline
    std::uint64_t id = 0;
  };

  // Submit-time validation of everything the caller controls.
  Status ValidateRequest(const GenerationRequest& request) const;
  // Records a terminal result for a request that never got admitted.
  void Reject(std::uint64_t id, const GenerationRequest& request, Status status,
              FinishReason reason, double elapsed_s);
  // Terminal kDeadline for a queued (never admitted) request: counts
  // requests_deadline_expired, not requests_rejected/completed/failed.
  void ExpireQueued(Pending&& pending, double waited_s);
  // Removes expired requests from the queue. Runs every sweep and from
  // Submit when the queue is full, so expired requests never pin queue slots
  // (the starvation bug).
  void SweepQueueDeadlines();
  // Seconds from the clock reading `since_ns` to now.
  double SecondsSince(std::int64_t since_ns) const;
  // True once a request submitted at `submit_ns` has run past its deadline.
  bool Expired(const GenerationRequest& request, std::int64_t submit_ns) const;

  // --- scheduling ----------------------------------------------------------
  // Remaining-work estimates from measured EMAs (optimistic zero until the
  // first measurement; the estimate only orders requests, never gates them).
  void NoteChunkSeconds(double s);
  void NoteSweepSeconds(double s);
  double EstimateQueuedSeconds(const GenerationRequest& request) const;
  // Estimated seconds for a running row to finish (remaining prefill chunks
  // plus remaining decode sweeps at the measured EMAs).
  double EstimateActiveSeconds(const Active& row) const;
  SchedKey MakeKey(int priority, double deadline_s, double elapsed_s, double estimate_s,
                   std::uint64_t id) const;
  SchedKey KeyOf(const Pending& pending) const;
  SchedKey KeyOf(const Active& row) const;  // prefilling or decoding
  // Strict weak order: true if `a` should be scheduled before `b` under the
  // configured policy (kFifo: submit order; otherwise priority desc, feasible
  // before infeasible, slack asc, submit order).
  bool ScheduledBefore(const SchedKey& a, const SchedKey& b) const;
  // Index of the best-scheduled queued request, or -1 when the queue is empty.
  int BestQueuedIndex() const;

  // Fills free slots from the queue in scheduling order. Admission is gated
  // on real KV headroom: private storage sizes every session to max_seq, but
  // a shared pool is drawn on by every session, so a request whose
  // (post-prefix-sharing) block reservation fails while other rows are in
  // flight is put back to retry after retirements free blocks; it only fails
  // kv_exhausted when nothing in flight could ever unblock it.
  void AdmitWaiting();
  // Admits queue_[index] into a free slot (erases it from the queue) as a
  // prefilling row: validates the prompt and reserves its KV, but runs no
  // forward work. Returns false when admission must stop this sweep (pool
  // pressure).
  bool AdmitPending(std::size_t index);
  // Puts an admitted row that sampled nothing back at the head of the queue
  // as pending (its session pooled, its Submit time intact).
  void RequeueAtHead(Active&& row);

  // Spends this sweep's prefill token budget advancing prefilling requests in
  // scheduling order; completed ones sample their first token and join
  // active_. Deadlines are re-checked between chunks; a chunk-level engine
  // error (injected fault, KV overrun) retires only that request.
  void AdvancePrefill();
  // Raises peak_concurrency for a row about to take a slot (counted even if
  // it fails at once; a pool-pressure requeue never takes one).
  void NoteSlotTaken();
  // Records a freshly sampled token into the latency histograms.
  void NoteFirstToken(Active* active);
  void NoteDecodedToken(Active* active);
  // Consumes `active`'s pending sampled token; returns true if the request
  // is finished (EOS or max_new_tokens) and should be retired.
  bool ConsumeToken(Active* active);
  // Retires rows whose deadline expired or whose session has an injected
  // backend fault (prefilling and decoding rows), or whose KV cache has no
  // room for the next token (decoding rows) — leaving batch siblings
  // untouched. A shared pool gets a second, aggregate pass: rows sharing one
  // block pool can each have room individually yet not fit together, so the
  // youngest rows (least sunk work) retire kv_exhausted until the sweep's
  // total block need fits the pool.
  void SweepFailures();
  // Folds the engine's prefix-cache counters and the pool's occupancy into
  // stats_ (peak-tracking for blocks in use). No-op without a shared pool
  // except for prefix_tokens_reused, which mirrors the engine counter.
  void SampleKvStats();
  // Closes the row's open lifecycle span (if any) and opens `phase` on its
  // request track; phase == nullptr just closes. No-ops when tracing is off.
  void TracePhase(Active* row, const char* phase);
  // Terminal bookkeeping shared by every retirement path.
  void RetireRow(Active&& active);
  void FailRow(Active&& active, FinishReason reason, Status status);
  void FailActive(std::size_t index, FinishReason reason, Status status);
  void Retire(std::size_t index);
  // Decodes one token for every decoding request: one DecodeBatch sweep
  // (chunked by the engine's max_batch). A whole-chunk backend failure (not
  // attributable to one row) retires every row of that chunk with
  // kBackendError; other chunks are unaffected.
  void DecodeActive();

  HybridEngine* engine_;
  ServingOptions options_;
  ServingClock clock_;
  std::uint64_t next_id_ = 1;
  std::deque<Pending> queue_;
  std::vector<Active> prefilling_;   // admitted, prompt not fully processed
  std::vector<Active> active_;       // decoding
  std::vector<int> free_sessions_;
  std::vector<GenerationResult> completed_;
  // Measured-work EMAs feeding the slack estimate (seconds; 0 = no sample
  // yet). One sweep produces one token per active row, so per-sweep decode
  // seconds approximate a request's TBT.
  double ema_chunk_s_ = 0.0;
  double ema_sweep_s_ = 0.0;
  Stats stats_;
};

}  // namespace ktx

#endif  // KTX_SRC_SERVE_SERVING_H_
