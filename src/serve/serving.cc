#include "src/serve/serving.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/common/trace.h"

namespace ktx {

namespace {

// FinishReasonName returns views of string literals, so .data() is a stable
// NUL-terminated string the trace recorder may keep by pointer.
const char* FinishReasonCstr(FinishReason reason) { return FinishReasonName(reason).data(); }

// Remaining deadline slack at retirement, in microseconds (negative = late;
// 0 for deadline-free requests). Annotated on the request's terminal event.
std::int64_t SlackMicros(double deadline_s, double total_s) {
  if (deadline_s <= 0.0) {
    return 0;
  }
  return static_cast<std::int64_t>((deadline_s - total_s) * 1e6);
}

}  // namespace

std::string_view FinishReasonName(FinishReason reason) {
  switch (reason) {
    case FinishReason::kNone:
      return "none";
    case FinishReason::kEos:
      return "eos";
    case FinishReason::kLength:
      return "length";
    case FinishReason::kKvExhausted:
      return "kv_exhausted";
    case FinishReason::kRejected:
      return "rejected";
    case FinishReason::kDeadline:
      return "deadline";
    case FinishReason::kBackendError:
      return "backend_error";
  }
  return "unknown";
}

std::string_view SchedulePolicyName(SchedulePolicy policy) {
  switch (policy) {
    case SchedulePolicy::kFifo:
      return "fifo";
    case SchedulePolicy::kSlack:
      return "slack";
  }
  return "unknown";
}

ServingLoop::ServingLoop(HybridEngine* engine, ServingOptions options, ServingClock clock)
    : engine_(engine), options_(options), clock_(std::move(clock)) {
  KTX_CHECK(engine_ != nullptr);
  KTX_CHECK(clock_ != nullptr);
  KTX_CHECK_GE(options_.max_concurrent, 1);
  KTX_CHECK_GE(options_.max_queue, 1);
  KTX_CHECK_GE(options_.prefill_budget_tokens, 1);
}

Status ServingLoop::ValidateRequest(const GenerationRequest& request) const {
  if (request.prompt.empty()) {
    return InvalidArgumentError("empty prompt");
  }
  if (request.max_new_tokens < 1) {
    return InvalidArgumentError("max_new_tokens must be >= 1, got " +
                                std::to_string(request.max_new_tokens));
  }
  // A negative deadline is a caller bug, not a "no deadline" spelling: every
  // deadline check gates on > 0, so -1 would silently disable the SLO the
  // caller thought they set. Only 0 means "no deadline".
  if (request.deadline_s < 0.0) {
    return InvalidArgumentError("deadline_s must be >= 0 (0 disables), got " +
                                std::to_string(request.deadline_s));
  }
  if (request.priority < 0 || request.priority > kMaxRequestPriority) {
    return InvalidArgumentError("priority " + std::to_string(request.priority) +
                                " outside [0, " + std::to_string(kMaxRequestPriority) + "]");
  }
  const std::int64_t vocab = engine_->config().vocab;
  for (std::size_t i = 0; i < request.prompt.size(); ++i) {
    if (request.prompt[i] < 0 || request.prompt[i] >= vocab) {
      return InvalidArgumentError("prompt token " + std::to_string(request.prompt[i]) +
                                  " at index " + std::to_string(i) + " outside vocab [0, " +
                                  std::to_string(vocab) + ")");
    }
  }
  const std::int64_t max_seq = engine_->config().max_seq;
  if (static_cast<std::int64_t>(request.prompt.size()) > max_seq) {
    return InvalidArgumentError("prompt of " + std::to_string(request.prompt.size()) +
                                " tokens exceeds the kv capacity max_seq=" +
                                std::to_string(max_seq));
  }
  // A request that cannot reach max_new_tokens within the session's KV bound
  // is doomed at submit time: reject it here (kRejected, no work spent)
  // instead of prefilling the prompt and retiring it kv_exhausted mid-decode.
  if (static_cast<std::int64_t>(request.prompt.size()) + request.max_new_tokens > max_seq) {
    return InvalidArgumentError(
        "prompt of " + std::to_string(request.prompt.size()) + " tokens + max_new_tokens=" +
        std::to_string(request.max_new_tokens) + " cannot fit the kv capacity max_seq=" +
        std::to_string(max_seq));
  }
  return OkStatus();
}

void ServingLoop::Reject(std::uint64_t id, const GenerationRequest& request, Status status,
                         FinishReason reason, double elapsed_s) {
  GenerationResult result;
  result.id = id;
  result.ok = false;
  result.status = std::move(status);
  result.finish_reason = reason;
  result.prompt_tokens = static_cast<std::int64_t>(request.prompt.size());
  result.queue_seconds = elapsed_s;
  result.total_seconds = elapsed_s;
  completed_.push_back(std::move(result));
  ++stats_.requests_rejected;
  trace::EmitAsyncEndStr("request", "request", id, "slack_us", 0,
                         FinishReasonCstr(reason));
}

void ServingLoop::ExpireQueued(Pending&& pending, double waited_s) {
  // An SLO miss in the queue is NOT an admission rejection: it counts
  // requests_deadline_expired only. Nor was the request ever admitted, so
  // requests_completed / requests_failed (post-admission accounting) are
  // untouched.
  GenerationResult result;
  result.id = pending.id;
  result.ok = false;
  result.status =
      DeadlineExceededError("deadline of " + std::to_string(pending.request.deadline_s) +
                            "s expired after " + std::to_string(waited_s) +
                            "s in the admission queue");
  result.finish_reason = FinishReason::kDeadline;
  result.prompt_tokens = static_cast<std::int64_t>(pending.request.prompt.size());
  result.queue_seconds = waited_s;
  result.total_seconds = waited_s;
  completed_.push_back(std::move(result));
  ++stats_.requests_deadline_expired;
  trace::EmitAsyncEnd("request", "queued", pending.id);
  trace::EmitAsyncEndStr("request", "request", pending.id, "slack_us",
                         SlackMicros(pending.request.deadline_s, waited_s),
                         FinishReasonCstr(FinishReason::kDeadline));
}

double ServingLoop::SecondsSince(std::int64_t since_ns) const {
  return static_cast<double>(clock_() - since_ns) * 1e-9;
}

bool ServingLoop::Expired(const GenerationRequest& request, std::int64_t submit_ns) const {
  return request.deadline_s > 0.0 && SecondsSince(submit_ns) > request.deadline_s;
}

void ServingLoop::SweepQueueDeadlines() {
  for (std::size_t i = 0; i < queue_.size();) {
    const double waited_s = SecondsSince(queue_[i].submit_ns);
    if (queue_[i].request.deadline_s > 0.0 && waited_s > queue_[i].request.deadline_s) {
      Pending expired = std::move(queue_[i]);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      ExpireQueued(std::move(expired), waited_s);
      continue;
    }
    ++i;
  }
}

std::uint64_t ServingLoop::Submit(GenerationRequest request) {
  const std::uint64_t id = next_id_++;
  // Every id opens a request track at submit — rejected requests show as
  // short submit->reject spans, admitted ones run to RetireRow.
  trace::EmitAsyncBegin("request", "request", id, "prompt_tokens",
                        static_cast<std::int64_t>(request.prompt.size()));
  Status valid = ValidateRequest(request);
  if (valid.ok() && static_cast<int>(queue_.size()) >= options_.max_queue) {
    // The starvation fix: a queue full of expired requests must not reject a
    // live one — sweep expiries out before judging capacity.
    SweepQueueDeadlines();
  }
  if (valid.ok() && static_cast<int>(queue_.size()) >= options_.max_queue) {
    valid = ResourceExhaustedError("admission queue full (" + std::to_string(queue_.size()) +
                                   " of max_queue=" + std::to_string(options_.max_queue) + ")");
  }
  if (!valid.ok()) {
    Reject(id, request, valid.WithContext("submit"), FinishReason::kRejected,
           /*elapsed_s=*/0.0);
    return id;
  }
  Pending pending;
  pending.id = id;
  pending.request = std::move(request);
  pending.submit_ns = clock_();
  queue_.push_back(std::move(pending));
  trace::EmitAsyncBegin("request", "queued", id);
  return id;
}

void ServingLoop::NoteSlotTaken() {
  stats_.peak_concurrency = std::max(
      stats_.peak_concurrency, static_cast<int>(prefilling_.size() + active_.size()) + 1);
}

void ServingLoop::NoteFirstToken(Active* active) {
  const double now = SecondsSince(active->submit_ns);
  active->result.time_to_first_token_s = now;
  active->last_emit_s = now;
  stats_.ttft_s.Record(now);
}

void ServingLoop::NoteDecodedToken(Active* active) {
  const double now = SecondsSince(active->submit_ns);
  stats_.tbt_s.Record(now - active->last_emit_s);
  active->last_emit_s = now;
}

// --- scheduling --------------------------------------------------------------

void ServingLoop::NoteChunkSeconds(double s) {
  ema_chunk_s_ = ema_chunk_s_ <= 0.0 ? s : 0.8 * ema_chunk_s_ + 0.2 * s;
}

void ServingLoop::NoteSweepSeconds(double s) {
  ema_sweep_s_ = ema_sweep_s_ <= 0.0 ? s : 0.8 * ema_sweep_s_ + 0.2 * s;
}

double ServingLoop::EstimateQueuedSeconds(const GenerationRequest& request) const {
  const std::int64_t chunk = engine_->options().prefill_chunk;
  const auto prompt = static_cast<std::int64_t>(request.prompt.size());
  const std::int64_t chunks = (prompt + chunk - 1) / chunk;
  return static_cast<double>(chunks) * ema_chunk_s_ +
         static_cast<double>(request.max_new_tokens) * ema_sweep_s_;
}

ServingLoop::SchedKey ServingLoop::MakeKey(int priority, double deadline_s, double elapsed_s,
                                           double estimate_s, std::uint64_t id) const {
  SchedKey key;
  key.priority = priority;
  key.id = id;
  if (deadline_s <= 0.0) {
    key.slack_s = std::numeric_limits<double>::infinity();
  } else {
    key.slack_s = deadline_s - elapsed_s - estimate_s;
    key.infeasible = key.slack_s < 0.0;
  }
  return key;
}

ServingLoop::SchedKey ServingLoop::KeyOf(const Pending& pending) const {
  return MakeKey(pending.request.priority, pending.request.deadline_s,
                 SecondsSince(pending.submit_ns), EstimateQueuedSeconds(pending.request),
                 pending.id);
}

double ServingLoop::EstimateActiveSeconds(const Active& row) const {
  if (row.cursor.valid() && !row.cursor.done()) {
    const std::int64_t chunk = engine_->options().prefill_chunk;
    const std::int64_t chunks = (row.cursor.remaining_tokens() + chunk - 1) / chunk;
    return static_cast<double>(chunks) * ema_chunk_s_ +
           static_cast<double>(row.request.max_new_tokens) * ema_sweep_s_;
  }
  return static_cast<double>(row.request.max_new_tokens -
                             static_cast<int>(row.result.tokens.size())) *
         ema_sweep_s_;
}

ServingLoop::SchedKey ServingLoop::KeyOf(const Active& row) const {
  return MakeKey(row.request.priority, row.request.deadline_s, SecondsSince(row.submit_ns),
                 EstimateActiveSeconds(row), row.id);
}

bool ServingLoop::ScheduledBefore(const SchedKey& a, const SchedKey& b) const {
  if (options_.policy == SchedulePolicy::kFifo) {
    return a.id < b.id;
  }
  if (a.priority != b.priority) {
    return a.priority > b.priority;  // higher class first
  }
  // Within a class, requests whose deadline is already estimated unreachable
  // sort last: spending capacity on them starves feasible requests, and they
  // expire more cheaply in the queue than mid-decode. The estimate only
  // orders; the deadline sweeps decide actual expiry.
  if (a.infeasible != b.infeasible) {
    return b.infeasible;
  }
  if (a.slack_s != b.slack_s) {
    return a.slack_s < b.slack_s;  // least slack first (EDF-like)
  }
  return a.id < b.id;  // stable: deadline-free workloads schedule FIFO
}

int ServingLoop::BestQueuedIndex() const {
  if (queue_.empty()) {
    return -1;
  }
  std::size_t best = 0;
  SchedKey best_key = KeyOf(queue_[0]);
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    const SchedKey key = KeyOf(queue_[i]);
    if (ScheduledBefore(key, best_key)) {
      best = i;
      best_key = key;
    }
  }
  return static_cast<int>(best);
}

// --- admission ---------------------------------------------------------------

void ServingLoop::AdmitWaiting() {
  while (static_cast<int>(prefilling_.size() + active_.size()) < options_.max_concurrent) {
    const int best = BestQueuedIndex();
    if (best < 0 || !AdmitPending(static_cast<std::size_t>(best))) {
      break;  // empty queue, or pool pressure: retry after retirements free blocks
    }
  }
}

bool ServingLoop::AdmitPending(std::size_t index) {
  Pending pending = std::move(queue_[index]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  const double waited_s = SecondsSince(pending.submit_ns);
  if (pending.request.deadline_s > 0.0 && waited_s > pending.request.deadline_s) {
    ExpireQueued(std::move(pending), waited_s);
    return true;
  }
  trace::EmitAsyncEnd("request", "queued", pending.id);
  Active active(pending.id, std::move(pending.request));
  active.submit_ns = pending.submit_ns;  // metrics are measured from Submit
  if (free_sessions_.empty()) {
    auto session = engine_->TryCreateSession();
    if (!session.ok()) {
      Reject(active.id, active.request, session.status().WithContext("admission"),
             FinishReason::kRejected, waited_s);
      return true;
    }
    active.session = *session;
  } else {
    active.session = free_sessions_.back();
    free_sessions_.pop_back();
    engine_->Reset(active.session);
  }
  active.result.id = active.id;
  active.result.prompt_tokens = static_cast<std::int64_t>(active.request.prompt.size());
  active.result.queue_seconds = waited_s;
  // Validate everything (KV headroom for the whole prompt included) but run
  // no prefill work here: AdvancePrefill spends the sweep's budget on it.
  auto cursor = engine_->StartPrefill(active.session, active.request.prompt);
  if (!cursor.ok()) {
    // The block pool is drawn on by every session: a block-reservation failure
    // while other requests are in flight is back-pressure, not doom — their
    // retirements return blocks. Such a request re-queues unadmitted at the
    // head and this sweep stops admitting (the scheduler re-picks it by key
    // next sweep); it only fails kv_exhausted when nothing in flight could
    // free blocks for it.
    const bool exhausted = cursor.status().code() == StatusCode::kResourceExhausted;
    if (exhausted && !(prefilling_.empty() && active_.empty())) {
      RequeueAtHead(std::move(active));
      return false;
    }
    NoteSlotTaken();
    FailRow(std::move(active),
            exhausted ? FinishReason::kKvExhausted : FinishReason::kBackendError,
            cursor.status().WithContext("admission"));
    return true;
  }
  NoteSlotTaken();
  active.cursor = std::move(*cursor);
  TracePhase(&active, "prefill");
  prefilling_.push_back(std::move(active));
  return true;
}

void ServingLoop::RequeueAtHead(Active&& row) {
  free_sessions_.push_back(row.session);
  Pending back;
  back.id = row.id;
  back.request = std::move(row.request);
  back.submit_ns = row.submit_ns;
  TracePhase(&row, "queued");  // closes an open prefill span
  queue_.push_front(std::move(back));
}

// --- prefill / decode --------------------------------------------------------

void ServingLoop::AdvancePrefill() {
  trace::ScopedSpan sweep_span("serving", "prefill_sweep");
  std::int64_t spent = 0;
  // Best-scheduled request first, one engine chunk at a time (kFifo: oldest).
  // The budget is checked before each chunk: a sweep with prefill work always
  // advances at least one chunk, and overshoots by < prefill_chunk tokens.
  while (!prefilling_.empty() && spent < options_.prefill_budget_tokens) {
    std::size_t best = 0;
    if (prefilling_.size() > 1) {
      SchedKey best_key = KeyOf(prefilling_[0]);
      for (std::size_t i = 1; i < prefilling_.size(); ++i) {
        const SchedKey key = KeyOf(prefilling_[i]);
        if (ScheduledBefore(key, best_key)) {
          best = i;
          best_key = key;
        }
      }
    }
    Active& row = prefilling_[best];
    if (Expired(row.request, row.submit_ns)) {
      Active failed = std::move(row);
      prefilling_.erase(prefilling_.begin() + static_cast<std::ptrdiff_t>(best));
      FailRow(std::move(failed), FinishReason::kDeadline,
              DeadlineExceededError(
                  "deadline of " + std::to_string(failed.request.deadline_s) +
                  "s expired after " + std::to_string(failed.cursor.processed_tokens()) +
                  " of " + std::to_string(failed.cursor.total_tokens()) +
                  " prompt tokens prefilled"));
      continue;
    }
    const std::int64_t chunk_start_ns = clock_();
    auto advanced = engine_->TryPrefillNext(&row.cursor);
    if (!advanced.ok()) {
      const FinishReason reason =
          advanced.status().code() == StatusCode::kResourceExhausted
              ? FinishReason::kKvExhausted
              : FinishReason::kBackendError;
      Active failed = std::move(row);
      prefilling_.erase(prefilling_.begin() + static_cast<std::ptrdiff_t>(best));
      FailRow(std::move(failed), reason,
              advanced.status().WithContext("request " + std::to_string(failed.id)));
      continue;
    }
    NoteChunkSeconds(SecondsSince(chunk_start_ns));
    spent += *advanced;
    stats_.prefill_tokens += *advanced;
    ++stats_.prefill_chunks;
    sweep_span.set_arg("tokens", spent);
    if (row.cursor.done()) {
      row.last_token = row.sampler.Sample(row.cursor.logits());
      NoteFirstToken(&row);
      Active done = std::move(row);
      prefilling_.erase(prefilling_.begin() + static_cast<std::ptrdiff_t>(best));
      TracePhase(&done, "decode");
      active_.push_back(std::move(done));
    }
  }
}

bool ServingLoop::ConsumeToken(Active* active) {
  if (active->request.eos_token >= 0 && active->last_token == active->request.eos_token) {
    active->result.finish_reason = FinishReason::kEos;
    return true;
  }
  active->result.tokens.push_back(active->last_token);
  ++stats_.tokens_generated;
  // Checked only after the push: Submit guarantees max_new_tokens >= 1, so a
  // request for N tokens returns exactly N (the old pre-validation code let
  // max_new_tokens <= 0 return one token).
  if (static_cast<int>(active->result.tokens.size()) >= active->request.max_new_tokens) {
    active->result.finish_reason = FinishReason::kLength;
    return true;
  }
  return false;
}

void ServingLoop::TracePhase(Active* row, const char* phase) {
  if (trace::IsEnabled()) {
    if (row->trace_phase != nullptr) {
      trace::EmitAsyncEnd("request", row->trace_phase, row->id);
    }
    if (phase != nullptr) {
      trace::EmitAsyncBegin("request", phase, row->id);
    }
  }
  row->trace_phase = phase;
}

void ServingLoop::RetireRow(Active&& active) {
  active.result.ok = active.result.status.ok();
  active.result.total_seconds = SecondsSince(active.submit_ns);
  TracePhase(&active, nullptr);
  trace::EmitAsyncEndStr(
      "request", "request", active.id, "slack_us",
      SlackMicros(active.request.deadline_s, active.result.total_seconds),
      FinishReasonCstr(active.result.finish_reason));
  if (active.session >= 0) {
    // Reset NOW, not at reuse: blocks go back to the shared pool the moment
    // the request retires (prefix-cached blocks stay resident but evictable),
    // so queued requests and the aggregate sweep check see the headroom
    // immediately.
    engine_->Reset(active.session);
    free_sessions_.push_back(active.session);
  }
  ++stats_.requests_completed;
  if (!active.result.ok) {
    ++stats_.requests_failed;
  } else if (active.request.deadline_s <= 0.0 ||
             active.result.total_seconds <= active.request.deadline_s) {
    // Goodput: only tokens delivered within the deadline count. A request
    // that finished OK but late contributed nothing an SLO-bound caller can
    // use — its tokens were wasted capacity.
    stats_.goodput_tokens += static_cast<std::int64_t>(active.result.tokens.size());
  }
  completed_.push_back(std::move(active.result));
}

void ServingLoop::FailRow(Active&& active, FinishReason reason, Status status) {
  active.result.finish_reason = reason;
  active.result.status = std::move(status);
  if (reason == FinishReason::kDeadline) {
    ++stats_.requests_deadline_expired;
  }
  RetireRow(std::move(active));
}

void ServingLoop::FailActive(std::size_t index, FinishReason reason, Status status) {
  Active active = std::move(active_[index]);
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(index));
  FailRow(std::move(active), reason, std::move(status));
}

void ServingLoop::Retire(std::size_t index) {
  Active active = std::move(active_[index]);
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(index));
  RetireRow(std::move(active));
}

void ServingLoop::SweepFailures() {
  // Prefilling rows: deadline and per-session fault (their KV headroom was
  // reserved whole at StartPrefill, so no capacity check until they decode).
  for (std::size_t i = 0; i < prefilling_.size();) {
    Active& row = prefilling_[i];
    Status failure;
    FinishReason reason = FinishReason::kNone;
    if (Expired(row.request, row.submit_ns)) {
      reason = FinishReason::kDeadline;
      failure = DeadlineExceededError(
          "deadline of " + std::to_string(row.request.deadline_s) + "s expired after " +
          std::to_string(row.cursor.processed_tokens()) + " of " +
          std::to_string(row.cursor.total_tokens()) + " prompt tokens prefilled");
    } else {
      Status fault = engine_->TakeSessionFault(row.session);
      if (!fault.ok()) {
        reason = FinishReason::kBackendError;
        failure = fault.WithContext("request " + std::to_string(row.id));
      }
    }
    if (reason == FinishReason::kNone) {
      ++i;
      continue;
    }
    Active failed = std::move(row);
    prefilling_.erase(prefilling_.begin() + static_cast<std::ptrdiff_t>(i));
    FailRow(std::move(failed), reason, std::move(failure));
  }
  for (std::size_t i = 0; i < active_.size();) {
    Active& active = active_[i];
    if (Expired(active.request, active.submit_ns)) {
      FailActive(i, FinishReason::kDeadline,
                 DeadlineExceededError(
                     "deadline of " + std::to_string(active.request.deadline_s) +
                     "s expired after " + std::to_string(active.result.tokens.size()) +
                     " tokens"));
      continue;
    }
    Status fault = engine_->TakeSessionFault(active.session);
    if (!fault.ok()) {
      FailActive(i, FinishReason::kBackendError,
                 fault.WithContext("request " + std::to_string(active.id)));
      continue;
    }
    // Per-row capacity: the session-local max_seq bound. KvRemaining would
    // also fold in shared-pool pressure, but pressure is a *shared* condition
    // handled by the aggregate pass below (youngest rows first) — retiring the
    // oldest row here for blocks a younger row consumed would invert that
    // policy.
    if (engine_->position(active.session) >= engine_->config().max_seq) {
      FailActive(i, FinishReason::kKvExhausted,
                 ResourceExhaustedError(
                     "kv cache exhausted after " + std::to_string(active.result.tokens.size()) +
                     " generated tokens (max_seq " +
                     std::to_string(engine_->config().max_seq) + ")"));
      continue;
    }
    ++i;
  }
  if (active_.empty()) {
    return;
  }
  // Aggregate pool check: rows sharing one block pool can each have room for
  // their next token individually, yet not fit together (several rows about
  // to cross a block boundary with fewer free blocks than that). Retire the
  // youngest rows — least sunk prefill and decode work — until the sweep's
  // total need fits; each retirement Resets its session, returning blocks to
  // the pool for the survivors (and for the admission queue).
  std::int64_t need = 0;
  for (const Active& active : active_) {
    need += engine_->KvBlocksNeeded(active.session, 1);
  }
  while (!active_.empty() && need > engine_->kv_pool()->available_blocks()) {
    const std::size_t victim = active_.size() - 1;
    const std::int64_t available = engine_->kv_pool()->available_blocks();
    const std::int64_t sweep_need = need;
    need -= engine_->KvBlocksNeeded(active_[victim].session, 1);
    FailActive(victim, FinishReason::kKvExhausted,
               ResourceExhaustedError("kv block pool exhausted: decode sweep needs " +
                                      std::to_string(sweep_need) + " blocks, pool has " +
                                      std::to_string(available) + " available"));
  }
}

void ServingLoop::SampleKvStats() {
  stats_.prefix_tokens_reused = engine_->counters().prefix_tokens_reused;
  const KvBlockPool::Stats pool = engine_->kv_pool()->stats();
  KTX_TRACE_COUNTER("kv", "blocks_in_use", pool.blocks_in_use);
  stats_.kv_blocks_in_use = std::max(stats_.kv_blocks_in_use, pool.blocks_in_use);
  if (pool.total_blocks > 0) {
    stats_.kv_utilization = static_cast<double>(stats_.kv_blocks_in_use) /
                            static_cast<double>(pool.total_blocks);
  }
  if (pool.prefix_lookups > 0) {
    stats_.prefix_hit_rate = static_cast<double>(pool.prefix_hits) /
                             static_cast<double>(pool.prefix_lookups);
  }
}

void ServingLoop::DecodeActive() {
  if (active_.empty()) {
    return;
  }
  KTX_TRACE_SPAN_ARG("serving", "decode_sweep", "rows", active_.size());
  // One sweep = one token per decoding request, so per-sweep seconds are the
  // scheduler's TBT estimate.
  const std::int64_t sweep_start_ns = clock_();
  // One DecodeBatch sweep over every surviving request (chunked only if the
  // configured concurrency exceeds the engine's batch capacity). Prefilling
  // rows live in their own vector, so active_ is exactly the decode set.
  const auto max_batch = static_cast<std::size_t>(engine_->options().max_batch);
  for (std::size_t begin = 0; begin < active_.size();) {
    const std::size_t rows = std::min(max_batch, active_.size() - begin);
    std::vector<SessionToken> batch(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      batch[r] = SessionToken{active_[begin + r].session, active_[begin + r].last_token};
    }
    auto logits = engine_->TryDecodeBatch(batch);
    if (!logits.ok()) {
      // A whole-chunk failure is not attributable to one row (SweepFailures
      // already retired per-row causes): retire the chunk. Validation in
      // TryDecodeBatch precedes any KV mutation, so sessions are clean and
      // the other chunks keep decoding.
      for (std::size_t r = 0; r < rows; ++r) {
        FailActive(begin, FinishReason::kBackendError,
                   logits.status().WithContext(
                       "request " + std::to_string(active_[begin].id) + " (batch sweep)"));
      }
      continue;
    }
    for (std::size_t r = 0; r < rows; ++r) {
      Active& active = active_[begin + r];
      active.last_token =
          active.sampler.Sample(logits->Slice(static_cast<std::int64_t>(r), 1));
      NoteDecodedToken(&active);
    }
    ++stats_.decode_iterations;
    stats_.decoded_tokens += static_cast<std::int64_t>(rows);
    stats_.peak_batch = std::max(stats_.peak_batch, static_cast<int>(rows));
    begin += rows;
  }
  NoteSweepSeconds(SecondsSince(sweep_start_ns));
}

int ServingLoop::RunOnce() {
  const auto before = completed_.size();
  if (pending() == 0) {
    return 0;
  }
  KTX_TRACE_SPAN("serving", "sweep");
  KTX_TRACE_COUNTER("serving", "queue_depth", queue_.size());
  KTX_TRACE_COUNTER("serving", "active_requests", prefilling_.size() + active_.size());
  // Expired requests leave the queue before they can pin capacity or win a
  // slot.
  SweepQueueDeadlines();
  AdmitWaiting();
  // Spend this sweep's prefill budget before decoding: completed prompts
  // sample their first token here and decode in this very sweep (with an
  // unbounded budget, every prompt admitted this sweep does).
  AdvancePrefill();
  // Consume each request's pending sampled token; retire finished rows in
  // place so their slots refill from the queue next iteration.
  for (std::size_t i = 0; i < active_.size();) {
    if (ConsumeToken(&active_[i])) {
      Retire(i);
    } else {
      ++i;
    }
  }
  // Per-row terminal checks (deadline, injected fault, KV room) before the
  // sweep: a failing row retires here and its siblings decode unaffected.
  SweepFailures();
  // Everyone still decoding needs exactly one more token: one batched sweep.
  DecodeActive();
  // Pool occupancy peaks while rows are live — sample before retirements
  // next sweep return their blocks.
  SampleKvStats();
  return static_cast<int>(completed_.size() - before);
}

void ServingLoop::Stats::AppendJson(JsonWriter& w) const {
  w.BeginObject();
  w.Field("requests_completed", requests_completed);
  w.Field("requests_rejected", requests_rejected);
  w.Field("requests_failed", requests_failed);
  w.Field("requests_deadline_expired", requests_deadline_expired);
  w.Field("tokens_generated", tokens_generated);
  w.Field("goodput_tokens", goodput_tokens);
  w.Field("decode_iterations", decode_iterations);
  w.Field("decoded_tokens", decoded_tokens);
  w.Field("prefill_tokens", prefill_tokens);
  w.Field("prefill_chunks", prefill_chunks);
  w.Field("peak_concurrency", peak_concurrency);
  w.Field("peak_batch", peak_batch);
  w.Key("ttft");
  AppendHistogramJson(w, ttft_s);
  w.Key("tbt");
  AppendHistogramJson(w, tbt_s);
  w.Field("prefix_tokens_reused", prefix_tokens_reused);
  w.Field("prefix_hit_rate", prefix_hit_rate);
  w.Field("kv_blocks_in_use", kv_blocks_in_use);
  w.Field("kv_utilization", kv_utilization);
  w.EndObject();
}

std::string ServingLoop::Stats::ToJson() const {
  JsonWriter w;
  AppendJson(w);
  return w.TakeString();
}

std::vector<GenerationResult> ServingLoop::TakeResults() {
  std::vector<GenerationResult> results = std::move(completed_);
  completed_.clear();
  return results;
}

std::vector<GenerationResult> ServingLoop::RunToCompletion() {
  // Rejected-at-submit results recorded before this call stay in completed_.
  while (pending() > 0) {
    RunOnce();
  }
  SampleKvStats();  // final counter values (hit rate, tokens reused)
  return TakeResults();
}

}  // namespace ktx
