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
    case SchedulePolicy::kSlackPreempt:
      return "slack_preempt";
  }
  return "unknown";
}

ServingLoop::ServingLoop(HybridEngine* engine, ServingOptions options)
    : engine_(engine), options_(options) {
  KTX_CHECK(engine_ != nullptr);
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
  result.preemptions = pending.preemptions;
  result.queue_seconds = waited_s;
  result.total_seconds = waited_s;
  completed_.push_back(std::move(result));
  ++stats_.requests_deadline_expired;
  trace::EmitAsyncEnd("request", "queued", pending.id);
  trace::EmitAsyncEndStr("request", "request", pending.id, "slack_us",
                         SlackMicros(pending.request.deadline_s, waited_s),
                         FinishReasonCstr(FinishReason::kDeadline));
}

void ServingLoop::SweepQueueDeadlines() {
  for (std::size_t i = 0; i < queue_.size();) {
    const double waited_s = queue_[i].submitted.ElapsedSeconds();
    if (queue_[i].request.deadline_s > 0.0 && waited_s > queue_[i].request.deadline_s) {
      Pending expired = std::move(queue_[i]);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      ExpireQueued(std::move(expired), waited_s);
      continue;
    }
    ++i;
  }
  for (std::size_t i = 0; i < preempted_.size();) {
    Active& row = preempted_[i].row;
    if (row.request.deadline_s > 0.0 &&
        row.clock.ElapsedSeconds() > row.request.deadline_s) {
      Preempted expired = std::move(preempted_[i]);
      preempted_.erase(preempted_.begin() + static_cast<std::ptrdiff_t>(i));
      // Was admitted once: the usual post-admission failure accounting.
      FailRow(std::move(expired.row), FinishReason::kDeadline,
              DeadlineExceededError(
                  "deadline of " + std::to_string(expired.row.request.deadline_s) +
                  "s expired while preempted after " +
                  std::to_string(expired.row.result.tokens.size()) + " tokens"));
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
  pending.submitted.Reset();
  queue_.push_back(std::move(pending));
  trace::EmitAsyncBegin("request", "queued", id);
  return id;
}

void ServingLoop::NoteSlotTaken() {
  stats_.peak_concurrency = std::max(
      stats_.peak_concurrency, static_cast<int>(prefilling_.size() + active_.size()) + 1);
}

void ServingLoop::NoteFirstToken(Active* active) {
  const double now = active->clock.ElapsedSeconds();
  active->result.time_to_first_token_s = now;
  active->last_emit_s = now;
  stats_.ttft_s.Record(now);
}

void ServingLoop::NoteDecodedToken(Active* active) {
  const double now = active->clock.ElapsedSeconds();
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
                 pending.submitted.ElapsedSeconds(), EstimateQueuedSeconds(pending.request),
                 pending.id);
}

ServingLoop::SchedKey ServingLoop::KeyOf(const Preempted& preempted) const {
  const Active& row = preempted.row;
  const auto remaining = static_cast<double>(
      row.request.max_new_tokens - static_cast<int>(row.result.tokens.size()));
  return MakeKey(row.request.priority, row.request.deadline_s, row.clock.ElapsedSeconds(),
                 remaining * ema_sweep_s_, row.id);
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
  return MakeKey(row.request.priority, row.request.deadline_s, row.clock.ElapsedSeconds(),
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

int ServingLoop::BestPreemptedIndex() const {
  if (preempted_.empty()) {
    return -1;
  }
  std::size_t best = 0;
  SchedKey best_key = KeyOf(preempted_[0]);
  for (std::size_t i = 1; i < preempted_.size(); ++i) {
    const SchedKey key = KeyOf(preempted_[i]);
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
    const int qi = BestQueuedIndex();
    const int pi = BestPreemptedIndex();
    if (qi < 0 && pi < 0) {
      break;
    }
    bool take_preempted;
    if (qi < 0) {
      take_preempted = true;
    } else if (pi < 0) {
      take_preempted = false;
    } else {
      take_preempted = ScheduledBefore(KeyOf(preempted_[static_cast<std::size_t>(pi)]),
                                       KeyOf(queue_[static_cast<std::size_t>(qi)]));
    }
    if (take_preempted) {
      if (!ResumePreempted(static_cast<std::size_t>(pi))) {
        break;  // pool pressure: retry after retirements free blocks
      }
    } else {
      if (!AdmitPending(static_cast<std::size_t>(qi))) {
        break;
      }
    }
  }
}

bool ServingLoop::AdmitPending(std::size_t index) {
  Pending pending = std::move(queue_[index]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  const double waited_s = pending.submitted.ElapsedSeconds();
  if (pending.request.deadline_s > 0.0 && waited_s > pending.request.deadline_s) {
    ExpireQueued(std::move(pending), waited_s);
    return true;
  }
  trace::EmitAsyncEnd("request", "queued", pending.id);
  Active active(pending.id, std::move(pending.request));
  active.result.preemptions = pending.preemptions;
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
  active.clock = pending.submitted;  // metrics are measured from Submit
  active.result.queue_seconds = waited_s;
  // Validate everything (KV headroom for the whole prompt included) but run
  // no prefill work here: AdvancePrefill spends the sweep's budget on it.
  auto cursor = engine_->StartPrefill(active.session, active.request.prompt);
  if (!cursor.ok()) {
    // A shared pool is drawn on by every session: a block-reservation failure
    // while other requests are in flight is back-pressure, not doom — their
    // retirements return blocks. Such a request re-queues unadmitted at the
    // head and this sweep stops admitting (the scheduler re-picks it by key
    // next sweep); it only fails kv_exhausted when nothing in flight could
    // free blocks for it.
    const bool exhausted = cursor.status().code() == StatusCode::kResourceExhausted;
    if (exhausted && engine_->kv_paged() && !(prefilling_.empty() && active_.empty())) {
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

bool ServingLoop::ResumePreempted(std::size_t index) {
  Preempted preempted = std::move(preempted_[index]);
  preempted_.erase(preempted_.begin() + static_cast<std::ptrdiff_t>(index));
  int session = -1;
  if (free_sessions_.empty()) {
    auto created = engine_->TryCreateSession();
    if (!created.ok()) {
      if (created.status().code() == StatusCode::kResourceExhausted &&
          !(prefilling_.empty() && active_.empty())) {
        preempted_.push_front(std::move(preempted));
        return false;  // a retirement will pool its session
      }
      FailRow(std::move(preempted.row), FinishReason::kBackendError,
              created.status().WithContext("resume"));
      return true;
    }
    session = *created;
  } else {
    session = free_sessions_.back();
    free_sessions_.pop_back();
    engine_->Reset(session);
  }
  // Bit-exact restore: adopt whatever run of the victim's own blocks is still
  // in the prefix cache (the same physical rows it was evicted with), then
  // copy the rest from the blob. Nothing is recomputed, so the resumed
  // stream continues exactly as the uninterrupted one would.
  auto adopted = engine_->TryRestoreKv(session, preempted.history, preempted.kv_blob);
  if (!adopted.ok()) {
    free_sessions_.push_back(session);
    if (adopted.status().code() == StatusCode::kResourceExhausted &&
        !(prefilling_.empty() && active_.empty())) {
      preempted_.push_front(std::move(preempted));
      return false;  // pool pressure: retry after retirements free blocks
    }
    const FinishReason reason = adopted.status().code() == StatusCode::kResourceExhausted
                                    ? FinishReason::kKvExhausted
                                    : FinishReason::kBackendError;
    FailRow(std::move(preempted.row), reason, adopted.status().WithContext("resume"));
    return true;
  }
  preempted.row.session = session;
  ++stats_.preempt_resumes;
  stats_.preempt_tokens_preserved += static_cast<std::int64_t>(preempted.history.size());
  stats_.preempt_tokens_adopted += *adopted;
  NoteSlotTaken();
  // Re-joins mid-decode: its pending sampled token is consumed and fed back
  // on this very sweep, like any decoding row.
  TracePhase(&preempted.row, "decode");  // closes the preempted span
  active_.push_back(std::move(preempted.row));
  return true;
}

// --- preemption --------------------------------------------------------------

void ServingLoop::MaybePreempt() {
  if (options_.policy != SchedulePolicy::kSlackPreempt) {
    return;
  }
  for (int round = 0; round < options_.max_concurrent; ++round) {
    if (static_cast<int>(prefilling_.size() + active_.size()) < options_.max_concurrent) {
      break;  // a free slot means admission, not preemption
    }
    const int qi = BestQueuedIndex();
    const int pi = BestPreemptedIndex();
    if (qi < 0 && pi < 0) {
      break;
    }
    SchedKey waiting;
    if (qi < 0) {
      waiting = KeyOf(preempted_[static_cast<std::size_t>(pi)]);
    } else if (pi < 0) {
      waiting = KeyOf(queue_[static_cast<std::size_t>(qi)]);
    } else {
      const SchedKey a = KeyOf(preempted_[static_cast<std::size_t>(pi)]);
      const SchedKey b = KeyOf(queue_[static_cast<std::size_t>(qi)]);
      waiting = ScheduledBefore(a, b) ? a : b;
    }
    // Never evict running work for a request already estimated to miss its
    // deadline: the eviction wastes the victim's sunk KV work and the
    // usurper's tokens earn no goodput anyway.
    if (waiting.infeasible) {
      break;
    }
    // Eviction is a last resort: if any running row is expected to retire
    // within the waiting request's slack, a slot will free in time and the
    // victim's sunk work is kept. Infinite slack (a deadline-free VIP) means
    // pure priority preemption — there is no urgency estimate to wait on.
    if (waiting.slack_s != std::numeric_limits<double>::infinity()) {
      double soonest_s = std::numeric_limits<double>::infinity();
      for (const Active& row : prefilling_) {
        soonest_s = std::min(soonest_s, EstimateActiveSeconds(row));
      }
      for (const Active& row : active_) {
        soonest_s = std::min(soonest_s, EstimateActiveSeconds(row));
      }
      if (waiting.slack_s >= soonest_s) {
        break;
      }
    }
    // Victim: the LAST-scheduled running row — lowest priority class, most
    // slack (or already infeasible, whose eviction costs the least goodput).
    bool victim_prefilling = false;
    std::size_t victim = 0;
    bool have_victim = false;
    SchedKey victim_key;
    const auto consider = [&](const SchedKey& key, bool is_prefilling, std::size_t i) {
      if (!have_victim || ScheduledBefore(victim_key, key)) {
        victim_key = key;
        victim = i;
        victim_prefilling = is_prefilling;
        have_victim = true;
      }
    };
    for (std::size_t i = 0; i < prefilling_.size(); ++i) {
      consider(KeyOf(prefilling_[i]), true, i);
    }
    for (std::size_t i = 0; i < active_.size(); ++i) {
      consider(KeyOf(active_[i]), false, i);
    }
    // Strictly lower priority only: equal-priority preemption would thrash
    // (the resumed victim would immediately justify preempting its usurper).
    if (!have_victim || victim_key.priority >= waiting.priority) {
      break;
    }
    if (victim_prefilling) {
      PreemptPrefilling(victim);
    } else {
      PreemptDecoding(victim);
    }
    AdmitWaiting();  // the freed slot goes to the best waiting request
  }
}

void ServingLoop::PreemptPrefilling(std::size_t index) {
  Active row = std::move(prefilling_[index]);
  prefilling_.erase(prefilling_.begin() + static_cast<std::ptrdiff_t>(index));
  // Nothing sampled yet, so dropping the partial prompt KV is bit-safe: a
  // re-prefill runs the same engine-fixed chunk grid, and the full prompt
  // blocks already registered in the prefix cache usually make it a block
  // adoption. The row goes back to pending with its Submit clock intact.
  engine_->Reset(row.session);
  ++stats_.preemptions;
  ++row.result.preemptions;
  RequeueAtHead(std::move(row));
}

void ServingLoop::RequeueAtHead(Active&& row) {
  free_sessions_.push_back(row.session);
  Pending back;
  back.id = row.id;
  back.request = std::move(row.request);
  back.submitted = row.clock;  // still running since Submit
  back.preemptions = row.result.preemptions;
  TracePhase(&row, "queued");  // closes an open prefill span
  queue_.push_front(std::move(back));
}

void ServingLoop::PreemptDecoding(std::size_t index) {
  Active row = std::move(active_[index]);
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(index));
  // The KV the session holds covers the prompt plus every decoded token fed
  // back; the pending sampled token (last_token) has produced no KV yet and
  // travels in the row itself.
  std::vector<int> history = row.request.prompt;
  history.insert(history.end(), row.result.tokens.begin(), row.result.tokens.end());
  auto blob = engine_->TrySaveKv(row.session);
  if (!blob.ok()) {
    FailRow(std::move(row), FinishReason::kBackendError,
            blob.status().WithContext("preempt"));
    return;
  }
  // Re-register the victim's full blocks under its token history BEFORE the
  // session resets: the blocks stay resident as evictable cache entries, and
  // resume adopts the very same physical bits instead of copying them back.
  engine_->RegisterSessionPrefix(row.session, history);
  engine_->Reset(row.session);
  free_sessions_.push_back(row.session);
  row.session = -1;
  ++stats_.preemptions;
  ++row.result.preemptions;
  TracePhase(&row, "preempted");  // closes the decode span
  Preempted preempted(std::move(row));
  preempted.kv_blob = std::move(*blob);
  preempted.history = std::move(history);
  preempted_.push_back(std::move(preempted));
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
    if (row.request.deadline_s > 0.0 &&
        row.clock.ElapsedSeconds() > row.request.deadline_s) {
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
    Stopwatch chunk_clock;
    chunk_clock.Reset();
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
    NoteChunkSeconds(chunk_clock.ElapsedSeconds());
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
  active.result.total_seconds = active.clock.ElapsedSeconds();
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
    if (row.request.deadline_s > 0.0 &&
        row.clock.ElapsedSeconds() > row.request.deadline_s) {
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
    if (active.request.deadline_s > 0.0 &&
        active.clock.ElapsedSeconds() > active.request.deadline_s) {
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
  if (!engine_->kv_paged() || active_.empty()) {
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
  if (!engine_->kv_paged()) {
    return;
  }
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
  Stopwatch sweep_clock;
  sweep_clock.Reset();
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
  NoteSweepSeconds(sweep_clock.ElapsedSeconds());
}

int ServingLoop::RunOnce() {
  const auto before = completed_.size();
  if (pending() == 0) {
    return 0;
  }
  KTX_TRACE_SPAN("serving", "sweep");
  KTX_TRACE_COUNTER("serving", "queue_depth", queue_.size());
  KTX_TRACE_COUNTER("serving", "active_requests", prefilling_.size() + active_.size());
  KTX_TRACE_COUNTER("serving", "preempted_requests", preempted_.size());
  // Expired requests leave the queue (and the preempted set) before they can
  // pin capacity or win a slot.
  SweepQueueDeadlines();
  AdmitWaiting();
  // Under kSlackPreempt, a waiting request that outranks a running row takes
  // its slot even though none is free.
  MaybePreempt();
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
  w.Field("preemptions", preemptions);
  w.Field("preempt_resumes", preempt_resumes);
  w.Field("preempt_tokens_preserved", preempt_tokens_preserved);
  w.Field("preempt_tokens_adopted", preempt_tokens_adopted);
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
