#include "src/core/async_service.h"

#include "src/common/logging.h"
#include "src/common/spin_wait.h"

namespace ktx {

AsyncMoeService::AsyncMoeService(std::shared_ptr<const NumaMoe> moe, std::size_t queue_capacity)
    : moe_(std::move(moe)), queue_(queue_capacity) {
  KTX_CHECK(moe_ != nullptr);
  control_thread_ = std::thread([this] { ControlLoop(); });
}

AsyncMoeService::~AsyncMoeService() {
  stop_.store(true);
  Wake();
  control_thread_.join();
}

void AsyncMoeService::Submit(MoeRequest* request) {
  KTX_CHECK(request != nullptr && !request->done.load());
  while (!queue_.TryPush(request)) {
    std::this_thread::yield();  // backpressure: queue full
  }
  Wake();
}

// Parking protocol: the control thread stores parked_ = true, then re-checks
// the queue; a producer pushes, then checks parked_. The seq_cst fences on
// both sides order each store before the other side's load, so either the
// control thread sees the request or the producer sees the parked flag and
// wakes it.
void AsyncMoeService::Wake() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_relaxed)) {
    parked_.store(false);
    parked_.notify_one();
  }
}

void AsyncMoeService::Park() {
  parked_.store(true);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (queue_.Empty() && !stop_.load()) {
    parked_.wait(true);
  }
  parked_.store(false, std::memory_order_relaxed);
}

void AsyncMoeService::Reserve(std::int64_t max_tokens, int max_slots) const {
  moe_->Reserve(max_tokens, max_slots);
}

MoeStats AsyncMoeService::stats_snapshot() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void AsyncMoeService::ControlLoop() {
  for (;;) {
    auto request = queue_.TryPop();
    if (!request.has_value()) {
      if (stop_.load(std::memory_order_acquire)) {
        return;
      }
      // The next request of a decode step is tens of microseconds away; an
      // idle engine's is not.
      if (!SpinUntil([this] { return !queue_.Empty() || stop_.load(); })) {
        Park();
      }
      continue;
    }
    MoeRequest* r = *request;
    if (r->slot_end > r->slot_begin) {
      MoeStats local;
      moe_->Forward(r->x, r->tokens, *r->routing, r->slot_begin, r->slot_end, r->y, &local,
                    r->hot);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.requests;
        stats_.tokens += local.tokens;
        stats_.activated_experts += local.activated_experts;
        stats_.subtasks += local.subtasks;
        stats_.amx_calls += local.amx_calls;
        stats_.avx512_calls += local.avx512_calls;
        stats_.avx2_calls += local.avx2_calls;
        stats_.scalar_calls += local.scalar_calls;
        stats_.useful_flops += local.useful_flops;
        stats_.hot_rows += local.hot_rows;
        stats_.cold_rows += local.cold_rows;
        stats_.max_tokens_per_expert =
            std::max(stats_.max_tokens_per_expert, local.max_tokens_per_expert);
      }
    }
    completed_.fetch_add(1);
    r->done.store(true, std::memory_order_release);
  }
}

}  // namespace ktx
