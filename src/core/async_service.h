// Asynchronous CPU-side MoE service (paper §3.3).
//
// The GPU control flow never blocks on the CPU directly. Instead:
//   * a host function running inside the CUDA stream (or captured graph)
//     pushes a routed-expert request into a lock-free queue (*submit*);
//   * a dedicated CPU control thread pops requests and executes them on the
//     worker pool through the NUMA-aware MoE operator; between requests it
//     spins for kSpinBudget (spin_wait.h), then parks until the next Submit;
//   * a later host function spins on the request's completion flag (*sync*),
//     emulating the paper's CUDA-based spinning that keeps both barriers
//     inside a single CUDA graph.
//
// Requests complete in submission order (the control thread is serial), which
// is the property Expert Deferral relies on: waiting on layer k's immediate
// request implies layer k-1's deferred request has finished.

#ifndef KTX_SRC_CORE_ASYNC_SERVICE_H_
#define KTX_SRC_CORE_ASYNC_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/queues.h"
#include "src/common/trace.h"
#include "src/cpu/moe_cpu.h"
#include "src/numa/tensor_parallel.h"

namespace ktx {

// One routed-expert batch: slots [slot_begin, slot_end) of `routing` applied
// to x, accumulated into y. The caller owns all buffers and must keep them
// alive until done reads true.
struct MoeRequest {
  const float* x = nullptr;
  std::int64_t tokens = 0;
  const MoeRouting* routing = nullptr;
  int slot_begin = 0;
  int slot_end = 0;
  float* y = nullptr;
  std::atomic<bool> done{false};
  // The CPU the control thread ran this request on (sched_getcpu), written
  // before done: where the engine placed its MoE control thread.
  int cpu = -1;

  void Reset() { done.store(false, std::memory_order_relaxed); }
  void Wait() const {
    while (!done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  // Wait() inside a moe/sync_wait trace span tagged with the model layer: the
  // engine's sync barrier, where the GPU stream stalls on the CPU experts.
  // `before_wait` runs first, inside the span: the stream's own work for the
  // time it would otherwise only spin.
  template <class BeforeWait>
  void SyncWait(int layer, BeforeWait before_wait) const {
    KTX_TRACE_SPAN_ARG("moe", "sync_wait", "layer", layer);
    before_wait();
    Wait();
  }
  void SyncWait(int layer) const {
    SyncWait(layer, [] {});
  }
};

class AsyncMoeService {
 public:
  static constexpr std::size_t kDefaultQueueCapacity = 256;

  // Takes shared ownership of the executor. `queue_capacity` bounds in-flight
  // requests (2 per layer suffices for deferral's one-layer lookahead). `cpu`
  // >= 0 binds the control thread to that CPU before it runs any request.
  explicit AsyncMoeService(std::shared_ptr<const NumaMoe> moe,
                           std::size_t queue_capacity = kDefaultQueueCapacity, int cpu = -1);
  ~AsyncMoeService();

  AsyncMoeService(const AsyncMoeService&) = delete;
  AsyncMoeService& operator=(const AsyncMoeService&) = delete;

  // Non-blocking in the common case (spins only when the queue is full).
  // Thread-safe for a single producer (the vcuda stream worker).
  void Submit(MoeRequest* request);

  // Pre-sizes the executor's forward workspaces (see CpuMoe::Reserve). Call
  // before steady-state decode; must not race with in-flight requests.
  void Reserve(std::int64_t max_tokens, int max_slots) const;

  // Cumulative executed request count (tests / stats).
  std::int64_t completed() const { return completed_.load(); }
  MoeStats stats_snapshot() const;

 private:
  void ControlLoop(int cpu);
  // Blocks the control thread until Wake(), unless a request or stop is
  // already pending.
  void Park();
  // Unparks the control thread if it is parked.
  void Wake();

  std::shared_ptr<const NumaMoe> moe_;
  SpscQueue<MoeRequest*> queue_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> parked_{false};
  std::atomic<std::int64_t> completed_{0};
  mutable std::mutex stats_mu_;
  MoeStats stats_;
  std::thread control_thread_;  // last: it uses every member above
};

}  // namespace ktx

#endif  // KTX_SRC_CORE_ASYNC_SERVICE_H_
