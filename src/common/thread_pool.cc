#include "src/common/thread_pool.h"

#include <algorithm>
#include <cstdio>

#include "src/common/logging.h"
#include "src/common/spin_wait.h"
#include "src/common/trace.h"

namespace ktx {

namespace {

// Pool identity of the current thread. Pool workers set these once at start;
// every other thread keeps the nullptr default, which CurrentSlot maps to -1.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local int tls_slot = -1;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this, n] { return started_ == n; });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

int ThreadPool::CurrentSlot() const { return tls_pool == this ? tls_slot : -1; }

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    KTX_CHECK(!stop_.load(std::memory_order_relaxed)) << "Submit after shutdown";
    queue_.push_back(std::move(fn));
    queued_.fetch_add(1, std::memory_order_release);
  }
  work_cv_.notify_one();
}

bool ThreadPool::RunHasWork() const {
  const std::uint64_t cur = run_cursor_.load(std::memory_order_acquire);
  if (((cur >> kRunIndexBits) & 1) == 0) {
    return false;  // even generation: idle
  }
  return (cur & kRunIndexMask) < run_n_.load(std::memory_order_relaxed);
}

bool ThreadPool::HelpRun() {
  std::uint64_t cur = run_cursor_.load(std::memory_order_acquire);
  bool executed = false;
  for (;;) {
    const std::uint64_t gen = cur >> kRunIndexBits;
    if ((gen & 1) == 0) {
      break;  // no open run
    }
    const std::size_t idx = static_cast<std::size_t>(cur & kRunIndexMask);
    // Field loads are ordered after the acquire load of run_cursor_ that
    // observed this odd generation, so they see the values published when the
    // run opened. The CAS below validates they are still current.
    const std::size_t n = run_n_.load(std::memory_order_relaxed);
    if (idx >= n) {
      break;  // run fully claimed (stragglers land here)
    }
    const std::size_t chunk = run_chunk_.load(std::memory_order_relaxed);
    const std::size_t end = std::min(n, idx + chunk);
    if (run_cursor_.compare_exchange_weak(cur, cur + (end - idx), std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      const RunFn fn = run_fn_.load(std::memory_order_relaxed);
      void* ctx = run_ctx_.load(std::memory_order_relaxed);
      fn(ctx, idx, end);
      run_done_.fetch_add(end - idx, std::memory_order_release);
      executed = true;
      cur = run_cursor_.load(std::memory_order_acquire);
    }
    // CAS failure reloaded `cur`; the loop re-validates the generation.
  }
  return executed;
}

void ThreadPool::ParallelRun(RunFn fn, void* ctx, std::size_t n, std::size_t chunk) {
  if (n == 0) {
    return;
  }
  chunk = std::max<std::size_t>(1, chunk);
  if (threads_.size() == 1 || n <= chunk) {
    fn(ctx, 0, n);
    return;
  }
  KTX_DCHECK(n <= kRunIndexMask) << "ParallelRun index overflow";
  KTX_TRACE_SPAN_ARG("pool", "parallel_run", "subtasks", (n + chunk - 1) / chunk);
  std::lock_guard<std::mutex> serialize(run_mu_);
  // Fields may only mutate while the generation is even (idle).
  run_fn_.store(fn, std::memory_order_relaxed);
  run_ctx_.store(ctx, std::memory_order_relaxed);
  run_n_.store(n, std::memory_order_relaxed);
  run_chunk_.store(chunk, std::memory_order_relaxed);
  run_done_.store(0, std::memory_order_relaxed);
  const std::uint64_t gen = (run_cursor_.load(std::memory_order_relaxed) >> kRunIndexBits) + 1;
  run_cursor_.store(gen << kRunIndexBits, std::memory_order_release);  // open (odd)
  {
    // Empty critical section: a worker that evaluated its wait predicate
    // before this point either saw the open run or will be notified below.
    std::lock_guard<std::mutex> lock(mu_);
  }
  work_cv_.notify_all();
  HelpRun();  // the caller participates
  while (run_done_.load(std::memory_order_acquire) < n) {
    std::this_thread::yield();
  }
  run_cursor_.store((gen + 1) << kRunIndexBits, std::memory_order_release);  // close (even)
}

void ThreadPool::WorkerLoop(std::size_t slot) {
  tls_pool = this;
  tls_slot = static_cast<int>(slot);
  {
    char name[32];
    std::snprintf(name, sizeof(name), "pool worker %zu", slot);
    trace::SetCurrentThreadName(name);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++started_;
  }
  done_cv_.notify_all();
  for (;;) {
    if (HelpRun()) {
      continue;
    }
    // Stay hot through the gaps between a decode step's dispatches; park on
    // the condvar only once the spin budget runs out.
    SpinUntil([this] {
      return RunHasWork() || queued_.load(std::memory_order_acquire) > 0 ||
             stop_.load(std::memory_order_acquire);
    });
    if (RunHasWork()) {
      continue;
    }
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_relaxed) || next_ < queue_.size() || RunHasWork();
      });
      if (next_ < queue_.size()) {
        task = std::move(queue_[next_++]);
        queued_.fetch_sub(1, std::memory_order_relaxed);
        ++in_flight_;
        // Compact the queue when fully drained so it does not grow unbounded.
        if (next_ == queue_.size()) {
          queue_.clear();
          next_ = 0;
        }
      } else if (stop_.load(std::memory_order_relaxed)) {
        return;
      } else {
        continue;  // woken for a ParallelRun
      }
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      // Only the last finisher of a drained queue signals waiters; notifying
      // after every task stampedes every Wait()er awake (thundering herd).
      if (in_flight_ == 0 && next_ >= queue_.size()) {
        done_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return next_ >= queue_.size() && in_flight_ == 0; });
}

void ThreadPool::InjectFault(Status fault) {
  KTX_CHECK(!fault.ok()) << "InjectFault requires a non-OK status";
  std::lock_guard<std::mutex> lock(fault_mu_);
  fault_ = std::move(fault);
}

Status ThreadPool::TakeFault() {
  std::lock_guard<std::mutex> lock(fault_mu_);
  Status fault = std::move(fault_);
  fault_ = OkStatus();
  return fault.ok() ? fault : fault.WithContext("thread pool fault");
}

bool ThreadPool::has_fault() const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  return !fault_.ok();
}

namespace {

struct PforCtx {
  const std::function<void(std::size_t)>* fn;
};

void PforBody(void* ctx, std::size_t begin, std::size_t end) {
  const auto& fn = *static_cast<PforCtx*>(ctx)->fn;
  for (std::size_t i = begin; i < end; ++i) {
    fn(i);
  }
}

}  // namespace

void ThreadPool::ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
  PforCtx ctx{&fn};
  ParallelRun(&PforBody, &ctx, n, /*chunk=*/1);
}

}  // namespace ktx
