// Fixed-size worker pool with one dispatch primitive.
//
// This is the execution substrate for the CPU-side kernels: the fused MoE
// operator partitions expert weight matrices into tasks and the pool's workers
// drain them (statically or dynamically, see ScheduleKind in
// src/cpu/moe_cpu.h).
//
// ParallelRun() is the only way work reaches the workers. The work is
// described by one function pointer + context pointer; workers claim index
// chunks from a generation-tagged atomic cursor. A complete dispatch performs
// zero heap allocations (the pool mutex is touched once, empty, to publish the
// wakeup). ParallelFor() is a std::function convenience on top of it for
// one-shot builds off the hot path.
//
// ParallelRun protocol (all state lives in pool members, so late workers can
// never dereference a dead stack frame):
//
//   * `run_cursor_` packs (generation << kRunIndexBits) | next_index. Even
//     generations mean "idle", odd mean "open".
//   * The fields (fn, ctx, n, chunk) mutate only while the generation is
//     even; ParallelRun publishes them with the release store that flips the
//     generation odd.
//   * Workers claim chunks by CAS on the full packed word. A successful CAS
//     proves the generation did not change since the fields were read, so a
//     straggler from a previous run can never execute with torn fields — its
//     CAS fails (generations only grow; no ABA).
//   * The caller participates, then spins until `run_done_ == n`, then flips
//     the generation back to even.
//
// Idle workers yield-spin for kSpinBudget (spin_wait.h) on an open run before
// they park on the condvar, so the back-to-back dispatches of a decode step
// find them awake. A parked worker wakes on the
// next change of run generation, whether or not that run still has work
// when it gets the CPU, and returns to its spin.

#ifndef KTX_SRC_COMMON_THREAD_POOL_H_
#define KTX_SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/align.h"
#include "src/common/status.h"

namespace ktx {

class ThreadPool {
 public:
  // A plain-function work body: executes indices [begin, end) against `ctx`.
  using RunFn = void (*)(void* ctx, std::size_t begin, std::size_t end);

  // Creates `num_threads` workers (>=1) and returns once every worker has
  // finished its one-time setup (tracer registration, which allocates), so
  // no setup work lands inside a caller's later allocation-free window.
  // Workers are joined on destruction. A pool of one starts no thread: its
  // caller runs every ParallelRun inline.
  //
  // With `pin_workers`, worker i binds itself to the i-th CPU (wrapping) of
  // the creating thread's affinity mask before it runs any work. A scheduler
  // that does not balance load across CPUs (a cpuset with load balancing off)
  // leaves unpinned threads on their creator's CPU, where N workers share one
  // core; a pool that must use every CPU pins.
  explicit ThreadPool(std::size_t num_threads, bool pin_workers = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return num_threads_; }

  // Runs fn(i) for i in [0, n) across the pool and blocks until all complete.
  // The calling thread participates. fn receives (index).
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Runs fn(ctx, begin, end) over a partition of [0, n) across the pool and
  // blocks until every index has executed. The calling thread participates.
  // Workers claim `chunk` indices at a time from a shared cursor. Allocation-
  // free and lock-free on the claim path; concurrent callers serialize on an
  // internal mutex. Must not be called from inside a ParallelRun body of the
  // same pool.
  void ParallelRun(RunFn fn, void* ctx, std::size_t n, std::size_t chunk = 1);

  // Stable slot of the current thread within this pool: workers get
  // [0, num_threads), every other thread gets -1. Kernel code uses this to
  // index per-worker scratch (the caller of ParallelRun maps -1 to the extra
  // slot num_threads).
  int CurrentSlot() const;

  // --- Fault injection -------------------------------------------------------
  // Chaos hook: latches a sticky fault that the owner of the pool (the
  // engine's CPU substrate) polls at its recoverable step boundary and turns
  // into a propagated Status instead of an abort. A pool fault is not
  // attributable to one work item, so the poller fails the whole step.
  // Thread-safe; TakeFault clears the latch.
  void InjectFault(Status fault);
  Status TakeFault();  // OK if no fault latched
  bool has_fault() const;

 private:
  static constexpr int kRunIndexBits = 40;
  static constexpr std::uint64_t kRunIndexMask = (std::uint64_t{1} << kRunIndexBits) - 1;

  // `cpu` >= 0 binds the worker to that CPU first.
  void WorkerLoop(std::size_t slot, int cpu);
  // Claims and executes chunks of the currently open run (if any). Returns
  // true if at least one chunk was executed.
  bool HelpRun();
  // True if an open run still has unclaimed indices (cheap peek, used as the
  // workers' spin predicate).
  bool RunHasWork() const;
  // The generation half of run_cursor_: it changes whenever a run opens or
  // closes (the parked workers' wakeup predicate).
  std::uint64_t RunGeneration() const;

  std::size_t num_threads_;
  std::vector<std::thread> threads_;  // empty for a pool of one
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable started_cv_;
  std::size_t started_ = 0;  // workers past their setup
  std::atomic<bool> stop_{false};

  // ParallelRun slot; see the protocol note at the top of the file.
  //
  // Cache-line layout matters here: `run_cursor_` takes a CAS from every
  // worker on every chunk claim, and `run_done_` takes a fetch_add from every
  // worker on every chunk retire while the caller spins reading it. When the
  // two shared the line with each other (and with the read-mostly descriptor
  // fields), each retire invalidated every in-flight claim and each claim
  // stalled the caller's completion spin — visible as a mid-size-n cliff in
  // the per-task cost of empty-task runs (n=256 cost ~2.3x n=64/n=1024, where
  // the claim and retire rates peak together). Each contended word gets a private
  // line; the descriptor fields (written once per run, read-only during it)
  // share a third.
  std::mutex run_mu_;  // serializes ParallelRun callers only
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> run_cursor_{0};
  alignas(kCacheLineBytes) std::atomic<std::size_t> run_done_{0};
  alignas(kCacheLineBytes) std::atomic<RunFn> run_fn_{nullptr};
  std::atomic<void*> run_ctx_{nullptr};
  std::atomic<std::size_t> run_n_{0};
  std::atomic<std::size_t> run_chunk_{1};
  char run_pad_[kCacheLineBytes];  // keeps fault_mu_ off the descriptor line

  // Injected-fault latch (see InjectFault).
  mutable std::mutex fault_mu_;
  Status fault_;
};

// The CPUs of the calling thread's affinity mask (sched_getaffinity),
// ascending; empty if the mask cannot be read.
std::vector<int> AffinityCpus();

// AffinityCpus().size(), at least 1: how many threads a one-shot parallel
// build can keep busy. A thread pinned to one CPU gets 1, which callers take
// as "run serially".
std::size_t AffinityCpuCount();

// Binds the calling thread to `cpu`; a negative `cpu` leaves it unbound. Best
// effort: a CPU outside the process's cpuset leaves the thread where it was.
void PinCurrentThread(int cpu);

// Names the calling thread's trace track `role`, suffixed " (cpu N)" when
// `cpu` >= 0, so a trace shows where each thread was placed. Allocation-free.
void NameCurrentThread(const char* role, int cpu);

}  // namespace ktx

#endif  // KTX_SRC_COMMON_THREAD_POOL_H_
