// Bounded spin before a blocking wait.
//
// The CPU-side waiters of a decode step (the pool's workers between
// ParallelRun dispatches, the MoE control thread between requests) see their
// next piece of work tens of microseconds after the last one. Parking them in
// the kernel makes every request pay a futex wake; spinning forever burns a
// core while the engine is idle. SpinUntil covers the gap inside a step and
// lets the caller park after it.

#ifndef KTX_SRC_COMMON_SPIN_WAIT_H_
#define KTX_SRC_COMMON_SPIN_WAIT_H_

#include <chrono>
#include <thread>

namespace ktx {

// How long a waiter spins before it parks. It covers the idle gap between
// consecutive MoE requests of one decode step, measured on a 4-core x86 host
// with the small MoE model: about 40-60 us at batch 1 and 120-190 us at batch
// 4. A waiter whose work arrives later pays one wake, as a plain blocking wait
// would.
inline constexpr std::chrono::microseconds kSpinBudget{200};

// Spins until ready() holds or kSpinBudget elapses, and returns ready()'s last
// value. The spin yields instead of issuing `pause`: with more runnable
// threads than cores, a pause spin holds the core the producer needs.
template <class Ready>
bool SpinUntil(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return ready();
    }
    std::this_thread::yield();
  }
  return true;
}

}  // namespace ktx

#endif  // KTX_SRC_COMMON_SPIN_WAIT_H_
