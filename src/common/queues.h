// Lock-free queue used by the asynchronous CPU-GPU scheduler (paper §3.3).
//
// SpscQueue: single-producer single-consumer bounded ring. The GPU-side
// control path (running inside a vcuda host function) pushes routed-expert
// batches; the CPU control thread pops them.

#ifndef KTX_SRC_COMMON_QUEUES_H_
#define KTX_SRC_COMMON_QUEUES_H_

#include <atomic>
#include <cstddef>
#include <optional>
#include <vector>

#include "src/common/align.h"
#include "src/common/logging.h"

namespace ktx {

template <typename T>
class SpscQueue {
 public:
  // Capacity is rounded up to a power of two; one slot is kept unused.
  explicit SpscQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity + 1) {
      cap <<= 1;
    }
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  bool TryPush(T value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = (head + 1) & mask_;
    if (next == tail_.load(std::memory_order_acquire)) {
      return false;  // full
    }
    slots_[head] = std::move(value);
    head_.store(next, std::memory_order_release);
    return true;
  }

  std::optional<T> TryPop() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) {
      return std::nullopt;  // empty
    }
    T value = std::move(slots_[tail]);
    tail_.store((tail + 1) & mask_, std::memory_order_release);
    return value;
  }

  bool Empty() const {
    return tail_.load(std::memory_order_acquire) == head_.load(std::memory_order_acquire);
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(kCacheLineBytes) std::atomic<std::size_t> head_{0};
  alignas(kCacheLineBytes) std::atomic<std::size_t> tail_{0};
};

}  // namespace ktx

#endif  // KTX_SRC_COMMON_QUEUES_H_
