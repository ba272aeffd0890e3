// Test helper: run a body exactly once on every worker of a ThreadPool.

#ifndef KTX_TESTS_RUN_ONCE_PER_THREAD_H_
#define KTX_TESTS_RUN_ONCE_PER_THREAD_H_

#include <atomic>
#include <cstddef>
#include <thread>

#include "src/common/thread_pool.h"

namespace ktx {

// Runs `body(slot)` once on every worker of `pool` (slot = CurrentSlot()) and
// once on the caller (slot -1): a run of workers + 1 one-index chunks in which
// each index waits for all the others, so no thread can take two.
template <typename Body>
void RunOncePerThread(ThreadPool& pool, Body body) {
  struct Ctx {
    ThreadPool* pool;
    Body* body;
    std::size_t n;
    std::atomic<std::size_t> arrived{0};
  };
  Ctx ctx{&pool, &body, pool.num_threads() + 1};
  pool.ParallelRun(
      [](void* p, std::size_t, std::size_t) {
        auto* c = static_cast<Ctx*>(p);
        (*c->body)(c->pool->CurrentSlot());
        c->arrived.fetch_add(1);
        while (c->arrived.load() < c->n) {
          std::this_thread::yield();
        }
      },
      &ctx, ctx.n, /*chunk=*/1);
}

}  // namespace ktx

#endif  // KTX_TESTS_RUN_ONCE_PER_THREAD_H_
