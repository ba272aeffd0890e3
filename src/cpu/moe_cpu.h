// The fused CPU MoE operator (paper §3.2).
//
// One Forward() call executes all routed experts for a batch of tokens, over
// every expert shard (one for flat placements, one per NUMA node under tensor
// parallelism, see tensor_parallel.h), as two fused task batches:
//
//   batch A: per (shard, expert, intermediate-band) — Gate and Up projections
//            fused (no data dependency), SwiGLU applied in-register;
//   batch B: per (shard, expert, hidden-band)       — Down projection into a
//            per-expert staging buffer;
//   reduce:  per (shard, token-band)                — weighted scatter-add
//            into the output rows (single writer per token, so no atomics).
//
// Grouping, kernel choice and the input gather run once per call, whatever
// the shard count. Under the default dynamic schedule the three phases are
// *chained*: one flat task list is drained by the pool's lock-free cursor, and
// an expert's Down bands become runnable the moment its last Gate/Up band
// finishes (per-expert atomic countdowns instead of global barriers); a
// shard's reduce band runs as soon as every expert contributing to its tokens
// has staged that shard's outputs and the previous shard has reduced the
// band. The static schedule keeps the classic three-batch block partition
// (its reduce task per token band adds every shard in order). Either way the
// summation order per token is fixed by a precomputed contribution index laid
// out in routing-slot order, so outputs are bit-identical across schedules,
// thread counts, and batch compositions (a token's reduce order never depends
// on which other tokens share the call). This is what
// absorbs the heavy expert-activation imbalance of the prefill phase (up to
// 1.83x, Fig. 14 'd'). The kernel kind per expert-group follows the
// arithmetic-intensity rule of Fig. 7: a calibrated dispatch table (when the
// engine provides one via MoeOptions::dispatch) maps tokens-per-expert to the
// fastest measured variant; otherwise the fixed ari_threshold heuristic
// applies, restricted to kinds the host actually has. The chosen kind is
// resolved through the kernel-variant registry (kernel_registry.h), so the
// fused pipeline below is expressed once against the variant interface and
// every variant produces bit-identical outputs.
//
// Every buffer the forward pass needs lives in a persistent per-CpuMoe
// workspace that grows to a high-water mark: steady-state decode performs zero
// heap allocations (see Reserve()).
//
// Expert Deferral hooks in through the routing-slot window: the engine calls
// Forward() with slots [0, I) for immediate experts and [I, top_k) for
// deferred experts of the previous layer (§4.1).

#ifndef KTX_SRC_CPU_MOE_CPU_H_
#define KTX_SRC_CPU_MOE_CPU_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/common/task_queue.h"
#include "src/common/thread_pool.h"
#include "src/cpu/gemm.h"
#include "src/cpu/layout.h"
#include "src/tensor/tensor.h"

namespace ktx {

struct KernelDispatchTable;  // src/cpu/kernel_calibrate.h

// Gate/Up/Down projections of one routed expert, packed tile-wise.
struct PackedExpert {
  PackedMatrix gate;  // [inter, hidden]
  PackedMatrix up;    // [inter, hidden]
  PackedMatrix down;  // [hidden, inter]
};

class PackedExperts {
 public:
  // Packs `num_experts` expert FFNs from f32 tensors. gate/up: [inter, hidden],
  // down: [hidden, inter].
  static StatusOr<PackedExperts> Pack(const std::vector<Tensor>& gate,
                                      const std::vector<Tensor>& up,
                                      const std::vector<Tensor>& down, DType dtype);

  int num_experts() const { return static_cast<int>(experts_.size()); }
  std::int64_t hidden() const { return hidden_; }
  std::int64_t inter() const { return inter_; }
  DType dtype() const { return dtype_; }
  const PackedExpert& expert(int e) const { return experts_[static_cast<std::size_t>(e)]; }
  std::size_t total_bytes() const;

 private:
  std::vector<PackedExpert> experts_;
  std::int64_t hidden_ = 0;
  std::int64_t inter_ = 0;
  DType dtype_ = DType::kBF16;
};

// Routing decisions for a token batch: per token, `top_k` (expert, weight)
// slots ordered by descending routing score.
struct MoeRouting {
  std::int64_t tokens = 0;
  int top_k = 0;
  std::vector<int> expert_ids;  // [tokens * top_k]
  std::vector<float> weights;   // [tokens * top_k]

  int id(std::int64_t t, int slot) const { return expert_ids[t * top_k + slot]; }
  float weight(std::int64_t t, int slot) const { return weights[t * top_k + slot]; }
};

struct MoeOptions {
  ScheduleKind schedule = ScheduleKind::kDynamic;
  std::int64_t ari_threshold = 4;                // Fig. 7 crossover (fallback)
  std::optional<KernelKind> force_kind;          // override dispatch entirely
  KernelImpl impl = KernelImpl::kAuto;
  std::int64_t band_blocks = 4;                  // 16-wide tile bands per task
  // Calibrated dispatch table (kernel_calibrate.h), consulted per expert-group
  // when non-null and non-empty; force_kind still wins. Not owned — the engine
  // keeps the calibration result alive for the CpuMoe's lifetime.
  const KernelDispatchTable* dispatch = nullptr;
};

// Pre-computed hot-expert rows for one routed batch (filled by the expert
// placement manager before the CPU forward is submitted). `served` is indexed
// by absolute routing slot: entry (t, s) covers slot s in [0, top_k) of token
// t, and is shared by every expert shard. `rows` holds one
// [tokens * top_k, hidden] plane per shard, `shard_stride` floats apart: for a
// served slot, plane p holds shard p's *unweighted* output — the full expert
// FFN output for a one-shard CpuMoe, that shard's partial down projection for
// a tensor-parallel one. The reduce adds a hot row in routing-slot order
// exactly like a staged cold row, which keeps the per-token summation order
// (and therefore the bits) identical to the unplaced baseline. Forward() skips
// served slots entirely on the CPU expert path: no grouping, no Gate/Up/Down
// tasks, no weight-byte traffic.
struct HotSlots {
  const std::uint8_t* served = nullptr;  // [tokens * top_k], 1 = served hot
  const float* rows = nullptr;           // [shards][tokens * top_k, hidden]
  std::int64_t shard_stride = 0;         // floats between shard planes
};

// Counts of one or more Forward() calls. Logical fields (tokens, activated
// experts, load peak, hot/cold split) describe the request and count once per
// call however many shards it spans; mechanical fields (tasks, kernel calls,
// flops) cover every shard.
struct MoeStats {
  // Routed-expert requests completed (one per AsyncMoeService request,
  // regardless of batch width — a B-token batched submit counts once).
  std::int64_t requests = 0;
  std::int64_t tokens = 0;
  int activated_experts = 0;
  std::int64_t max_tokens_per_expert = 0;
  // Total tasks dispatched, across all three phases (Gate/Up+SwiGLU, Down,
  // and the reduce scatter-add — the reduce phase counts too).
  std::int64_t subtasks = 0;
  // GEMM calls by the *resolved* variant kind (what actually executed, after
  // availability-aware selection and down-tiering — not what was requested).
  std::int64_t amx_calls = 0;
  std::int64_t avx512_calls = 0;
  std::int64_t avx2_calls = 0;
  std::int64_t scalar_calls = 0;
  std::int64_t gemm_calls() const {
    return amx_calls + avx512_calls + avx2_calls + scalar_calls;
  }
  double useful_flops = 0.0;
  // Expert-cache split of the routed slots: `hot_rows` were served from
  // pre-computed hot-expert rows (no CPU expert work), `cold_rows` ran the
  // full CPU expert path.
  std::int64_t hot_rows = 0;
  std::int64_t cold_rows = 0;
};

// Persistent forward workspace, defined in moe_cpu.cc. One per CpuMoe; holds
// the expert-group index, staging buffers, contribution index, chained-phase
// countdowns and per-worker GEMM scratch across Forward() calls.
struct MoeWorkspace;

class CpuMoe {
 public:
  // `shards` holds the routed experts split into equal-shaped shards: one for
  // the flat placements, one per NUMA node for tensor parallelism (the
  // TpExperts layout: shard s holds its slice of every expert's `inter`, and
  // its Down yields a partial [tokens, hidden] output). Every shard must have
  // the same expert count, hidden and inter widths and dtype.
  CpuMoe(std::vector<std::shared_ptr<const PackedExperts>> shards, ThreadPool* pool,
         MoeOptions options);
  CpuMoe(std::shared_ptr<const PackedExperts> experts, ThreadPool* pool, MoeOptions options)
      : CpuMoe(std::vector<std::shared_ptr<const PackedExperts>>{std::move(experts)}, pool,
               options) {}
  ~CpuMoe();
  CpuMoe(CpuMoe&&) noexcept;
  CpuMoe& operator=(CpuMoe&&) noexcept;

  // Pre-sizes the workspace for batches of up to `max_tokens` tokens over slot
  // windows of up to `max_slots` routing slots. Forward() calls at or below
  // that shape then perform no heap allocations. Growing is always automatic;
  // this only front-loads it (e.g. before entering the decode loop).
  void Reserve(std::int64_t max_tokens, int max_slots) const;

  // Accumulates the weighted outputs of routing slots [slot_begin, slot_end)
  // into y[tokens, hidden] (row-major, leading dimension = hidden).
  // x is [tokens, hidden] f32. Slots flagged in `hot` (may be null) are
  // satisfied from the pre-computed hot rows instead of the CPU expert path.
  // Every shard runs in one task graph; y receives shard 0's contributions in
  // slot order, then shard 1's, and so on — the sum a serial per-shard loop
  // would produce. Concurrent calls on one CpuMoe serialize on the shared
  // workspace.
  void Forward(const float* x, std::int64_t tokens, const MoeRouting& routing, int slot_begin,
               int slot_end, float* y, MoeStats* stats = nullptr,
               const HotSlots* hot = nullptr) const;

  // All slots at once.
  void Forward(const float* x, std::int64_t tokens, const MoeRouting& routing, float* y,
               MoeStats* stats = nullptr) const {
    Forward(x, tokens, routing, 0, routing.top_k, y, stats);
  }

  const MoeOptions& options() const { return options_; }

 private:
  std::vector<std::shared_ptr<const PackedExperts>> shards_;
  ThreadPool* pool_;
  MoeOptions options_;
  // unique_ptr so CpuMoe stays movable (the workspace holds a mutex and is
  // referenced by address from in-flight task descriptors).
  std::unique_ptr<MoeWorkspace> ws_;
};

// Reference f32 implementation against the unpacked weights (tests).
void RefMoeForward(const std::vector<Tensor>& gate, const std::vector<Tensor>& up,
                   const std::vector<Tensor>& down, const float* x, std::int64_t tokens,
                   const MoeRouting& routing, int slot_begin, int slot_end, float* y);

}  // namespace ktx

#endif  // KTX_SRC_CPU_MOE_CPU_H_
