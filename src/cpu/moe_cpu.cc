#include "src/cpu/moe_cpu.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>

#include "src/common/align.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/cpu/activation.h"
#include "src/cpu/kernel_calibrate.h"
#include "src/cpu/kernel_registry.h"

namespace ktx {

StatusOr<PackedExperts> PackedExperts::Pack(const std::vector<Tensor>& gate,
                                            const std::vector<Tensor>& up,
                                            const std::vector<Tensor>& down, DType dtype,
                                            ThreadPool* pool) {
  KTX_ASSIGN_OR_RETURN(std::vector<PackedExperts> packed,
                       PackShards(gate, up, down, dtype, /*shards=*/1, pool));
  return std::move(packed[0]);
}

StatusOr<std::vector<PackedExperts>> PackedExperts::PackShards(const std::vector<Tensor>& gate,
                                                               const std::vector<Tensor>& up,
                                                               const std::vector<Tensor>& down,
                                                               DType dtype, int shards,
                                                               ThreadPool* pool) {
  if (gate.empty() || gate.size() != up.size() || gate.size() != down.size()) {
    return InvalidArgumentError("PackedExperts::Pack: mismatched expert tensor lists");
  }
  if (gate[0].rank() != 2) {
    return InvalidArgumentError("PackedExperts::Pack: inconsistent expert shapes");
  }
  const std::int64_t inter = gate[0].dim(0);
  const std::int64_t hidden = gate[0].dim(1);
  for (std::size_t e = 0; e < gate.size(); ++e) {
    if (gate[e].shape() != gate[0].shape() || up[e].shape() != gate[0].shape() ||
        down[e].shape() != std::vector<std::int64_t>{hidden, inter}) {
      return InvalidArgumentError("PackedExperts::Pack: inconsistent expert shapes");
    }
    for (const Tensor* t : {&gate[e], &up[e], &down[e]}) {
      if (t->dtype() != DType::kF32) {
        return InvalidArgumentError("PackedExperts::Pack expects f32 tensors");
      }
    }
  }
  if (shards < 1 || inter % shards != 0) {
    return InvalidArgumentError("PackedExperts::PackShards: inter must split into shards");
  }
  const std::int64_t slice = inter / shards;
  const std::size_t experts = gate.size();
  std::vector<PackedExperts> packed(static_cast<std::size_t>(shards));
  for (PackedExperts& pe : packed) {
    pe.inter_ = slice;
    pe.hidden_ = hidden;
    pe.dtype_ = dtype;
    pe.experts_.resize(experts);
  }
  // Task i packs expert i % experts of shard i / experts into its own slot.
  std::vector<Status> status(packed.size() * experts);
  const auto pack = [&](std::size_t i) {
    const std::size_t e = i % experts;
    const std::int64_t r0 = static_cast<std::int64_t>(i / experts) * slice;
    PackedExpert& px = packed[i / experts].experts_[e];
    status[i] = [&]() -> Status {
      KTX_ASSIGN_OR_RETURN(px.gate, PackedMatrix::Pack(gate[e].Slice(r0, slice), dtype));
      KTX_ASSIGN_OR_RETURN(px.up, PackedMatrix::Pack(up[e].Slice(r0, slice), dtype));
      KTX_ASSIGN_OR_RETURN(px.down, PackedMatrix::PackColumns(down[e], r0, r0 + slice, dtype));
      return OkStatus();
    }();
  };
  if (pool != nullptr) {
    pool->ParallelFor(status.size(), pack);
  } else {
    for (std::size_t i = 0; i < status.size(); ++i) {
      pack(i);
    }
  }
  for (const Status& st : status) {
    if (!st.ok()) {
      return st;
    }
  }
  return packed;
}

std::size_t PackedExperts::total_bytes() const {
  std::size_t total = 0;
  for (const PackedExpert& e : experts_) {
    total += e.gate.payload_bytes() + e.up.payload_bytes() + e.down.payload_bytes();
  }
  return total;
}

namespace moe_detail {

// Token rows per reduce task (single writer per output row).
inline constexpr std::int64_t kReduceBand = 32;

// Grow-only typed span over an aligned allocation. Contents are rebuilt every
// Forward call, so growth discards them (no copy); doubling keeps the
// allocation count logarithmic in the high-water mark.
template <typename T>
class ScratchVec {
 public:
  void EnsureCapacity(std::size_t n) {
    if (n > cap_) {
      const std::size_t grown = std::max(n, 2 * cap_);
      buf_ = AlignedBuffer(grown * sizeof(T));
      cap_ = grown;
    }
  }
  T* data() { return buf_.as<T>(); }
  const T* data() const { return buf_.as<T>(); }
  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }
  std::size_t capacity() const { return cap_; }

 private:
  AlignedBuffer buf_;
  std::size_t cap_ = 0;
};

}  // namespace moe_detail

// All state of one fused forward pass, persistent across calls. Synchronization
// during the chained phase uses std::atomic_ref over the plain arrays — the
// struct itself stays assignable storage and the buffers stay reusable memory.
//
// Task numbering for one call (S shards, G groups, bands_a/bands_b bands per
// group, n_bands token bands):
//   [0, n_a)            Gate/Up + SwiGLU   task i -> (shard, group, band), shard-major
//   [n_a, n_a + n_b)    Down               task n_a + j -> (shard, group, band)
//   [n_a + n_b, total)  weighted reduce    dynamic: (shard, token band), shard-major;
//                                          static: token band, every shard in order
// The grouping, kernel choice and input gather are shared by every shard (the
// shards split `inter`, not the tokens); each shard stages into its own plane
// of gate_up/act/out. The chained schedule drains `ready`, a slot array of
// task ids: slots [0, n_a) are implicitly the Gate/Up tasks; each later slot
// is published (release store) by the completion event that makes its task
// runnable and claimed in cursor order by ParallelRun with chunk = 1. When a
// group's Gate/Up is one band (bands_a == 1, every decode-sized expert here),
// the chained Gate/Up task runs the group's Down bands itself: the Down ids
// keep their numbers but are never dispatched, so a call takes n_a + n_r
// slots.
struct MoeWorkspace {
  std::mutex mu;  // serializes Forward/Reserve on one CpuMoe

  // --- grouping: token rows per activated expert, first-appearance order ---
  moe_detail::ScratchVec<std::int32_t> group_of_expert;  // [num_experts], -1 between calls
  moe_detail::ScratchVec<std::int32_t> group_expert;     // [G]
  moe_detail::ScratchVec<std::int32_t> group_variant;    // [G] KernelRegistry index
  moe_detail::ScratchVec<std::int64_t> group_count;      // [G]
  moe_detail::ScratchVec<std::int64_t> group_off;        // [G] first staging row
  moe_detail::ScratchVec<std::int64_t> group_fill;       // [G] pass-2 cursor
  moe_detail::ScratchVec<std::int64_t> token_rows;       // [rows] ascending per group

  // --- per-token contribution index; fixes the reduce summation order ---
  moe_detail::ScratchVec<std::int64_t> contrib_src;  // [tokens * W] staging row
  moe_detail::ScratchVec<float> contrib_w;           // [tokens * W]

  // --- staging buffers, all groups flattened row-major, one plane per shard ---
  moe_detail::ScratchVec<float> x_gathered;  // [rows, hidden], shared by the shards
  moe_detail::ScratchVec<float> gate_up;     // [S][rows, 2*inter]
  moe_detail::ScratchVec<float> act;         // [S][rows, inter]
  moe_detail::ScratchVec<float> out;         // [S][rows, hidden]

  // --- chained execution state ---
  moe_detail::ScratchVec<std::int32_t> ready;           // [n_b + n_r] task ids, -1 unfilled
  moe_detail::ScratchVec<std::int32_t> a_remaining;     // [S * G] Gate/Up bands left
  moe_detail::ScratchVec<std::int32_t> b_remaining;     // [S * G] Down bands left
  moe_detail::ScratchVec<std::int32_t> band_remaining;  // [S * n_bands] predecessors left
  std::int64_t ready_tail = 0;                          // next slot (global id), atomic_ref
  Counter* kind_counters[4] = {nullptr, nullptr, nullptr, nullptr};  // metrics, by KernelKind

  // --- per-worker GEMM scratch (slot num_threads serves non-pool callers) ---
  moe_detail::ScratchVec<std::byte> gemm_scratch;
  std::size_t scratch_stride = 0;
  int scratch_slots = 0;

  // --- constants of the CpuMoe ---
  std::vector<const PackedExperts*> shards;
  ThreadPool* pool = nullptr;
  std::int64_t hidden = 0;
  std::int64_t inter = 0;  // per shard
  std::int64_t nb_inter = 0;
  std::int64_t nb_hidden = 0;
  std::int64_t bands_a = 0;
  std::int64_t bands_b = 0;
  std::int64_t band_blocks = 0;

  // --- call constants, set before dispatch ---
  float* y = nullptr;
  std::int64_t tokens = 0;
  std::int64_t slots = 0;  // slot window width W
  std::int64_t num_groups = 0;
  std::int64_t total_rows = 0;
  std::int64_t n_bands = 0;  // token bands
  std::int64_t n_a = 0;
  std::int64_t n_b = 0;
  std::int64_t phase_base = 0;  // static schedule: task id of the phase's first task
};

namespace {

using moe_detail::kReduceBand;

std::int64_t CeilDiv(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

// Grows every workspace buffer to cover batches of `tokens` tokens over slot
// windows of `slots` slots. No-op (and allocation-free) at or below the
// high-water mark.
void EnsureCapacity(MoeWorkspace* ws, std::int64_t tokens, std::int64_t slots) {
  const PackedExperts& ex = *ws->shards[0];
  const auto num_shards = ws->shards.size();
  const auto hidden = static_cast<std::size_t>(ws->hidden);
  const auto inter = static_cast<std::size_t>(ws->inter);
  const auto num_experts = static_cast<std::size_t>(ex.num_experts());
  const auto rows = static_cast<std::size_t>(tokens * slots);
  const std::size_t g_max = std::min<std::size_t>(num_experts, rows);
  const auto bands_b = static_cast<std::size_t>(ws->bands_b);
  const auto n_bands = static_cast<std::size_t>(CeilDiv(tokens, kReduceBand));

  if (ws->group_of_expert.capacity() < num_experts) {
    ws->group_of_expert.EnsureCapacity(num_experts);
    std::memset(ws->group_of_expert.data(), 0xFF,
                ws->group_of_expert.capacity() * sizeof(std::int32_t));
  }
  ws->group_expert.EnsureCapacity(g_max);
  ws->group_variant.EnsureCapacity(g_max);
  ws->group_count.EnsureCapacity(g_max);
  ws->group_off.EnsureCapacity(g_max);
  ws->group_fill.EnsureCapacity(g_max);
  ws->token_rows.EnsureCapacity(rows);
  ws->contrib_src.EnsureCapacity(rows);
  ws->contrib_w.EnsureCapacity(rows);
  ws->x_gathered.EnsureCapacity(rows * hidden);
  ws->gate_up.EnsureCapacity(num_shards * rows * 2 * inter);
  ws->act.EnsureCapacity(num_shards * rows * inter);
  ws->out.EnsureCapacity(num_shards * rows * hidden);
  ws->ready.EnsureCapacity(num_shards * (g_max * bands_b + n_bands));
  ws->a_remaining.EnsureCapacity(num_shards * g_max);
  ws->b_remaining.EnsureCapacity(num_shards * g_max);
  ws->band_remaining.EnsureCapacity(num_shards * n_bands);

  if (ws->scratch_stride == 0) {
    ws->scratch_stride = AlignUp(std::max(GemmScratchBytes(ex.expert(0).gate),
                                          GemmScratchBytes(ex.expert(0).down)),
                                 kCacheLineBytes);
  }
  ws->scratch_slots = static_cast<int>(ws->pool->num_threads()) + 1;
  ws->gemm_scratch.EnsureCapacity(static_cast<std::size_t>(ws->scratch_slots) *
                                  ws->scratch_stride);
}

void* TaskScratch(MoeWorkspace* ws) {
  const int cur = ws->pool->CurrentSlot();
  const int idx = cur < 0 ? ws->scratch_slots - 1 : cur;
  return ws->gemm_scratch.data() + static_cast<std::size_t>(idx) * ws->scratch_stride;
}

// The resolved variant an expert-group dispatches to. group_variant holds a
// KernelRegistry() index, fixed at Forward() grouping time — the fused
// pipeline below has no per-backend branches of its own.
const KernelVariant& GroupVariant(const MoeWorkspace* ws, std::size_t g) {
  return KernelRegistry()[static_cast<std::size_t>(ws->group_variant[g])];
}

// Gate + Up projections for one (shard, group, inter-band), SwiGLU in the
// same task so both projections stream the same gathered activations.
void ExecGateUp(MoeWorkspace* ws, std::int64_t idx) {
  const std::int64_t sg = idx / ws->bands_a;  // shard * G + group
  const std::int64_t s = sg / ws->num_groups;
  const auto g = static_cast<std::size_t>(sg % ws->num_groups);
  const std::int64_t b0 = (idx % ws->bands_a) * ws->band_blocks;
  const std::int64_t b1 = std::min(ws->nb_inter, b0 + ws->band_blocks);
  const PackedExpert& w = ws->shards[static_cast<std::size_t>(s)]->expert(ws->group_expert[g]);
  const std::int64_t te = ws->group_count[g];
  const std::int64_t off = ws->group_off[g];
  const std::int64_t hidden = ws->hidden;
  const std::int64_t inter = ws->inter;
  const KernelVariant& v = GroupVariant(ws, g);
  void* scratch = TaskScratch(ws);
  const float* xg = ws->x_gathered.data() + off * hidden;
  float* gu = ws->gate_up.data() + (s * ws->total_rows + off) * 2 * inter;
  // Gate into columns [0, inter), Up into [inter, 2*inter).
  v.gemm(xg, te, hidden, w.gate, gu, 2 * inter, /*accumulate=*/false, b0, b1, scratch,
         ws->scratch_stride);
  v.gemm(xg, te, hidden, w.up, gu + inter, 2 * inter, /*accumulate=*/false, b0, b1, scratch,
         ws->scratch_stride);
  const std::int64_t c0 = b0 * kNBlock;
  const std::int64_t c1 = std::min(inter, b1 * kNBlock);
  float* act = ws->act.data() + (s * ws->total_rows + off) * inter;
  for (std::int64_t r = 0; r < te; ++r) {
    SiluMul(gu + r * 2 * inter + c0, gu + r * 2 * inter + inter + c0, act + r * inter + c0,
            c1 - c0);
  }
}

// Down projection for one (shard, group, hidden-band) into the shard's staged
// output rows.
void ExecDown(MoeWorkspace* ws, std::int64_t idx) {
  const std::int64_t sg = idx / ws->bands_b;
  const std::int64_t s = sg / ws->num_groups;
  const auto g = static_cast<std::size_t>(sg % ws->num_groups);
  const std::int64_t b0 = (idx % ws->bands_b) * ws->band_blocks;
  const std::int64_t b1 = std::min(ws->nb_hidden, b0 + ws->band_blocks);
  const PackedExpert& w = ws->shards[static_cast<std::size_t>(s)]->expert(ws->group_expert[g]);
  const std::int64_t te = ws->group_count[g];
  const std::int64_t row0 = s * ws->total_rows + ws->group_off[g];
  const KernelVariant& v = GroupVariant(ws, g);
  v.gemm(ws->act.data() + row0 * ws->inter, te, ws->inter, w.down,
         ws->out.data() + row0 * ws->hidden, ws->hidden, /*accumulate=*/false, b0, b1,
         TaskScratch(ws), ws->scratch_stride);
}

// Weighted scatter-add of shard s's contributions for one token band. The
// contribution index fixes the per-token summation order to routing-slot
// order, so the result depends neither on which schedule or thread count
// produced the staged rows nor on which other tokens share the batch (a
// token's sum is the same whether its experts were grouped with one token or
// with many — the property batched decode's bit-identity guarantee rests on).
// Both schedules run shard s's reduce of a band after shard s-1's.
void ExecReduce(MoeWorkspace* ws, std::int64_t s, std::int64_t band) {
  const std::int64_t t0 = band * kReduceBand;
  const std::int64_t t1 = std::min(ws->tokens, t0 + kReduceBand);
  const std::int64_t hidden = ws->hidden;
  const float* staged = ws->out.data() + s * ws->total_rows * hidden;
  for (std::int64_t t = t0; t < t1; ++t) {
    const std::int64_t base = t * ws->slots;
    for (std::int64_t j = 0; j < ws->slots; ++j) {
      const std::int64_t src = ws->contrib_src[static_cast<std::size_t>(base + j)];
      AxpyInPlace(ws->y + t * hidden, staged + src * hidden,
                  ws->contrib_w[static_cast<std::size_t>(base + j)], hidden);
    }
  }
}

void ExecuteTask(MoeWorkspace* ws, std::int64_t id) {
  if (id < ws->n_a) {
    ExecGateUp(ws, id);
  } else if (id < ws->n_a + ws->n_b) {
    ExecDown(ws, id - ws->n_a);
  } else {
    const std::int64_t r = id - ws->n_a - ws->n_b;
    ExecReduce(ws, r / ws->n_bands, r % ws->n_bands);
  }
}

// Publishes task `id` into a fresh ready slot. The release store pairs with
// the acquire load in ChainedBody; the slot index is reserved through
// ready_tail, which only hands out as many slots as there are pushes.
void PushReady(MoeWorkspace* ws, std::int64_t id) {
  std::atomic_ref<std::int64_t> tail(ws->ready_tail);
  const std::int64_t pos = tail.fetch_add(1, std::memory_order_relaxed);
  std::atomic_ref<std::int32_t> slot(ws->ready[static_cast<std::size_t>(pos - ws->n_a)]);
  slot.store(static_cast<std::int32_t>(id), std::memory_order_release);
}

// Retires `count` predecessors of reduce task (s, band); the last one
// publishes it.
void RetireReduceDeps(MoeWorkspace* ws, std::int64_t s, std::int64_t band, std::int32_t count) {
  const std::int64_t r = s * ws->n_bands + band;
  std::atomic_ref<std::int32_t> rem(ws->band_remaining[static_cast<std::size_t>(r)]);
  if (rem.fetch_sub(count, std::memory_order_acq_rel) == count) {
    PushReady(ws, ws->n_a + ws->n_b + r);
  }
}

// Shard-group sg's staged outputs are complete: retires its contributions
// from each of the shard's reduce bands (token rows are ascending, so one
// pass batches the decrement per band).
void RetireGroup(MoeWorkspace* ws, std::int64_t sg) {
  const std::int64_t s = sg / ws->num_groups;
  const auto g = static_cast<std::size_t>(sg % ws->num_groups);
  const std::int64_t* rows = ws->token_rows.data() + ws->group_off[g];
  const std::int64_t n = ws->group_count[g];
  std::int64_t i = 0;
  while (i < n) {
    const std::int64_t band = rows[i] / kReduceBand;
    std::int32_t cnt = 1;
    ++i;
    while (i < n && rows[i] / kReduceBand == band) {
      ++cnt;
      ++i;
    }
    RetireReduceDeps(ws, s, band, cnt);
  }
}

// Executes one task and performs the cross-phase chaining bookkeeping.
//
// Ordering argument: every write a successor task must observe is sequenced
// before the predecessor's acq_rel fetch_sub on the shared countdown; the
// final decrement reads from the whole release sequence, so the pushing thread
// observes all predecessors' writes, and its release store into `ready` hands
// them to whichever thread claims the slot (acquire load).
void ChainedStep(MoeWorkspace* ws, std::int64_t id) {
  ExecuteTask(ws, id);
  if (id < ws->n_a) {
    const std::int64_t sg = id / ws->bands_a;
    if (ws->bands_a == 1) {
      // The group's only Gate/Up band is done, so its Down bands run here, in
      // the task that just wrote their input, and retire it as the last of
      // them would.
      for (std::int64_t bi = 0; bi < ws->bands_b; ++bi) {
        ExecDown(ws, sg * ws->bands_b + bi);
      }
      RetireGroup(ws, sg);
      return;
    }
    std::atomic_ref<std::int32_t> rem(ws->a_remaining[static_cast<std::size_t>(sg)]);
    if (rem.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last Gate/Up band of (shard, group): its Down tasks become runnable.
      for (std::int64_t bi = 0; bi < ws->bands_b; ++bi) {
        PushReady(ws, ws->n_a + sg * ws->bands_b + bi);
      }
    }
  } else if (id < ws->n_a + ws->n_b) {
    const std::int64_t sg = (id - ws->n_a) / ws->bands_b;
    std::atomic_ref<std::int32_t> rem(ws->b_remaining[static_cast<std::size_t>(sg)]);
    if (rem.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      RetireGroup(ws, sg);
    }
  } else {
    // Shard s's band is in y: shard s+1's reduce of the band may add next.
    const std::int64_t r = id - ws->n_a - ws->n_b;
    const std::int64_t s = r / ws->n_bands;
    if (s + 1 < static_cast<std::int64_t>(ws->shards.size())) {
      RetireReduceDeps(ws, s + 1, r % ws->n_bands, 1);
    }
  }
}

// ParallelRun body for the chained schedule. Slot indices below n_a are the
// (always-runnable) Gate/Up tasks; later slots spin until their task id is
// published. Progress is guaranteed: every publisher takes a slot past the
// tail, which is past its own slot, so the minimal claimed-but-unfilled
// slot's publisher lives in a smaller, already-claimed and filled slot
// (Gate/Up slots are pre-filled by construction), and some thread is always
// executing.
void ChainedBody(void* ctx, std::size_t begin, std::size_t end) {
  auto* ws = static_cast<MoeWorkspace*>(ctx);
  for (std::size_t i = begin; i < end; ++i) {
    auto id = static_cast<std::int64_t>(i);
    if (id >= ws->n_a) {
      std::atomic_ref<std::int32_t> slot(ws->ready[static_cast<std::size_t>(id - ws->n_a)]);
      std::int32_t v = slot.load(std::memory_order_acquire);
      while (v < 0) {
        std::this_thread::yield();
        v = slot.load(std::memory_order_acquire);
      }
      id = v;
    }
    ChainedStep(ws, id);
  }
}

// ParallelRun body for the Gate/Up and Down phases of the static schedule.
void StaticBody(void* ctx, std::size_t begin, std::size_t end) {
  auto* ws = static_cast<MoeWorkspace*>(ctx);
  for (std::size_t i = begin; i < end; ++i) {
    ExecuteTask(ws, ws->phase_base + static_cast<std::int64_t>(i));
  }
}

// ParallelRun body for the static reduce phase: one task per token band adds
// every shard's contributions, in shard order.
void StaticReduceBody(void* ctx, std::size_t begin, std::size_t end) {
  auto* ws = static_cast<MoeWorkspace*>(ctx);
  for (std::size_t band = begin; band < end; ++band) {
    for (std::size_t s = 0; s < ws->shards.size(); ++s) {
      ExecReduce(ws, static_cast<std::int64_t>(s), static_cast<std::int64_t>(band));
    }
  }
}

}  // namespace

CpuMoe::CpuMoe(std::vector<std::shared_ptr<const PackedExperts>> shards, ThreadPool* pool,
               MoeOptions options)
    : shards_(std::move(shards)),
      pool_(pool),
      options_(options),
      ws_(std::make_unique<MoeWorkspace>()) {
  KTX_CHECK(!shards_.empty());
  KTX_CHECK(pool_ != nullptr);
  KTX_CHECK_GE(options_.band_blocks, 1);
  const PackedExperts& first = *shards_[0];
  for (const auto& shard : shards_) {
    KTX_CHECK(shard != nullptr);
    KTX_CHECK(shard->num_experts() == first.num_experts() && shard->hidden() == first.hidden() &&
              shard->inter() == first.inter() && shard->dtype() == first.dtype())
        << "CpuMoe: expert shards differ in shape or dtype";
    ws_->shards.push_back(shard.get());
  }
  // CI kernel-variant matrix: KTX_FORCE_KERNEL pins every expert-group onto
  // one registered variant, overriding both the caller's force_kind and the
  // calibrated dispatch table.
  if (const std::optional<ForcedKernel> forced = ForcedKernelFromEnv()) {
    options_.force_kind = forced->kind;
    options_.impl = forced->impl;
  }
  ws_->pool = pool_;
  ws_->hidden = first.hidden();
  ws_->inter = first.inter();
  ws_->nb_inter = first.expert(0).gate.n_blocks();
  ws_->nb_hidden = first.expert(0).down.n_blocks();
  ws_->band_blocks = options_.band_blocks;
  ws_->bands_a = CeilDiv(ws_->nb_inter, options_.band_blocks);
  ws_->bands_b = CeilDiv(ws_->nb_hidden, options_.band_blocks);
  // Resolve the per-kind metric counters once; registry lookups take a mutex.
  ws_->kind_counters[static_cast<int>(KernelKind::kAmx)] =
      MetricsRegistry::Global().GetCounter("moe.gemm_calls_amx_total");
  ws_->kind_counters[static_cast<int>(KernelKind::kAvx512)] =
      MetricsRegistry::Global().GetCounter("moe.gemm_calls_avx512_total");
  ws_->kind_counters[static_cast<int>(KernelKind::kAvx2)] =
      MetricsRegistry::Global().GetCounter("moe.gemm_calls_avx2_total");
  ws_->kind_counters[static_cast<int>(KernelKind::kScalar)] =
      MetricsRegistry::Global().GetCounter("moe.gemm_calls_scalar_total");
}

CpuMoe::~CpuMoe() = default;
CpuMoe::CpuMoe(CpuMoe&&) noexcept = default;
CpuMoe& CpuMoe::operator=(CpuMoe&&) noexcept = default;

void CpuMoe::Reserve(std::int64_t max_tokens, int max_slots) const {
  if (max_tokens <= 0 || max_slots <= 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(ws_->mu);
  EnsureCapacity(ws_.get(), max_tokens, max_slots);
}

void CpuMoe::Forward(const float* x, std::int64_t tokens, const MoeRouting& routing,
                     int slot_begin, int slot_end, float* y, MoeStats* stats) const {
  KTX_CHECK_EQ(tokens, routing.tokens);
  KTX_CHECK(slot_begin >= 0 && slot_end <= routing.top_k && slot_begin <= slot_end);
  const std::int64_t window = slot_end - slot_begin;
  if (tokens <= 0 || window <= 0) {
    return;
  }
  MoeWorkspace* ws = ws_.get();
  const std::int64_t hidden = ws->hidden;
  const auto num_shards = static_cast<std::int64_t>(shards_.size());
  const int num_experts = shards_[0]->num_experts();

  trace::ScopedSpan moe_span("moe", "cpu_moe_forward", "tokens", tokens);
  std::lock_guard<std::mutex> lock(ws->mu);
  EnsureCapacity(ws, tokens, window);

  // --- Group tokens by expert (first-appearance order), two passes. ---------
  std::int32_t* goe = ws->group_of_expert.data();
  std::int64_t num_groups = 0;
  for (std::int64_t t = 0; t < tokens; ++t) {
    for (int s = slot_begin; s < slot_end; ++s) {
      const int e = routing.id(t, s);
      KTX_DCHECK(e >= 0 && e < num_experts) << "bad expert id " << e;
      std::int32_t g = goe[e];
      if (g < 0) {
        g = static_cast<std::int32_t>(num_groups++);
        goe[e] = g;
        ws->group_expert[static_cast<std::size_t>(g)] = e;
        ws->group_count[static_cast<std::size_t>(g)] = 0;
      }
      ++ws->group_count[static_cast<std::size_t>(g)];
    }
  }

  // Per-group kernel choice: force_kind wins; else the calibrated dispatch
  // table (when provided) maps tokens-per-expert to the fastest measured kind;
  // else the fixed ari_threshold heuristic over the host's available kinds.
  // Either way the kind resolves through the registry to a concrete runnable
  // variant, stored as a registry index. Every shard of a group runs it.
  const DType dtype = shards_[0]->dtype();
  const bool calibrated =
      !options_.force_kind.has_value() && options_.dispatch != nullptr &&
      !options_.dispatch->empty();
  std::int64_t total_rows = 0;
  std::int64_t max_group = 0;
  for (std::int64_t g = 0; g < num_groups; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    const std::int64_t te = ws->group_count[gi];
    ws->group_off[gi] = total_rows;
    ws->group_fill[gi] = 0;
    const KernelKind kind =
        options_.force_kind.has_value()
            ? *options_.force_kind
            : (calibrated ? options_.dispatch->Choose(dtype, te)
                          : SelectKernel(te, options_.ari_threshold));
    ws->group_variant[gi] = static_cast<std::int32_t>(
        KernelVariantIndex(ResolveKernelVariant(kind, options_.impl, dtype)));
    total_rows += te;
    max_group = std::max(max_group, te);
  }
  // Pass 2 also builds the per-token contribution index in routing-slot
  // order: token t's reduce sums its slots in [slot_begin, slot_end) order
  // regardless of how its experts were grouped, so the per-row result is
  // invariant to batch composition (sequential vs batched decode).
  // band_remaining's shard-0 plane counts each band's contributions.
  const std::int64_t n_bands = CeilDiv(tokens, kReduceBand);
  std::int32_t* band_rem = ws->band_remaining.data();
  std::fill_n(band_rem, n_bands, 0);
  for (std::int64_t t = 0; t < tokens; ++t) {
    const std::int64_t band = t / kReduceBand;
    for (int s = slot_begin; s < slot_end; ++s) {
      const std::int64_t idx = t * window + (s - slot_begin);
      const auto g = static_cast<std::size_t>(goe[routing.id(t, s)]);
      const std::int64_t pos = ws->group_off[g] + ws->group_fill[g]++;
      ws->token_rows[static_cast<std::size_t>(pos)] = t;
      ws->contrib_src[static_cast<std::size_t>(idx)] = pos;
      ws->contrib_w[static_cast<std::size_t>(idx)] = routing.weight(t, s);
      ++band_rem[band];
    }
  }
  // Restore the sentinel for the next call (touch only activated entries).
  for (std::int64_t g = 0; g < num_groups; ++g) {
    goe[ws->group_expert[static_cast<std::size_t>(g)]] = -1;
  }

  // --- Gather inputs for the staged Gate/Up rows (shared by every shard). ---
  float* xg = ws->x_gathered.data();
  for (std::int64_t a = 0; a < total_rows; ++a) {
    std::memcpy(xg + a * hidden, x + ws->token_rows[static_cast<std::size_t>(a)] * hidden,
                static_cast<std::size_t>(hidden) * sizeof(float));
  }

  // --- Task counts and chaining countdowns. ---------------------------------
  ws->y = y;
  ws->tokens = tokens;
  ws->slots = window;
  ws->num_groups = num_groups;
  ws->total_rows = total_rows;
  ws->n_bands = n_bands;
  ws->n_a = num_shards * num_groups * ws->bands_a;
  ws->n_b = num_shards * num_groups * ws->bands_b;
  const bool dynamic = options_.schedule == ScheduleKind::kDynamic;
  const std::int64_t n_r = dynamic ? num_shards * n_bands : n_bands;
  // Tasks dispatched: chained Down bands behind a single Gate/Up band run
  // inside their Gate/Up task (ChainedStep).
  const bool fused_down = dynamic && ws->bands_a == 1;
  const std::int64_t total = ws->n_a + (fused_down ? 0 : ws->n_b) + n_r;

  moe_span.set_arg("subtasks", total);
  if (dynamic) {
    for (std::int64_t sg = 0; sg < num_shards * num_groups; ++sg) {
      ws->a_remaining[static_cast<std::size_t>(sg)] = static_cast<std::int32_t>(ws->bands_a);
      ws->b_remaining[static_cast<std::size_t>(sg)] = static_cast<std::int32_t>(ws->bands_b);
    }
    // Shard s > 0's reduce of a band also waits for shard s-1's: that keeps
    // y's per-token summation order shard-sequential.
    for (std::int64_t s = 1; s < num_shards; ++s) {
      for (std::int64_t r = 0; r < n_bands; ++r) {
        band_rem[s * n_bands + r] = band_rem[r] + 1;
      }
    }
    std::memset(ws->ready.data(), 0xFF,
                static_cast<std::size_t>(ws->n_b + n_r) * sizeof(std::int32_t));
    ws->ready_tail = ws->n_a;
    pool_->ParallelRun(&ChainedBody, ws, static_cast<std::size_t>(total), /*chunk=*/1);
  } else {
    // Static: three barrier-separated phases, each block-partitioned exactly
    // like SimulateMakespan(kStatic) charges it.
    const auto run_phase = [&](ThreadPool::RunFn body, std::int64_t base, std::int64_t n) {
      if (n == 0) {
        return;
      }
      ws->phase_base = base;
      const std::size_t blocks =
          std::min<std::size_t>(pool_->num_threads(), static_cast<std::size_t>(n));
      const std::size_t chunk = (static_cast<std::size_t>(n) + blocks - 1) / blocks;
      pool_->ParallelRun(body, ws, static_cast<std::size_t>(n), chunk);
    };
    run_phase(&StaticBody, 0, ws->n_a);
    run_phase(&StaticBody, ws->n_a, ws->n_b);
    run_phase(&StaticReduceBody, 0, n_r);
  }

  // Per-variant GEMM calls: every shard of a group runs 2 calls (Gate, Up)
  // per Gate/Up band and 1 per Down band on the group's variant. They go to
  // MoeStats for callers, the trace layer for timeline correlation, and the
  // global metrics registry for scraping. The counter pointers are resolved
  // once (registry lookups take a mutex).
  std::int64_t kind_calls[4] = {0, 0, 0, 0};
  for (std::int64_t g = 0; g < num_groups; ++g) {
    kind_calls[static_cast<int>(GroupVariant(ws, static_cast<std::size_t>(g)).kind)] +=
        num_shards * (2 * ws->bands_a + ws->bands_b);
  }
  for (int k = 0; k < 4; ++k) {
    if (kind_calls[k] != 0) {
      ws->kind_counters[k]->Add(kind_calls[k]);
      KTX_TRACE_COUNTER("moe", KernelKindName(static_cast<KernelKind>(k)),
                        ws->kind_counters[k]->value());
    }
  }

  if (stats != nullptr) {
    stats->tokens += tokens;
    stats->activated_experts += static_cast<int>(num_groups);
    stats->max_tokens_per_expert = std::max(stats->max_tokens_per_expert, max_group);
    stats->subtasks += total;
    stats->amx_calls += kind_calls[static_cast<int>(KernelKind::kAmx)];
    stats->avx512_calls += kind_calls[static_cast<int>(KernelKind::kAvx512)];
    stats->avx2_calls += kind_calls[static_cast<int>(KernelKind::kAvx2)];
    stats->scalar_calls += kind_calls[static_cast<int>(KernelKind::kScalar)];
    stats->useful_flops += 6.0 * static_cast<double>(total_rows) * static_cast<double>(hidden) *
                           static_cast<double>(ws->inter * num_shards);
    stats->routed_rows += total_rows;
  }
}

void RefMoeForward(const std::vector<Tensor>& gate, const std::vector<Tensor>& up,
                   const std::vector<Tensor>& down, const float* x, std::int64_t tokens,
                   const MoeRouting& routing, int slot_begin, int slot_end, float* y) {
  const std::int64_t hidden = gate[0].dim(1);
  const std::int64_t inter = gate[0].dim(0);
  std::vector<float> g_buf(static_cast<std::size_t>(inter));
  std::vector<float> u_buf(static_cast<std::size_t>(inter));
  std::vector<float> a_buf(static_cast<std::size_t>(inter));
  std::vector<float> o_buf(static_cast<std::size_t>(hidden));
  for (std::int64_t t = 0; t < tokens; ++t) {
    for (int s = slot_begin; s < slot_end; ++s) {
      const int e = routing.id(t, s);
      const float wgt = routing.weight(t, s);
      RefGemm(x + t * hidden, 1, hidden, gate[static_cast<std::size_t>(e)], g_buf.data(), inter);
      RefGemm(x + t * hidden, 1, hidden, up[static_cast<std::size_t>(e)], u_buf.data(), inter);
      SiluMul(g_buf.data(), u_buf.data(), a_buf.data(), inter);
      RefGemm(a_buf.data(), 1, inter, down[static_cast<std::size_t>(e)], o_buf.data(), hidden);
      AxpyInPlace(y + t * hidden, o_buf.data(), wgt, hidden);
    }
  }
}

}  // namespace ktx
