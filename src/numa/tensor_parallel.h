// NUMA-aware tensor parallelism for routed experts (paper §3.3, Fig. 8b).
//
// Instead of pinning whole experts to sockets (expert parallelism, which
// saturates one socket while the other idles), every expert's weight matrices
// are sharded across sockets:
//
//   * Gate/Up [inter, hidden] are split column-parallel along `inter`: shard s
//     holds rows [s*inter/S, (s+1)*inter/S) and produces its slice of the
//     SwiGLU activation locally;
//   * Down [hidden, inter] is split row-parallel along its K dim (`inter`):
//     shard s holds columns matching its activation slice and produces a
//     *partial* [tokens, hidden] output;
//   * a lightweight reduce(-scatter) sums the partials.
//
// Every socket therefore touches only local weights; the only cross-socket
// traffic is the tiny partial-output reduction — this is what buys the
// up-to-1.63x decode gain over the NUMA-oblivious baseline.

#ifndef KTX_SRC_NUMA_TENSOR_PARALLEL_H_
#define KTX_SRC_NUMA_TENSOR_PARALLEL_H_

#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/cpu/moe_cpu.h"
#include "src/sim/cost_model.h"

namespace ktx {

// Expert weights sharded across `shards` NUMA nodes.
class TpExperts {
 public:
  // gate/up: [inter, hidden] per expert; down: [hidden, inter]. `inter` must
  // split into `shards` equal, 16-aligned slices. Each shard packs straight
  // from the source tensors (Gate/Up from a row range, Down from a column
  // range; PackedExperts::PackShards), one task per (shard, expert) on
  // `pool` when given. The packed bytes equal a serial build's.
  static StatusOr<TpExperts> Build(const std::vector<Tensor>& gate,
                                   const std::vector<Tensor>& up,
                                   const std::vector<Tensor>& down, DType dtype, int shards,
                                   ThreadPool* pool = nullptr);

  int shards() const { return static_cast<int>(shards_.size()); }
  const PackedExperts& shard(int s) const { return *shards_[static_cast<std::size_t>(s)]; }
  std::shared_ptr<const PackedExperts> shard_ptr(int s) const {
    return shards_[static_cast<std::size_t>(s)];
  }
  std::int64_t hidden() const { return hidden_; }
  std::int64_t inter_per_shard() const { return inter_per_shard_; }

 private:
  std::vector<std::shared_ptr<const PackedExperts>> shards_;
  std::int64_t hidden_ = 0;
  std::int64_t inter_per_shard_ = 0;
};

// Functional NUMA-aware MoE executor. All placement modes produce the same
// math (tests verify this); they differ in which weights each node touches,
// which is what the cost model charges for. Tensor parallelism runs every
// shard of a request in one CpuMoe task graph (one pool dispatch, one
// grouping pass); the other modes run one shard over the flat weights.
class NumaMoe {
 public:
  struct Options {
    MoeOptions moe;            // kernel selection / scheduling
    NumaMode mode = NumaMode::kTensorParallel;
  };

  // For kTensorParallel, `tp` must be non-null; other modes use `flat`.
  NumaMoe(std::shared_ptr<const PackedExperts> flat, std::shared_ptr<const TpExperts> tp,
          ThreadPool* pool, Options options);

  // Accumulates routed-expert outputs into y[tokens, hidden].
  void Forward(const float* x, std::int64_t tokens, const MoeRouting& routing, int slot_begin,
               int slot_end, float* y, MoeStats* stats = nullptr) const {
    moe_.Forward(x, tokens, routing, slot_begin, slot_end, y, stats);
  }

  // Pre-sizes the forward workspace (see CpuMoe::Reserve) so the decode loop
  // runs allocation-free from the first token.
  void Reserve(std::int64_t max_tokens, int max_slots) const {
    moe_.Reserve(max_tokens, max_slots);
  }

  const Options& options() const { return options_; }

 private:
  Options options_;
  CpuMoe moe_;
};

}  // namespace ktx

#endif  // KTX_SRC_NUMA_TENSOR_PARALLEL_H_
