#include "src/numa/tensor_parallel.h"

#include "src/common/logging.h"
#include "src/cpu/tile.h"

namespace ktx {

StatusOr<TpExperts> TpExperts::Build(const std::vector<Tensor>& gate,
                                     const std::vector<Tensor>& up,
                                     const std::vector<Tensor>& down, DType dtype, int shards,
                                     ThreadPool* pool) {
  if (gate.empty() || shards < 1 || gate[0].rank() != 2) {
    return InvalidArgumentError("TpExperts::Build: need rank-2 experts and shards >= 1");
  }
  // PackShards rejects an `inter` that does not divide evenly.
  const std::int64_t slice = gate[0].dim(0) / shards;
  if (slice % kNBlock != 0) {
    return InvalidArgumentError("TpExperts::Build: shard slice must be 16-aligned");
  }
  KTX_ASSIGN_OR_RETURN(std::vector<PackedExperts> packed,
                       PackedExperts::PackShards(gate, up, down, dtype, shards, pool));
  TpExperts tp;
  tp.hidden_ = gate[0].dim(1);
  tp.inter_per_shard_ = slice;
  for (PackedExperts& shard : packed) {
    tp.shards_.push_back(std::make_shared<const PackedExperts>(std::move(shard)));
  }
  return tp;
}

namespace {

// The expert shards CpuMoe runs for a placement mode. Single-socket,
// naive-interleaved and expert-parallel placements execute the same math over
// the flat weights; they differ only in where the pages live, which the cost
// model (not the functional path) charges for.
std::vector<std::shared_ptr<const PackedExperts>> ModeShards(
    const std::shared_ptr<const PackedExperts>& flat, const std::shared_ptr<const TpExperts>& tp,
    NumaMode mode) {
  std::vector<std::shared_ptr<const PackedExperts>> shards;
  if (mode == NumaMode::kTensorParallel) {
    KTX_CHECK(tp != nullptr) << "tensor-parallel mode needs sharded experts";
    for (int s = 0; s < tp->shards(); ++s) {
      shards.push_back(tp->shard_ptr(s));
    }
  } else {
    KTX_CHECK(flat != nullptr) << "non-TP modes need flat experts";
    shards.push_back(flat);
  }
  return shards;
}

}  // namespace

NumaMoe::NumaMoe(std::shared_ptr<const PackedExperts> flat, std::shared_ptr<const TpExperts> tp,
                 ThreadPool* pool, Options options)
    : options_(options), moe_(ModeShards(flat, tp, options.mode), pool, options.moe) {}

}  // namespace ktx
