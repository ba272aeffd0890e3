#include "src/numa/tensor_parallel.h"

#include <cstring>

#include "src/common/logging.h"
#include "src/cpu/tile.h"

namespace ktx {

namespace {

// Copies columns [c0, c1) of a rank-2 f32 tensor.
Tensor SliceColumns(const Tensor& t, std::int64_t c0, std::int64_t c1) {
  const std::int64_t rows = t.dim(0);
  const std::int64_t cols = t.dim(1);
  KTX_CHECK(c0 >= 0 && c1 <= cols && c0 < c1);
  Tensor out({rows, c1 - c0}, DType::kF32);
  for (std::int64_t r = 0; r < rows; ++r) {
    std::memcpy(out.f32() + r * (c1 - c0), t.f32() + r * cols + c0,
                static_cast<std::size_t>(c1 - c0) * sizeof(float));
  }
  return out;
}

}  // namespace

StatusOr<TpExperts> TpExperts::Build(const std::vector<Tensor>& gate,
                                     const std::vector<Tensor>& up,
                                     const std::vector<Tensor>& down, DType dtype, int shards) {
  if (gate.empty() || shards < 1) {
    return InvalidArgumentError("TpExperts::Build: need experts and shards >= 1");
  }
  const std::int64_t inter = gate[0].dim(0);
  const std::int64_t hidden = gate[0].dim(1);
  if (inter % shards != 0) {
    return InvalidArgumentError("TpExperts::Build: inter must divide evenly across shards");
  }
  const std::int64_t slice = inter / shards;
  if (slice % kNBlock != 0) {
    return InvalidArgumentError("TpExperts::Build: shard slice must be 16-aligned");
  }
  TpExperts tp;
  tp.hidden_ = hidden;
  tp.inter_per_shard_ = slice;
  for (int s = 0; s < shards; ++s) {
    std::vector<Tensor> g_s;
    std::vector<Tensor> u_s;
    std::vector<Tensor> d_s;
    for (std::size_t e = 0; e < gate.size(); ++e) {
      g_s.push_back(gate[e].Slice(s * slice, slice).Clone());
      u_s.push_back(up[e].Slice(s * slice, slice).Clone());
      d_s.push_back(SliceColumns(down[e], s * slice, (s + 1) * slice));
    }
    KTX_ASSIGN_OR_RETURN(PackedExperts packed, PackedExperts::Pack(g_s, u_s, d_s, dtype));
    tp.shards_.push_back(std::make_shared<const PackedExperts>(std::move(packed)));
  }
  return tp;
}

void TpExperts::ChargeArena(NumaArena* arena) const {
  for (int s = 0; s < shards(); ++s) {
    arena->Charge(s, shard(s).total_bytes());
  }
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
