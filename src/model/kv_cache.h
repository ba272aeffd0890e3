// Key/value caches for incremental decoding, stored in blocks.
//
// GQA layers cache per-position keys and values ([seq, kv_heads*head_dim]
// each). MLA layers cache the joint latent c_kv ([seq, kv_lora_rank]) and the
// shared decoupled-RoPE key ([seq, rope_dim]) — the compression that makes
// DeepSeek's KV footprint small enough for long local contexts.
//
// Rows live in fixed-size blocks of a KvBlockPool; the cache holds a *block
// table* (block ids, in position order). There is one storage path and two
// ways to get a pool:
//
//   * Private: KvCache(config) owns a pool of ONE block of max_seq rows and
//     reserves it up front — the address space and layout of a contiguous
//     max_seq cache, writable to max_seq without any PrepareAppend. Its
//     memory still commits page by page as rows are written.
//   * Shared: KvCache(config, pool) draws blocks from an engine-wide pool
//     lazily, block by block, as the context grows (PrepareAppend); a block's
//     pages commit when its rows are first written, and stay committed when
//     it returns to the pool. Blocks are ref-counted, so many sessions can
//     map the same physical blocks for a shared prompt prefix (AdoptPrefix /
//     CloneFrom); the first append into a shared partial block triggers a
//     copy-on-write so divergence never corrupts a sibling or the pool's
//     prefix cache.
//
// Attention reads and writes rows through KvLayerView, which performs the
// block-table indirection per row and exposes physically-contiguous runs for
// windowed GEMMs. Views are built at use time — inside captured kernels this
// means at *execution* time, so a growing block table never invalidates a
// captured decode graph.
//
// Capacity is enforced: callers on untrusted paths (engine decode/prefill,
// serving loop) check remaining()/PrepareAppend and turn exhaustion into a
// recoverable Status (the `kv_exhausted` finish reason); Advance itself
// KTX_CHECKs as a last-resort invariant for internal callers.

#ifndef KTX_SRC_MODEL_KV_CACHE_H_
#define KTX_SRC_MODEL_KV_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/model/config.h"
#include "src/model/kv_block_pool.h"
#include "src/tensor/tensor.h"

namespace ktx {

// Row-addressed window into one layer's cache. Cheap to construct (built per
// kernel execution); writable by design — attention appends rows through it.
class KvLayerView {
 public:
  KvLayerView() = default;

  // GQA rows.
  float* k_row(std::int64_t pos) const { return k_ + phys(pos) * kv_dim_; }
  float* v_row(std::int64_t pos) const { return v_ + phys(pos) * kv_dim_; }
  // MLA rows.
  float* ckv_row(std::int64_t pos) const { return ckv_ + phys(pos) * lora_; }
  float* k_rope_row(std::int64_t pos) const { return k_rope_ + phys(pos) * rope_; }

  // Length of the physically-contiguous run starting at pos, capped at
  // `end` and at the end of pos's block (the whole window for a private
  // max_seq block). Lets windowed GEMMs (MLA latent up-projections) run block
  // by block with zero gathers.
  std::int64_t run_length(std::int64_t pos, std::int64_t end) const {
    const std::int64_t left = end - pos;
    const std::int64_t in_block = block_size_ - pos % block_size_;
    return in_block < left ? in_block : left;
  }

  // Calls fn(rows, floats) for every stored plane of each physically-
  // contiguous run of rows [0, end): K and V for GQA, the latent and the RoPE
  // key for MLA. `rows` points at the run's first row of that plane, and
  // `floats` counts the run's values in it.
  template <class Fn>
  void ForEachRowRange(std::int64_t end, Fn fn) const {
    for (std::int64_t pos = 0; pos < end;) {
      const std::int64_t run = run_length(pos, end);
      if (k_ != nullptr) {
        fn(k_row(pos), run * kv_dim_);
        fn(v_row(pos), run * kv_dim_);
      }
      if (ckv_ != nullptr) {
        fn(ckv_row(pos), run * lora_);
        fn(k_rope_row(pos), run * rope_);
      }
      pos += run;
    }
  }

  // Rows covered by the block table. Appends past this are out of bounds.
  std::int64_t capacity_rows() const { return capacity_rows_; }

 private:
  friend class KvCache;

  std::int64_t phys(std::int64_t pos) const {
    return static_cast<std::int64_t>(table_[pos / block_size_]) * block_size_ +
           pos % block_size_;
  }

  float* k_ = nullptr;
  float* v_ = nullptr;
  float* ckv_ = nullptr;
  float* k_rope_ = nullptr;
  std::int64_t kv_dim_ = 0;
  std::int64_t lora_ = 0;
  std::int64_t rope_ = 0;
  const std::int32_t* table_ = nullptr;
  std::int64_t block_size_ = 1;
  std::int64_t capacity_rows_ = 0;
};

class KvCache {
 public:
  // Private storage: an owned one-block pool of max_seq rows, reserved now.
  explicit KvCache(const MoeModelConfig& config);
  // Shared storage: blocks drawn lazily from `pool` (not owned).
  KvCache(const MoeModelConfig& config, KvBlockPool* pool);
  ~KvCache() { ReleaseBlocks(); }

  KvCache(const KvCache&) = delete;
  KvCache& operator=(const KvCache&) = delete;

  // Per-layer row view. Built fresh on every call so views always see the
  // current block table (captured kernels call this at exec time).
  KvLayerView layer(int i) const;

  std::int64_t position() const { return position_; }
  std::int64_t max_seq() const { return max_seq_; }
  // Positions left before this session runs out of room: the max_seq bound,
  // further capped by what the pool can still supply (tail-block slack +
  // free/evictable blocks, minus one block when the next append must
  // copy-on-write a shared tail). With a shared pool this value varies with
  // other sessions' occupancy.
  std::int64_t remaining() const;
  bool CanAdvance(std::int64_t tokens) const { return tokens <= remaining(); }

  // Ensures rows [position, position+tokens) are writable: checks the
  // max_seq bound, copy-on-writes a shared tail block, and allocates any
  // missing blocks from the pool. Recoverable: kResourceExhausted leaves the
  // position untouched (already-allocated blocks stay reserved in the table
  // and are reclaimed on Reset).
  Status PrepareAppend(std::int64_t tokens);
  // Pool blocks PrepareAppend(tokens) would consume right now (new blocks
  // plus a copy-on-write block if the shared tail forces one). Lets callers
  // validate a multi-session step against the shared pool's aggregate before
  // mutating anything.
  std::int64_t BlocksNeededFor(std::int64_t tokens) const;

  // Moves the position past rows written into prepared capacity (KTX_CHECKs
  // that PrepareAppend covered them).
  void Advance(std::int64_t tokens) {
    KTX_CHECK(position_ + tokens <= reserved_rows())
        << "KV cache overrun: position " << position_ << " + " << tokens
        << " exceeds prepared capacity " << reserved_rows() << " (max_seq " << max_seq_
        << ")";
    position_ += tokens;
  }
  // Returns every block to the pool (a private block is re-reserved by the
  // next PrepareAppend).
  void Reset() {
    ReleaseBlocks();
    position_ = 0;
  }

  // --- block sharing --------------------------------------------------------
  // Maps `tokens` positions of shared prefix into this cache, which must hold
  // no blocks: refs each block and sets the position. tokens must equal
  // blocks.size() * block_size (only whole blocks are shareable).
  void AdoptPrefix(const std::vector<std::int32_t>& blocks, std::int64_t tokens);
  // Forks `parent` into this empty (position 0) cache. On the same pool the
  // fork shares blocks (ref bump, O(blocks); the first divergent append
  // copy-on-writes); across pools it copies rows [0, position) through the
  // layer views. Geometry must match.
  Status CloneFrom(const KvCache& parent);
  const std::vector<std::int32_t>& block_table() const { return block_table_; }

  // Rows currently writable without further allocation.
  std::int64_t reserved_rows() const {
    return static_cast<std::int64_t>(block_table_.size()) * pool_->block_size();
  }

  // Bytes of cache state per position (capacity-planning reports).
  std::size_t BytesPerPosition() const { return pool_->bytes_per_position(); }

 private:
  // True when the block holding `position_` is partially filled and shared,
  // so the next append must copy it first.
  bool SharedTail() const;
  void ReleaseBlocks();

  std::unique_ptr<KvBlockPool> owned_pool_;  // private storage only
  KvBlockPool* pool_ = nullptr;              // owned_pool_ or the shared pool
  std::vector<std::int32_t> block_table_;

  int num_layers_ = 0;
  std::int64_t kv_dim_ = 0;
  std::int64_t lora_ = 0;
  std::int64_t rope_ = 0;
  std::int64_t position_ = 0;
  std::int64_t max_seq_ = 0;
};

}  // namespace ktx

#endif  // KTX_SRC_MODEL_KV_CACHE_H_
