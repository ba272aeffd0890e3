// Fixed-size KV block pool with ref counting and a shared-prefix cache.
//
// A pool owns KV storage: per layer, one tensor of
// [num_blocks * block_size, row_dim] rows for each cached stream (K and V for
// GQA; the joint latent c_kv and the decoupled-RoPE key for MLA). Sessions
// hold *block tables* — lists of block ids. A pool shared by an engine's
// sessions hands out blocks as contexts actually grow, and the same physical
// block can back the shared prefix of many sessions at once; a private cache
// owns a pool of one max_seq-row block (kv_cache.h).
//
// Memory commit: the row tensors sit on Tensor::ZeroPages storage, so the
// pool reserves address space up front and the OS commits a page (zero-
// filled) only when a row in it is first written. A pool's resident size is
// the pages its sessions have written, not num_blocks * block bytes, and the
// same holds for a private max_seq block, which commits only up to its
// position. The commit is one-way: a block returned to the free list keeps
// its pages (the LIFO free list hands the warm ones out first). The unit is
// a page, not a block: a block smaller than a page shares pages with its
// neighbours, and COW copies and KTXV restores commit what they write like
// any append. Every other allocation in the engine keeps heap storage
// (align.h says why).
//
// Ref counting: a block's count is the number of block-table references
// (sessions) plus one if the prefix cache holds it. Unref to zero returns the
// block to the free list. Copy-on-write is the caller's (KvCache's) job: it
// copies a block before writing into one with ref_count > 1; the pool only
// provides CopyBlockRows.
//
// Prefix cache: full blocks of *prompt* tokens are registered under a chained
// token hash (hash of block i commits to every token in blocks [0, i]), so a
// lookup for a new prompt walks its hash chain and reuses the longest run of
// cached full blocks — turning that much prefill into a ref-count bump. The
// cache holds its own reference; blocks whose only reference is the cache are
// *evictable* and are reclaimed LRU when AllocBlock finds the free list
// empty. Matching is by 64-bit chained hash alone (no token re-verification);
// a collision would silently share a wrong prefix, which at these hash widths
// is vanishingly unlikely and an accepted trade (vLLM makes the same one with
// its block hashes).
//
// Thread-compatibility: like KvCache, the pool is mutated only between engine
// steps (single-threaded control plane); captured kernels only read row
// storage through views during a step. No internal locking.

#ifndef KTX_SRC_MODEL_KV_BLOCK_POOL_H_
#define KTX_SRC_MODEL_KV_BLOCK_POOL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/model/config.h"
#include "src/tensor/tensor.h"

namespace ktx {

struct KvPoolOptions {
  std::int64_t block_size = 16;  // tokens (rows) per block
  std::int64_t num_blocks = 0;   // pool capacity; must be >= 1
};

// Chained per-block hashes for the FULL blocks of a token sequence: entry i
// commits to tokens [0, (i+1)*block_size). Trailing partial blocks get no
// hash — only full blocks are shareable.
std::vector<std::uint64_t> HashTokenBlocks(const std::vector<int>& tokens,
                                           std::int64_t block_size);

class KvBlockPool {
 public:
  struct Stats {
    std::int64_t total_blocks = 0;
    std::int64_t free_blocks = 0;       // on the free list
    std::int64_t cached_blocks = 0;     // registered in the prefix cache
    std::int64_t evictable_blocks = 0;  // cached AND referenced only by the cache
    std::int64_t blocks_in_use = 0;     // total - free
    std::int64_t cow_copies = 0;        // lifetime copy-on-write block copies
    std::int64_t evictions = 0;         // lifetime prefix-cache evictions
    std::int64_t prefix_lookups = 0;    // MatchPrefix calls with >= 1 full block
    std::int64_t prefix_hits = 0;       // lookups that matched >= 1 block
  };

  KvBlockPool(const MoeModelConfig& config, KvPoolOptions options);

  std::int64_t block_size() const { return options_.block_size; }
  std::int64_t num_blocks() const { return options_.num_blocks; }
  std::int64_t free_blocks() const { return static_cast<std::int64_t>(free_.size()); }
  // Blocks an allocation could obtain right now: free + evictable.
  std::int64_t available_blocks() const;
  std::int64_t blocks_in_use() const { return num_blocks() - free_blocks(); }
  std::size_t bytes_per_position() const { return bytes_per_position_; }
  int ref_count(std::int32_t block) const {
    return ref_counts_[static_cast<std::size_t>(block)];
  }
  Stats stats() const;

  // Allocates one block (free list first, then LRU eviction of a
  // cache-only block), with ref count 1. kResourceExhausted when every block
  // is pinned by a live reference.
  StatusOr<std::int32_t> AllocBlock();
  void Ref(std::int32_t block);
  void Unref(std::int32_t block);

  // Copies the first `rows` rows of src into dst across every layer and
  // stream (the COW primitive).
  void CopyBlockRows(std::int32_t src, std::int32_t dst, std::int64_t rows);

  // --- prefix cache ---------------------------------------------------------
  // Registers `block` under the chained hash. The cache takes its own
  // reference. A hash that is already registered is left untouched (first
  // writer wins; the caller keeps using its private copy).
  void RegisterPrefix(std::uint64_t hash, std::int32_t block);
  // Longest cached run: walks hashes[0..] while each is registered and
  // returns the matching block ids (refs are NOT bumped — callers adopt via
  // KvCache::AdoptPrefix, which refs). Touches LRU recency on hits.
  std::vector<std::int32_t> MatchPrefix(const std::vector<std::uint64_t>& hashes);

  // --- raw storage (for KvLayerView) ----------------------------------------
  // GQA streams; null tensors under MLA (and vice versa).
  float* k_base(int layer) { return BaseOrNull(gqa_k_, layer); }
  float* v_base(int layer) { return BaseOrNull(gqa_v_, layer); }
  float* ckv_base(int layer) { return BaseOrNull(mla_ckv_, layer); }
  float* k_rope_base(int layer) { return BaseOrNull(mla_krope_, layer); }
  // Every row-storage tensor (K, V per layer; latent, RoPE key under MLA),
  // e.g. to count the pages the pool has committed (ResidentPages).
  std::vector<const Tensor*> storage() const;

 private:
  struct CacheEntry {
    std::int32_t block = -1;
    std::uint64_t recency = 0;  // LRU clock reading at last touch
  };

  static float* BaseOrNull(std::vector<Tensor>& t, int layer) {
    return t.empty() ? nullptr : t[static_cast<std::size_t>(layer)].f32();
  }
  // Drops the LRU evictable entry from the prefix cache; false if none.
  bool EvictOne();

  MoeModelConfig config_;
  KvPoolOptions options_;
  std::size_t bytes_per_position_ = 0;

  std::vector<Tensor> gqa_k_, gqa_v_;        // per layer [num_blocks*bs, kv_dim]
  std::vector<Tensor> mla_ckv_, mla_krope_;  // per layer [num_blocks*bs, lora/rope]

  std::vector<int> ref_counts_;       // per block
  std::vector<std::int32_t> free_;    // free list (LIFO)
  std::unordered_map<std::uint64_t, CacheEntry> prefix_cache_;   // hash -> block
  std::unordered_map<std::int32_t, std::uint64_t> block_hash_;   // reverse map
  std::uint64_t lru_clock_ = 0;
  std::int64_t cow_copies_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t prefix_lookups_ = 0;
  std::int64_t prefix_hits_ = 0;

  friend class KvCache;  // bumps cow_copies_ from PrepareAppend
};

}  // namespace ktx

#endif  // KTX_SRC_MODEL_KV_BLOCK_POOL_H_
