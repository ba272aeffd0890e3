#include "src/model/kv_block_pool.h"

#include <limits>
#include <string>

#include "src/common/logging.h"
#include "src/common/trace.h"

namespace ktx {

std::vector<std::uint64_t> HashTokenBlocks(const std::vector<int>& tokens,
                                           std::int64_t block_size) {
  KTX_CHECK_GE(block_size, 1);
  std::vector<std::uint64_t> hashes;
  const std::int64_t full_blocks =
      static_cast<std::int64_t>(tokens.size()) / block_size;
  hashes.reserve(static_cast<std::size_t>(full_blocks));
  // FNV-1a over the token stream, chained: each block's hash continues from
  // the previous block's, so hash i commits to every token before it.
  std::uint64_t h = 14695981039346656037ULL;
  for (std::int64_t b = 0; b < full_blocks; ++b) {
    for (std::int64_t i = 0; i < block_size; ++i) {
      std::uint64_t tok = static_cast<std::uint64_t>(
          static_cast<std::uint32_t>(tokens[static_cast<std::size_t>(b * block_size + i)]));
      for (int byte = 0; byte < 4; ++byte) {
        h ^= (tok >> (8 * byte)) & 0xffu;
        h *= 1099511628211ULL;
      }
    }
    hashes.push_back(h);
  }
  return hashes;
}

KvBlockPool::KvBlockPool(const MoeModelConfig& config, KvPoolOptions options)
    : config_(config), options_(options) {
  KTX_CHECK_GE(options_.block_size, 1);
  KTX_CHECK_GE(options_.num_blocks, 1);
  KTX_CHECK_LE(options_.num_blocks, std::numeric_limits<std::int32_t>::max());
  const std::int64_t rows = options_.num_blocks * options_.block_size;
  for (int l = 0; l < config_.num_layers; ++l) {
    if (config_.attention == AttentionKind::kMla) {
      mla_ckv_.push_back(Tensor::ZeroPages({rows, config_.kv_lora_rank}));
      mla_krope_.push_back(Tensor::ZeroPages({rows, config_.rope_dim}));
      bytes_per_position_ +=
          static_cast<std::size_t>(config_.kv_lora_rank + config_.rope_dim) * sizeof(float);
    } else {
      const std::int64_t kv_dim = config_.num_kv_heads * config_.head_dim;
      gqa_k_.push_back(Tensor::ZeroPages({rows, kv_dim}));
      gqa_v_.push_back(Tensor::ZeroPages({rows, kv_dim}));
      bytes_per_position_ += 2 * static_cast<std::size_t>(kv_dim) * sizeof(float);
    }
  }
  ref_counts_.assign(static_cast<std::size_t>(options_.num_blocks), 0);
  free_.reserve(static_cast<std::size_t>(options_.num_blocks));
  // LIFO free list: push in reverse so blocks hand out in ascending order,
  // which keeps tests and dumps readable.
  for (std::int64_t b = options_.num_blocks - 1; b >= 0; --b) {
    free_.push_back(static_cast<std::int32_t>(b));
  }
}

std::int64_t KvBlockPool::available_blocks() const {
  std::int64_t evictable = 0;
  for (const auto& [hash, entry] : prefix_cache_) {
    if (ref_counts_[static_cast<std::size_t>(entry.block)] == 1) {
      ++evictable;
    }
  }
  return free_blocks() + evictable;
}

KvBlockPool::Stats KvBlockPool::stats() const {
  Stats s;
  s.total_blocks = num_blocks();
  s.free_blocks = free_blocks();
  s.cached_blocks = static_cast<std::int64_t>(prefix_cache_.size());
  s.evictable_blocks = available_blocks() - free_blocks();
  s.blocks_in_use = blocks_in_use();
  s.evictions = evictions_;
  s.prefix_lookups = prefix_lookups_;
  s.prefix_hits = prefix_hits_;
  return s;
}

bool KvBlockPool::EvictOne() {
  std::uint64_t best_recency = 0;
  std::uint64_t best_hash = 0;
  std::int32_t best_block = -1;
  for (const auto& [hash, entry] : prefix_cache_) {
    if (ref_counts_[static_cast<std::size_t>(entry.block)] != 1) {
      continue;  // a session still reads it; not evictable
    }
    if (best_block < 0 || entry.recency < best_recency) {
      best_recency = entry.recency;
      best_hash = hash;
      best_block = entry.block;
    }
  }
  if (best_block < 0) {
    return false;
  }
  prefix_cache_.erase(best_hash);
  block_hash_.erase(best_block);
  ++evictions_;
  KTX_TRACE_INSTANT_ARG("kv", "evict_block", "block", best_block);
  Unref(best_block);  // the cache's own reference; count hits 0 -> free list
  return true;
}

StatusOr<std::int32_t> KvBlockPool::AllocBlock() {
  if (free_.empty() && !EvictOne()) {
    return ResourceExhaustedError(
        "kv block pool exhausted: all " + std::to_string(num_blocks()) +
        " blocks pinned by live sessions");
  }
  KTX_CHECK(!free_.empty());
  const std::int32_t block = free_.back();
  free_.pop_back();
  KTX_CHECK_EQ(ref_counts_[static_cast<std::size_t>(block)], 0);
  ref_counts_[static_cast<std::size_t>(block)] = 1;
  return block;
}

void KvBlockPool::Ref(std::int32_t block) {
  KTX_CHECK(block >= 0 && block < num_blocks());
  KTX_CHECK_GE(ref_counts_[static_cast<std::size_t>(block)], 1)
      << "Ref on a free block";
  ++ref_counts_[static_cast<std::size_t>(block)];
}

void KvBlockPool::Unref(std::int32_t block) {
  KTX_CHECK(block >= 0 && block < num_blocks());
  int& count = ref_counts_[static_cast<std::size_t>(block)];
  KTX_CHECK_GE(count, 1) << "Unref on a free block";
  if (--count == 0) {
    KTX_CHECK(block_hash_.find(block) == block_hash_.end())
        << "registered prefix block dropped to ref count 0 without eviction";
    free_.push_back(block);
  }
}

std::vector<const Tensor*> KvBlockPool::storage() const {
  std::vector<const Tensor*> tensors;
  for (const auto* stream : {&gqa_k_, &gqa_v_, &mla_ckv_, &mla_krope_}) {
    for (const Tensor& t : *stream) {
      tensors.push_back(&t);
    }
  }
  return tensors;
}

void KvBlockPool::RegisterPrefix(std::uint64_t hash, std::int32_t block) {
  if (prefix_cache_.find(hash) != prefix_cache_.end()) {
    return;  // first writer wins; the caller keeps its private copy
  }
  prefix_cache_[hash] = CacheEntry{block, ++lru_clock_};
  block_hash_[block] = hash;
  Ref(block);  // the cache's own reference
}

std::vector<std::int32_t> KvBlockPool::MatchPrefix(
    const std::vector<std::uint64_t>& hashes) {
  if (!hashes.empty()) {
    ++prefix_lookups_;
  }
  std::vector<std::int32_t> blocks;
  for (std::uint64_t hash : hashes) {
    auto it = prefix_cache_.find(hash);
    if (it == prefix_cache_.end()) {
      break;
    }
    it->second.recency = ++lru_clock_;
    blocks.push_back(it->second.block);
  }
  if (!blocks.empty()) {
    ++prefix_hits_;
    KTX_TRACE_INSTANT_ARG("kv", "prefix_hit", "blocks", blocks.size());
  }
  return blocks;
}

}  // namespace ktx
