#include "src/model/kv_cache.h"

#include <algorithm>
#include <string>

namespace ktx {

KvCache::KvCache(const MoeModelConfig& config)
    : owned_pool_(std::make_unique<KvBlockPool>(
          config, KvPoolOptions{/*block_size=*/config.max_seq, /*num_blocks=*/1})),
      pool_(owned_pool_.get()),
      kv_dim_(config.num_kv_heads * config.head_dim),
      lora_(config.kv_lora_rank),
      rope_(config.rope_dim),
      max_seq_(config.max_seq) {
  const Status reserved = PrepareAppend(max_seq_);
  KTX_CHECK(reserved.ok()) << reserved.ToString();
}

KvCache::KvCache(const MoeModelConfig& config, KvBlockPool* pool)
    : pool_(pool),
      kv_dim_(config.num_kv_heads * config.head_dim),
      lora_(config.kv_lora_rank),
      rope_(config.rope_dim),
      max_seq_(config.max_seq) {
  KTX_CHECK(pool_ != nullptr);
  KTX_CHECK_GE(max_seq_, 1) << "kv caches need a max_seq bound";
}

KvLayerView KvCache::layer(int i) const {
  KvLayerView view;
  view.kv_dim_ = kv_dim_;
  view.lora_ = lora_;
  view.rope_ = rope_;
  view.k_ = pool_->k_base(i);
  view.v_ = pool_->v_base(i);
  view.ckv_ = pool_->ckv_base(i);
  view.k_rope_ = pool_->k_rope_base(i);
  view.table_ = block_table_.data();
  view.block_size_ = pool_->block_size();
  view.capacity_rows_ = reserved_rows();
  return view;
}

std::int64_t KvCache::remaining() const {
  // Rows already reserved in the table are free to use; beyond that, every
  // available pool block adds block_size rows.
  const std::int64_t pool_left =
      reserved_rows() - position_ + pool_->available_blocks() * pool_->block_size();
  return std::min(max_seq_ - position_, pool_left);
}

std::int64_t KvCache::BlocksNeededFor(std::int64_t tokens) const {
  if (tokens <= 0) {
    return 0;
  }
  const std::int64_t bs = pool_->block_size();
  const std::int64_t needed_entries = (position_ + tokens + bs - 1) / bs;
  return std::max<std::int64_t>(0,
                                needed_entries - static_cast<std::int64_t>(block_table_.size()));
}

Status KvCache::PrepareAppend(std::int64_t tokens) {
  KTX_CHECK_GE(tokens, 0);
  if (tokens == 0) {
    return OkStatus();
  }
  if (position_ + tokens > max_seq_) {
    return ResourceExhaustedError("kv cache exhausted: position " + std::to_string(position_) +
                                  " + " + std::to_string(tokens) + " exceeds max_seq " +
                                  std::to_string(max_seq_));
  }
  const std::int64_t bs = pool_->block_size();
  // Only full blocks are ever shared, so the tail block is this cache's alone.
  KTX_CHECK(position_ % bs == 0 ||
            pool_->ref_count(block_table_[static_cast<std::size_t>(position_ / bs)]) == 1)
      << "append into a shared kv block at position " << position_;
  const std::int64_t needed_entries = (position_ + tokens + bs - 1) / bs;
  while (static_cast<std::int64_t>(block_table_.size()) < needed_entries) {
    auto block = pool_->AllocBlock();
    if (!block.ok()) {
      // Blocks already allocated this call stay reserved in the table; they
      // are reclaimed on Reset, and the position is untouched.
      return block.status().WithContext("kv append of " + std::to_string(tokens) +
                                        " tokens at position " + std::to_string(position_));
    }
    block_table_.push_back(*block);
  }
  return OkStatus();
}

void KvCache::AdoptPrefix(const std::vector<std::int32_t>& blocks, std::int64_t tokens) {
  KTX_CHECK(position_ == 0 && block_table_.empty())
      << "AdoptPrefix requires a cache holding no blocks";
  KTX_CHECK_EQ(tokens, static_cast<std::int64_t>(blocks.size()) * pool_->block_size())
      << "only whole blocks are shareable";
  KTX_CHECK_LE(tokens, max_seq_);
  for (std::int32_t block : blocks) {
    pool_->Ref(block);
    block_table_.push_back(block);
  }
  position_ = tokens;
}

void KvCache::ReleaseBlocks() {
  for (std::int32_t block : block_table_) {
    pool_->Unref(block);
  }
  block_table_.clear();
}

}  // namespace ktx
