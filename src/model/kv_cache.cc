#include "src/model/kv_cache.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace ktx {

KvCache::KvCache(const MoeModelConfig& config)
    : owned_pool_(std::make_unique<KvBlockPool>(
          config, KvPoolOptions{/*block_size=*/config.max_seq, /*num_blocks=*/1})),
      pool_(owned_pool_.get()),
      num_layers_(config.num_layers),
      kv_dim_(config.num_kv_heads * config.head_dim),
      lora_(config.kv_lora_rank),
      rope_(config.rope_dim),
      max_seq_(config.max_seq) {
  const Status reserved = PrepareAppend(max_seq_);
  KTX_CHECK(reserved.ok()) << reserved.ToString();
}

KvCache::KvCache(const MoeModelConfig& config, KvBlockPool* pool)
    : pool_(pool),
      num_layers_(config.num_layers),
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

bool KvCache::SharedTail() const {
  const std::int64_t bs = pool_->block_size();
  return position_ % bs != 0 &&
         pool_->ref_count(block_table_[static_cast<std::size_t>(position_ / bs)]) > 1;
}

std::int64_t KvCache::remaining() const {
  const std::int64_t seq_left = max_seq_ - position_;
  // Rows already reserved in the table are free to use; beyond that, every
  // available pool block adds block_size rows — minus one whole block when the
  // next append must first copy-on-write a shared tail.
  const std::int64_t bs = pool_->block_size();
  const std::int64_t slack = reserved_rows() - position_;
  const std::int64_t avail = pool_->available_blocks();
  std::int64_t pool_left;
  if (SharedTail()) {
    pool_left = avail >= 1 ? slack + (avail - 1) * bs : 0;
  } else {
    pool_left = slack + avail * bs;
  }
  return std::min(seq_left, pool_left);
}

std::int64_t KvCache::BlocksNeededFor(std::int64_t tokens) const {
  if (tokens <= 0) {
    return 0;
  }
  const std::int64_t bs = pool_->block_size();
  const std::int64_t needed_entries = (position_ + tokens + bs - 1) / bs;
  std::int64_t need =
      std::max<std::int64_t>(0, needed_entries - static_cast<std::int64_t>(block_table_.size()));
  if (SharedTail()) {
    ++need;  // copy-on-write of the tail block comes first
  }
  return need;
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
  // Copy-on-write: the tail block is partially ours but shared with another
  // session (or the prefix cache); appending in place would corrupt them.
  if (SharedTail()) {
    const std::size_t tb = static_cast<std::size_t>(position_ / bs);
    auto fresh = pool_->AllocBlock();
    if (!fresh.ok()) {
      return fresh.status().WithContext("copy-on-write of shared kv tail block");
    }
    pool_->CopyBlockRows(block_table_[tb], *fresh, position_ % bs);
    pool_->Unref(block_table_[tb]);
    block_table_[tb] = *fresh;
    ++pool_->cow_copies_;
  }
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

Status KvCache::CloneFrom(const KvCache& parent) {
  if (position_ != 0) {
    return FailedPreconditionError("CloneFrom requires an empty cache");
  }
  if (num_layers_ != parent.num_layers_ || kv_dim_ != parent.kv_dim_ ||
      lora_ != parent.lora_ || rope_ != parent.rope_ || max_seq_ != parent.max_seq_) {
    return FailedPreconditionError("CloneFrom requires matching cache geometry");
  }
  if (pool_ == parent.pool_) {
    // Share every block covering [0, position): ref bumps only. The partial
    // tail (if any) is now shared; the first divergent append copy-on-writes.
    ReleaseBlocks();
    const std::int64_t bs = pool_->block_size();
    const std::int64_t used = (parent.position_ + bs - 1) / bs;
    for (std::int64_t b = 0; b < used; ++b) {
      const std::int32_t block = parent.block_table_[static_cast<std::size_t>(b)];
      pool_->Ref(block);
      block_table_.push_back(block);
    }
  } else {
    KTX_RETURN_IF_ERROR(PrepareAppend(parent.position_).WithContext("CloneFrom"));
    // Each stream is copied run by run: a run is contiguous in both caches.
    using RowFn = float* (KvLayerView::*)(std::int64_t) const;
    const auto copy_rows = [&](const KvLayerView& src, const KvLayerView& dst, RowFn row,
                               std::int64_t dim) {
      const std::int64_t end = parent.position_;
      for (std::int64_t pos = 0; pos < end;) {
        const std::int64_t n = std::min(src.run_length(pos, end), dst.run_length(pos, end));
        std::memcpy((dst.*row)(pos), (src.*row)(pos),
                    static_cast<std::size_t>(n * dim) * sizeof(float));
        pos += n;
      }
    };
    for (int l = 0; l < num_layers_; ++l) {
      const KvLayerView src = parent.layer(l);
      const KvLayerView dst = layer(l);
      if (src.ckv_ != nullptr) {  // MLA
        copy_rows(src, dst, &KvLayerView::ckv_row, lora_);
        copy_rows(src, dst, &KvLayerView::k_rope_row, rope_);
      } else {
        copy_rows(src, dst, &KvLayerView::k_row, kv_dim_);
        copy_rows(src, dst, &KvLayerView::v_row, kv_dim_);
      }
    }
  }
  position_ = parent.position_;
  return OkStatus();
}

void KvCache::ReleaseBlocks() {
  for (std::int32_t block : block_table_) {
    pool_->Unref(block);
  }
  block_table_.clear();
}

}  // namespace ktx
