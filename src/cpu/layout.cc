#include "src/cpu/layout.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/logging.h"

namespace ktx {

namespace {

int KBlockFor(DType dtype) {
  switch (dtype) {
    case DType::kF32:
      return kKBlockF32;
    case DType::kBF16:
      return kKBlockBf16;
    default:
      return kKBlockInt8;
  }
}

std::size_t TileBytesFor(DType dtype) {
  return dtype == DType::kI4 ? kTileBytes / 2 : kTileBytes;
}

}  // namespace

StatusOr<PackedMatrix> PackedMatrix::Pack(const Tensor& w, DType dtype) {
  return PackColumns(w, 0, w.rank() == 2 ? w.dim(1) : 0, dtype);
}

StatusOr<PackedMatrix> PackedMatrix::PackColumns(const Tensor& w, std::int64_t col_begin,
                                                 std::int64_t col_end, DType dtype) {
  if (w.rank() != 2 || w.dtype() != DType::kF32) {
    return InvalidArgumentError("PackedMatrix::Pack expects a rank-2 f32 tensor");
  }
  if (col_begin < 0 || col_end > w.dim(1) || col_begin >= col_end) {
    return InvalidArgumentError("PackedMatrix::PackColumns: column range out of bounds");
  }
  if (dtype != DType::kF32 && dtype != DType::kBF16 && dtype != DType::kI8 &&
      dtype != DType::kI4) {
    return InvalidArgumentError("PackedMatrix supports f32/bf16/i8/i4");
  }
  PackedMatrix pm;
  pm.n_ = w.dim(0);
  pm.k_ = col_end - col_begin;
  pm.dtype_ = dtype;
  pm.k_block_ = KBlockFor(dtype);
  pm.n_blocks_ = (pm.n_ + kNBlock - 1) / kNBlock;
  pm.k_blocks_ = (pm.k_ + pm.k_block_ - 1) / pm.k_block_;
  pm.tile_bytes_ = TileBytesFor(dtype);
  pm.tiles_ = AlignedBuffer(
      static_cast<std::size_t>(pm.n_blocks_ * pm.k_blocks_) * pm.tile_bytes_, kCacheLineBytes);

  const float* src = w.f32() + col_begin;
  const std::int64_t ld = w.dim(1);
  auto w_at = [&](std::int64_t nrow, std::int64_t kcol) -> float {
    if (nrow >= pm.n_ || kcol >= pm.k_) {
      return 0.0f;
    }
    return src[nrow * ld + kcol];
  };

  if (dtype == DType::kF32) {
    for (std::int64_t nb = 0; nb < pm.n_blocks_; ++nb) {
      for (std::int64_t kb = 0; kb < pm.k_blocks_; ++kb) {
        auto* tile =
            reinterpret_cast<float*>(const_cast<std::uint8_t*>(pm.tile_ptr(nb, kb)));
        // tile[p*16 + j] = W[nb*16 + j][kb*16 + p]: one 64-byte row of 16
        // outputs per k step.
        for (int p = 0; p < kKBlockF32; ++p) {
          for (int j = 0; j < kNBlock; ++j) {
            tile[p * kNBlock + j] = w_at(nb * kNBlock + j, kb * kKBlockF32 + p);
          }
        }
      }
    }
    return pm;
  }

  if (dtype == DType::kBF16) {
    for (std::int64_t nb = 0; nb < pm.n_blocks_; ++nb) {
      for (std::int64_t kb = 0; kb < pm.k_blocks_; ++kb) {
        auto* tile = reinterpret_cast<std::uint16_t*>(
            const_cast<std::uint8_t*>(pm.tile_ptr(nb, kb)));
        // B.row(p)[2j + r] = W[nb*16 + j][kb*32 + 2p + r]
        for (int p = 0; p < kTileRows; ++p) {
          for (int j = 0; j < kNBlock; ++j) {
            for (int r = 0; r < 2; ++r) {
              tile[p * 32 + 2 * j + r] =
                  FloatToBF16(w_at(nb * kNBlock + j, kb * kKBlockBf16 + 2 * p + r)).bits;
            }
          }
        }
      }
    }
    return pm;
  }

  // Quantized paths: per-(row, k-block) symmetric scales.
  pm.scales_ = Tensor({pm.n_, pm.k_blocks_}, DType::kF32);
  pm.col_sums_ = Tensor({pm.n_, pm.k_blocks_}, DType::kI32);
  float* scales = pm.scales_.f32();
  std::int32_t* col_sums = pm.col_sums_.i32();
  const int qmax = dtype == DType::kI8 ? 127 : 7;
  // Quantize row-major first, then scatter into tile layout.
  const std::int64_t k_padded = pm.k_blocks_ * pm.k_block_;
  std::vector<std::int8_t> qvals(static_cast<std::size_t>(pm.n_ * k_padded), 0);
  for (std::int64_t nrow = 0; nrow < pm.n_; ++nrow) {
    for (std::int64_t kb = 0; kb < pm.k_blocks_; ++kb) {
      float max_abs = 0.0f;
      for (int i = 0; i < pm.k_block_; ++i) {
        max_abs = std::max(max_abs, std::fabs(w_at(nrow, kb * pm.k_block_ + i)));
      }
      const float scale = max_abs > 0.0f ? max_abs / static_cast<float>(qmax) : 1.0f;
      scales[nrow * pm.k_blocks_ + kb] = scale;
      std::int32_t sum = 0;
      for (int i = 0; i < pm.k_block_; ++i) {
        const int v =
            static_cast<int>(std::lrintf(w_at(nrow, kb * pm.k_block_ + i) / scale));
        const std::int8_t q = static_cast<std::int8_t>(std::clamp(v, -qmax, qmax));
        qvals[static_cast<std::size_t>(nrow * k_padded + kb * pm.k_block_ + i)] = q;
        sum += q;
      }
      col_sums[nrow * pm.k_blocks_ + kb] = sum;
    }
  }
  auto q_at = [&](std::int64_t nrow, std::int64_t kcol) -> std::int8_t {
    if (nrow >= pm.n_) {
      return 0;
    }
    return qvals[static_cast<std::size_t>(nrow * k_padded + kcol)];
  };

  for (std::int64_t nb = 0; nb < pm.n_blocks_; ++nb) {
    for (std::int64_t kb = 0; kb < pm.k_blocks_; ++kb) {
      auto* tile = const_cast<std::uint8_t*>(pm.tile_ptr(nb, kb));
      // Int8 tile byte layout: row p, byte 4j + r = Q[nb*16 + j][kb*64 + 4p + r].
      std::uint8_t full[kTileRows][kTileBytesPerRow];
      for (int p = 0; p < kTileRows; ++p) {
        for (int j = 0; j < kNBlock; ++j) {
          for (int r = 0; r < 4; ++r) {
            full[p][4 * j + r] = static_cast<std::uint8_t>(
                q_at(nb * kNBlock + j, kb * kKBlockInt8 + 4 * p + r));
          }
        }
      }
      if (dtype == DType::kI8) {
        std::memcpy(tile, full, sizeof(full));
      } else {
        // Int4: two consecutive bytes of the int8 tile share one byte
        // (low nibble = even offset).
        const auto* flat = &full[0][0];
        for (int i = 0; i < kTileBytes / 2; ++i) {
          const std::uint8_t lo = flat[2 * i] & 0x0f;
          const std::uint8_t hi = flat[2 * i + 1] & 0x0f;
          tile[i] = static_cast<std::uint8_t>(lo | (hi << 4));
        }
      }
    }
  }
  return pm;
}

Tensor PackedMatrix::Unpack() const {
  Tensor out({n_, k_}, DType::kF32);
  float* dst = out.f32();
  for (std::int64_t nb = 0; nb < n_blocks_; ++nb) {
    for (std::int64_t kb = 0; kb < k_blocks_; ++kb) {
      if (dtype_ == DType::kF32) {
        const auto* tile = reinterpret_cast<const float*>(tile_ptr(nb, kb));
        for (int p = 0; p < kKBlockF32; ++p) {
          for (int j = 0; j < kNBlock; ++j) {
            const std::int64_t nrow = nb * kNBlock + j;
            const std::int64_t kcol = kb * kKBlockF32 + p;
            if (nrow < n_ && kcol < k_) {
              dst[nrow * k_ + kcol] = tile[p * kNBlock + j];
            }
          }
        }
      } else if (dtype_ == DType::kBF16) {
        const auto* tile = reinterpret_cast<const std::uint16_t*>(tile_ptr(nb, kb));
        for (int p = 0; p < kTileRows; ++p) {
          for (int j = 0; j < kNBlock; ++j) {
            for (int r = 0; r < 2; ++r) {
              const std::int64_t nrow = nb * kNBlock + j;
              const std::int64_t kcol = kb * kKBlockBf16 + 2 * p + r;
              if (nrow < n_ && kcol < k_) {
                dst[nrow * k_ + kcol] = BF16ToFloat(BF16{tile[p * 32 + 2 * j + r]});
              }
            }
          }
        }
      } else {
        TileReg tile;
        if (dtype_ == DType::kI8) {
          tile.Load(tile_ptr(nb, kb), kTileBytesPerRow);
        } else {
          UnpackInt4Tile(tile_ptr(nb, kb), &tile);
        }
        const auto* ti8 = reinterpret_cast<const std::int8_t*>(tile.data);
        for (int p = 0; p < kTileRows; ++p) {
          for (int j = 0; j < kNBlock; ++j) {
            for (int r = 0; r < 4; ++r) {
              const std::int64_t nrow = nb * kNBlock + j;
              const std::int64_t kcol = kb * kKBlockInt8 + 4 * p + r;
              if (nrow < n_ && kcol < k_) {
                dst[nrow * k_ + kcol] =
                    static_cast<float>(ti8[p * 64 + 4 * j + r]) * scale(nrow, kb);
              }
            }
          }
        }
      }
    }
  }
  return out;
}

void BuildActivationTileBf16(const float* x, std::int64_t ldx, int rows, std::int64_t k0,
                             std::int64_t k_valid, TileReg* tile) {
  auto* dst = reinterpret_cast<std::uint16_t*>(tile->data);
  std::memset(tile->data, 0, sizeof(tile->data));
  for (int i = 0; i < rows; ++i) {
    const float* row = x + static_cast<std::ptrdiff_t>(i) * ldx;
    const std::int64_t limit = std::min<std::int64_t>(kKBlockBf16, k_valid - k0);
    for (std::int64_t c = 0; c < limit; ++c) {
      dst[i * 32 + c] = FloatToBF16(row[k0 + c]).bits;
    }
  }
}

void BuildActivationTileInt8(const float* x, std::int64_t ldx, int rows, std::int64_t k0,
                             std::int64_t k_valid, const float* scales, TileReg* tile) {
  auto* dst = reinterpret_cast<std::int8_t*>(tile->data);
  std::memset(tile->data, 0, sizeof(tile->data));
  for (int i = 0; i < rows; ++i) {
    const float* row = x + static_cast<std::ptrdiff_t>(i) * ldx;
    const float inv_scale = scales[i] > 0.0f ? 1.0f / scales[i] : 0.0f;
    const std::int64_t limit = std::min<std::int64_t>(kKBlockInt8, k_valid - k0);
    for (std::int64_t c = 0; c < limit; ++c) {
      const int v = static_cast<int>(std::lrintf(row[k0 + c] * inv_scale));
      dst[i * 64 + c] = static_cast<std::int8_t>(std::clamp(v, -127, 127));
    }
  }
}

void ComputeActivationScalesInt8(const float* x, std::int64_t m, std::int64_t ldx,
                                 std::int64_t k, int k_block, float* scales) {
  const std::int64_t k_blocks = (k + k_block - 1) / k_block;
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = x + i * ldx;
    for (std::int64_t kb = 0; kb < k_blocks; ++kb) {
      float max_abs = 0.0f;
      const std::int64_t hi = std::min<std::int64_t>(k, (kb + 1) * k_block);
      for (std::int64_t c = kb * k_block; c < hi; ++c) {
        max_abs = std::max(max_abs, std::fabs(row[c]));
      }
      scales[i * k_blocks + kb] = max_abs > 0.0f ? max_abs / 127.0f : 0.0f;
    }
  }
}

void UnpackInt4Tile(const std::uint8_t* packed, TileReg* tile) {
  auto* dst = reinterpret_cast<std::int8_t*>(tile->data);
  for (int i = 0; i < kTileBytes / 2; ++i) {
    const std::uint8_t byte = packed[i];
    dst[2 * i] = static_cast<std::int8_t>(((byte & 0x0f) ^ 8) - 8);
    dst[2 * i + 1] = static_cast<std::int8_t>((((byte >> 4) & 0x0f) ^ 8) - 8);
  }
}

float QuantGemvErrorBound(const PackedMatrix& w, const float* x, std::int64_t nrow) {
  KTX_CHECK(w.quantized()) << "QuantGemvErrorBound needs a kI8/kI4 matrix";
  KTX_CHECK(nrow >= 0 && nrow < w.n());
  // The kernels compute y = sum_blocks scale_x * scale_w * <q_x, q_w>, i.e.
  // sum(x_hat * w_hat) over the rounded values. Splitting the error,
  //   |x_hat*w_hat - x*w| <= |x_hat - x| * |w_hat| + |x| * |w_hat - w|,
  // each rounding is at most half its scale (scales cover the block amax, so
  // the clamps never truncate).
  const std::int64_t nb = nrow / kNBlock;
  const int j = static_cast<int>(nrow % kNBlock);
  double bound = 0.0;
  for (std::int64_t kb = 0; kb < w.k_blocks(); ++kb) {
    TileReg tile;
    if (w.dtype() == DType::kI8) {
      tile.Load(w.tile_ptr(nb, kb), kTileBytesPerRow);
    } else {
      UnpackInt4Tile(w.tile_ptr(nb, kb), &tile);
    }
    const auto* ti8 = reinterpret_cast<const std::int8_t*>(tile.data);
    const double scale_w = w.scale(nrow, kb);
    const std::int64_t k0 = kb * kKBlockInt8;
    const std::int64_t hi = std::min<std::int64_t>(w.k(), k0 + kKBlockInt8);
    double sum_abs_x = 0.0;
    double amax_x = 0.0;
    double sum_abs_w_hat = 0.0;
    for (std::int64_t c = k0; c < hi; ++c) {
      const double xv = std::fabs(static_cast<double>(x[c]));
      sum_abs_x += xv;
      amax_x = std::max(amax_x, xv);
      const int p = static_cast<int>((c - k0) / 4);
      const int r = static_cast<int>((c - k0) % 4);
      sum_abs_w_hat += std::fabs(static_cast<double>(ti8[p * 64 + 4 * j + r]) * scale_w);
    }
    const double scale_x = amax_x / 127.0;
    bound += 0.5 * scale_w * sum_abs_x + 0.5 * scale_x * sum_abs_w_hat;
  }
  return static_cast<float>(bound);
}

}  // namespace ktx
