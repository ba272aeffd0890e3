// AMX tiling-aware memory layout (paper §3.2).
//
// Expert weight matrices are preprocessed at load time into AMX-compatible
// sub-matrices so inference performs no transposition or reshaping:
//
//   * W[n][k] is partitioned into (16-output x k_block) tiles; each tile is
//     stored contiguously in the VNNI ordering the TDP* instructions consume
//     (tile.h documents the exact mapping);
//   * tiles are 64-byte aligned and laid out k-major within an n-block so one
//     task streams a whole L2-resident block of K before touching the next
//     row band (Fig. 6 steps 2-4);
//   * Int8/Int4 use symmetric per-(row, k-block) linear quantization with the
//     scale factors stored in a separate f32 array, keeping the quantized
//     payload exactly tile-sized and aligned;
//   * Int4 packs two values per byte and is unpacked to an Int8 tile on load.
//
// The same layout feeds both the AMX kernel and the AVX-512 kernel, which is
// what makes the ARI-based dispatch (gemm.h) a pure runtime decision.

#ifndef KTX_SRC_CPU_LAYOUT_H_
#define KTX_SRC_CPU_LAYOUT_H_

#include <cstdint>
#include <span>

#include "src/common/align.h"
#include "src/common/status.h"
#include "src/cpu/tile.h"
#include "src/tensor/tensor.h"

namespace ktx {

class PackedMatrix {
 public:
  PackedMatrix() = default;

  // Packs a rank-2 f32 weight matrix W[n][k] into tiles of `dtype`
  // (kF32, kBF16, kI8 or kI4). kF32 keeps full precision: its tiles hold the
  // weights k-major (tile[p*16 + j] = W[n0+j][k0+p]) so a GEMV streams one
  // 64-byte row of 16 outputs per k step — the layout every f32 kernel
  // (scalar, AVX2, AVX-512) walks in the same per-output k order, which is
  // what makes the f32 path bit-exact across implementations (gemm.h).
  static StatusOr<PackedMatrix> Pack(const Tensor& w, DType dtype);
  // Packs columns [col_begin, col_end) of W straight from its rows, with the
  // bytes Pack gives for a copy of those columns: the K slice a row-parallel
  // shard owns (tensor_parallel.h), without an f32 copy.
  static StatusOr<PackedMatrix> PackColumns(const Tensor& w, std::int64_t col_begin,
                                            std::int64_t col_end, DType dtype);

  std::int64_t n() const { return n_; }
  std::int64_t k() const { return k_; }
  DType dtype() const { return dtype_; }
  int k_block() const { return k_block_; }
  std::int64_t n_blocks() const { return n_blocks_; }
  std::int64_t k_blocks() const { return k_blocks_; }
  std::size_t tile_bytes() const { return tile_bytes_; }
  std::size_t payload_bytes() const { return tiles_.size(); }
  // The packed tiles as one byte range (scales and column sums excluded).
  std::span<const std::byte> payload() const { return {tiles_.data(), tiles_.size()}; }
  bool quantized() const { return dtype_ == DType::kI8 || dtype_ == DType::kI4; }

  const std::uint8_t* tile_ptr(std::int64_t nb, std::int64_t kb) const {
    return reinterpret_cast<const std::uint8_t*>(tiles_.data()) +
           (nb * k_blocks_ + kb) * static_cast<std::int64_t>(tile_bytes_);
  }

  // Quantization scale for output row `nrow` within k-block `kb`.
  float scale(std::int64_t nrow, std::int64_t kb) const {
    return scales_.f32()[nrow * k_blocks_ + kb];
  }
  const Tensor& scales() const { return scales_; }

  // Sum of quantized weights within (row, k-block); used by VPDPBUSD-style
  // kernels to correct for the unsigned-activation offset.
  std::int32_t col_sum(std::int64_t nrow, std::int64_t kb) const {
    return col_sums_.i32()[nrow * k_blocks_ + kb];
  }

  // Reconstructs the logical f32 matrix (tests / reference math).
  Tensor Unpack() const;

 private:
  std::int64_t n_ = 0;
  std::int64_t k_ = 0;
  DType dtype_ = DType::kBF16;
  int k_block_ = kKBlockBf16;
  std::int64_t n_blocks_ = 0;
  std::int64_t k_blocks_ = 0;
  std::size_t tile_bytes_ = kTileBytes;
  AlignedBuffer tiles_;
  Tensor scales_;    // [n, k_blocks] f32, quantized dtypes only
  Tensor col_sums_;  // [n, k_blocks] i32, quantized dtypes only
};

// Builds an A tile (activations) from f32 rows: rows [m0, m0+rows) of x,
// columns [k0, k0+k_block). Values are converted to bf16 (round-to-nearest-
// even), zero-padded to full tile size.
void BuildActivationTileBf16(const float* x, std::int64_t ldx, int rows, std::int64_t k0,
                             std::int64_t k_valid, TileReg* tile);

// Int8 activation quantization for one tile: each row is quantized against
// `scales[i]` (precomputed per token per k-block).
void BuildActivationTileInt8(const float* x, std::int64_t ldx, int rows, std::int64_t k0,
                             std::int64_t k_valid, const float* scales, TileReg* tile);

// Per-token, per-k-block symmetric activation scales: amax/127 over each
// 64-wide block. `scales` has shape [m][k_blocks].
void ComputeActivationScalesInt8(const float* x, std::int64_t m, std::int64_t ldx,
                                 std::int64_t k, int k_block, float* scales);

// Unpacks an Int4 tile (512 B) into an Int8 TileReg (the paper's SIMD nibble
// unpack; here portable scalar).
void UnpackInt4Tile(const std::uint8_t* packed, TileReg* tile);

// Worst-case |y - y_exact| for one quantized-GEMM output element: row `nrow`
// of `w` against activation row `x` (length k). Per k-block, weight rounding
// contributes 0.5 * scale_w * sum|x| (rounding moves each weight by at most
// half its per-(row, k-block) scale) and the kernels' int8 activation
// quantization contributes 0.5 * (amax_x / 127) * sum|w_hat| over the
// dequantized weights. This is the documented SNR budget for the
// 4-bit cold-expert path: tests assert the quantized GEMM, and the
// end-to-end cold-expert logits, stay inside the accumulated bound.
// `w` must be quantized (kI8 or kI4). O(n * k): test/diagnostic use.
float QuantGemvErrorBound(const PackedMatrix& w, const float* x, std::int64_t nrow);

}  // namespace ktx

#endif  // KTX_SRC_CPU_LAYOUT_H_
