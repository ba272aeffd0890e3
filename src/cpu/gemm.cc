#include "src/cpu/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/align.h"
#include "src/common/logging.h"
#include "src/cpu/gemm_scratch.h"
#include "src/cpu/kernel_registry.h"

namespace ktx {

namespace {

// Portable tile-emulated kernel, bf16 weights. The loop structure mirrors
// Fig. 6: N-band tasks, K streamed in tile-sized blocks, accumulation in the
// (emulated) tile register.
void EmulatedGemmBf16(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                      float* y, std::int64_t ldy, bool accumulate, std::int64_t nb0,
                      std::int64_t nb1) {
  const std::int64_t n = w.n();
  const std::int64_t k = w.k();
  for (std::int64_t m0 = 0; m0 < m; m0 += kTileRows) {
    const int rows = static_cast<int>(std::min<std::int64_t>(kTileRows, m - m0));
    for (std::int64_t nb = nb0; nb < nb1; ++nb) {
      AccTile acc;
      acc.Zero();
      for (std::int64_t kb = 0; kb < w.k_blocks(); ++kb) {
        TileReg a;
        BuildActivationTileBf16(x + m0 * ldx, ldx, rows, kb * kKBlockBf16, k, &a);
        TileReg b;
        b.Load(w.tile_ptr(nb, kb), kTileBytesPerRow);
        TdpBf16Ps(acc, a, b, rows);
      }
      const std::int64_t n_valid = std::min<std::int64_t>(kNBlock, n - nb * kNBlock);
      for (int i = 0; i < rows; ++i) {
        float* out = y + (m0 + i) * ldy + nb * kNBlock;
        for (std::int64_t j = 0; j < n_valid; ++j) {
          out[j] = accumulate ? out[j] + acc.f32[i][j] : acc.f32[i][j];
        }
      }
    }
  }
}

// Portable f32 kernel on the k-major kF32 tile layout (layout.h). There is
// exactly one canonical op sequence for f32 — per output lane, ascending k,
// one fused multiply-add per step — and every backend (this scalar loop via
// std::fma, the AVX-512 and AVX2 kernels via vfmadd) performs it identically,
// so all tiers produce bit-identical results.
void EmulatedGemmF32(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                     float* y, std::int64_t ldy, bool accumulate, std::int64_t nb0,
                     std::int64_t nb1) {
  const std::int64_t n = w.n();
  const std::int64_t k = w.k();
  const std::int64_t k_blocks = w.k_blocks();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = x + i * ldx;
    for (std::int64_t nb = nb0; nb < nb1; ++nb) {
      float acc[kNBlock] = {};
      for (std::int64_t kb = 0; kb < k_blocks; ++kb) {
        const auto* tile = reinterpret_cast<const float*>(w.tile_ptr(nb, kb));
        const std::int64_t p_valid =
            std::min<std::int64_t>(kKBlockF32, k - kb * kKBlockF32);
        for (std::int64_t p = 0; p < p_valid; ++p) {
          const float xv = row[kb * kKBlockF32 + p];
          for (int j = 0; j < kNBlock; ++j) {
            acc[j] = std::fma(xv, tile[p * kNBlock + j], acc[j]);
          }
        }
      }
      const std::int64_t n0 = nb * kNBlock;
      const std::int64_t n_valid = std::min<std::int64_t>(kNBlock, n - n0);
      float* out = y + i * ldy + n0;
      for (std::int64_t j = 0; j < n_valid; ++j) {
        out[j] = accumulate ? out[j] + acc[j] : acc[j];
      }
    }
  }
}

// Portable tile-emulated kernel, int8/int4 weights with per-(row, k-block)
// scales. The i32 tile is rescaled into the f32 accumulator after every
// k-block because scales change across blocks. The rescale is the canonical
// mul/mul/add sequence every native kernel mirrors; this translation unit is
// built with -ffp-contract=off so the compiler cannot fuse it.
void EmulatedGemmInt8(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                      float* y, std::int64_t ldy, bool accumulate, std::int64_t nb0,
                      std::int64_t nb1, void* scratch, std::size_t scratch_bytes) {
  const std::int64_t n = w.n();
  const std::int64_t k = w.k();
  const std::int64_t k_blocks = w.k_blocks();
  const std::size_t need =
      static_cast<std::size_t>(kTileRows * k_blocks) * sizeof(float) + kCacheLineBytes;
  ScratchCarver carver = AcquireGemmScratch(scratch, scratch_bytes, need);
  float* x_scales = carver.Take<float>(static_cast<std::size_t>(kTileRows * k_blocks));
  for (std::int64_t m0 = 0; m0 < m; m0 += kTileRows) {
    const int rows = static_cast<int>(std::min<std::int64_t>(kTileRows, m - m0));
    ComputeActivationScalesInt8(x + m0 * ldx, rows, ldx, k, w.k_block(), x_scales);
    for (std::int64_t nb = nb0; nb < nb1; ++nb) {
      AccTile acc;
      acc.Zero();
      for (std::int64_t kb = 0; kb < k_blocks; ++kb) {
        float row_scales[kTileRows] = {};
        for (int i = 0; i < rows; ++i) {
          row_scales[i] = x_scales[i * k_blocks + kb];
        }
        TileReg a;
        BuildActivationTileInt8(x + m0 * ldx, ldx, rows, kb * kKBlockInt8, k, row_scales, &a);
        TileReg b;
        if (w.dtype() == DType::kI8) {
          b.Load(w.tile_ptr(nb, kb), kTileBytesPerRow);
        } else {
          UnpackInt4Tile(w.tile_ptr(nb, kb), &b);
        }
        AccTile tmp;
        tmp.Zero();
        TdpBssd(tmp, a, b, rows);
        const std::int64_t n_valid = std::min<std::int64_t>(kNBlock, n - nb * kNBlock);
        const std::int32_t* ti = tmp.i32();
        for (int i = 0; i < rows; ++i) {
          for (std::int64_t j = 0; j < n_valid; ++j) {
            const float t1 = static_cast<float>(ti[i * kNBlock + j]) * row_scales[i];
            const float t2 = t1 * w.scale(nb * kNBlock + j, kb);
            acc.f32[i][j] += t2;
          }
        }
      }
      const std::int64_t n_valid = std::min<std::int64_t>(kNBlock, n - nb * kNBlock);
      for (int i = 0; i < rows; ++i) {
        float* out = y + (m0 + i) * ldy + nb * kNBlock;
        for (std::int64_t j = 0; j < n_valid; ++j) {
          out[j] = accumulate ? out[j] + acc.f32[i][j] : acc.f32[i][j];
        }
      }
    }
  }
}

}  // namespace

void EmulatedGemm(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                  float* y, std::int64_t ldy, bool accumulate, std::int64_t nb0,
                  std::int64_t nb1, void* scratch, std::size_t scratch_bytes) {
  if (w.dtype() == DType::kF32) {
    EmulatedGemmF32(x, m, ldx, w, y, ldy, accumulate, nb0, nb1);
  } else if (w.dtype() == DType::kBF16) {
    EmulatedGemmBf16(x, m, ldx, w, y, ldy, accumulate, nb0, nb1);
  } else {
    EmulatedGemmInt8(x, m, ldx, w, y, ldy, accumulate, nb0, nb1, scratch, scratch_bytes);
  }
}

void* GemmThreadScratch(std::size_t bytes) {
  // Grow-only, doubling: at most O(log max-demand) allocations per thread.
  thread_local AlignedBuffer buf;
  if (buf.size() < bytes) {
    buf = AlignedBuffer(std::max(bytes, buf.size() * 2));
  }
  return buf.data();
}

void GemmPacked(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                float* y, std::int64_t ldy, const GemmOptions& opts) {
  if (m <= 0 || w.n() <= 0) {
    return;
  }
  const std::int64_t nb0 = opts.nb_begin;
  const std::int64_t nb1 = opts.nb_end < 0 ? w.n_blocks() : opts.nb_end;
  KTX_CHECK(nb0 >= 0 && nb1 <= w.n_blocks() && nb0 <= nb1) << "bad n-block range";
  const KernelVariant& v = ResolveKernelVariant(opts.kind, opts.impl, w.dtype());
  v.gemm(x, m, ldx, w, y, ldy, opts.accumulate, nb0, nb1, opts.scratch, opts.scratch_bytes);
}

void RefGemm(const float* x, std::int64_t m, std::int64_t ldx, const Tensor& w, float* y,
             std::int64_t ldy, bool accumulate) {
  KTX_CHECK(w.rank() == 2 && w.dtype() == DType::kF32);
  const std::int64_t n = w.dim(0);
  const std::int64_t k = w.dim(1);
  const float* wp = w.f32();
  // Each output is one serial double sum over ascending k (a float product
  // is exact in double, so fusing it or not changes nothing). Four outputs
  // run side by side — independent chains in registers, same per-output
  // order — which hides the add latency without changing a bit.
  for (std::int64_t i = 0; i < m; ++i) {
    const float* xr = x + i * ldx;
    float* yr = y + i * ldy;
    auto store = [&](std::int64_t j, double acc) {
      yr[j] = accumulate ? yr[j] + static_cast<float>(acc) : static_cast<float>(acc);
    };
    std::int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* w0 = wp + j * k;
      const float* w1 = w0 + k;
      const float* w2 = w1 + k;
      const float* w3 = w2 + k;
      double a0 = 0.0;
      double a1 = 0.0;
      double a2 = 0.0;
      double a3 = 0.0;
      for (std::int64_t c = 0; c < k; ++c) {
        const double xv = xr[c];
        a0 += xv * w0[c];
        a1 += xv * w1[c];
        a2 += xv * w2[c];
        a3 += xv * w3[c];
      }
      store(j, a0);
      store(j + 1, a1);
      store(j + 2, a2);
      store(j + 3, a3);
    }
    for (; j < n; ++j) {
      const float* wr = wp + j * k;
      double acc = 0.0;
      for (std::int64_t c = 0; c < k; ++c) {
        acc += static_cast<double>(xr[c]) * wr[c];
      }
      store(j, acc);
    }
  }
}

}  // namespace ktx
