#include "src/cpu/amx_native.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/logging.h"
#include "src/cpu/cpu_features.h"
#include "src/cpu/gemm.h"
#include "src/cpu/gemm_scratch.h"

#if defined(KTX_HAVE_NATIVE_SIMD)
#include <immintrin.h>
#endif

namespace ktx {

#if !defined(KTX_HAVE_NATIVE_SIMD)

void NativeAmxGemm(const float*, std::int64_t, std::int64_t, const PackedMatrix&, float*,
                   std::int64_t, bool, std::int64_t, std::int64_t, void*, std::size_t) {
  KTX_LOG(Fatal) << "native AMX kernel called but the build disabled native SIMD";
}

void NativeAvx512Gemm(const float*, std::int64_t, std::int64_t, const PackedMatrix&, float*,
                      std::int64_t, bool, std::int64_t, std::int64_t, void*, std::size_t) {
  KTX_LOG(Fatal) << "native AVX-512 kernel called but the build disabled native SIMD";
}

void NativeAvx2GemmBf16(const float*, std::int64_t, std::int64_t, const PackedMatrix&, float*,
                        std::int64_t, bool, std::int64_t, std::int64_t, void*, std::size_t) {
  KTX_LOG(Fatal) << "native AVX2 kernel called but the build disabled native SIMD";
}

void NativeAvx2GemmInt8(const float*, std::int64_t, std::int64_t, const PackedMatrix&, float*,
                        std::int64_t, bool, std::int64_t, std::int64_t, void*, std::size_t) {
  KTX_LOG(Fatal) << "native AVX2 kernel called but the build disabled native SIMD";
}

void NativeAvx512GemmF32(const float*, std::int64_t, std::int64_t, const PackedMatrix&, float*,
                         std::int64_t, bool, std::int64_t, std::int64_t, void*, std::size_t) {
  KTX_LOG(Fatal) << "native AVX-512 kernel called but the build disabled native SIMD";
}

void NativeAvx2GemmF32(const float*, std::int64_t, std::int64_t, const PackedMatrix&, float*,
                       std::int64_t, bool, std::int64_t, std::int64_t, void*, std::size_t) {
  KTX_LOG(Fatal) << "native AVX2 kernel called but the build disabled native SIMD";
}

#else

namespace {

// Tile configuration block consumed by LDTILECFG. Tiles used:
//   0: C accumulator (16 x 64B), 1: A activations, 2: B weights.
struct alignas(64) TileCfg {
  std::uint8_t palette_id = 1;
  std::uint8_t start_row = 0;
  std::uint8_t reserved[14] = {};
  std::uint16_t colsb[16] = {};
  std::uint8_t rows[16] = {};
};

// Every lane of a 16-lane mask. The maskz_ spellings of the full-width shift
// and int->float convert below compute the same lanes as the unmasked
// intrinsics, whose _mm512_undefined_* pass-through operand gcc reports as
// maybe-uninitialized.
constexpr __mmask16 kAllLanes = 0xFFFF;

__attribute__((target("amx-tile")))
void ConfigureTiles() {
  TileCfg cfg;
  for (int t = 0; t < 3; ++t) {
    cfg.colsb[t] = kTileBytesPerRow;
    cfg.rows[t] = kTileRows;
  }
  _tile_loadconfig(&cfg);
}

void StoreAcc(const float (&acc)[kTileRows][kNBlock], float* y, std::int64_t ldy,
              std::int64_t m0, int rows, std::int64_t n0, std::int64_t n, bool accumulate) {
  const std::int64_t n_valid = std::min<std::int64_t>(kNBlock, n - n0);
  for (int i = 0; i < rows; ++i) {
    float* out = y + (m0 + i) * ldy + n0;
    for (std::int64_t j = 0; j < n_valid; ++j) {
      out[j] = accumulate ? out[j] + acc[i][j] : acc[i][j];
    }
  }
}

// SIMD int4 nibble unpack (the paper's §3.2 "efficient int4 decode"): each
// packed byte expands to the adjacent (low, high) signed-nibble pair. A 16-bit
// lane 0x00bb becomes bytes [b & 0xf, (b >> 4) & 0xf] via mask / shift-mask /
// or, and `(v ^ 8) - 8` sign-extends the 4-bit field — the exact bit patterns
// UnpackInt4Tile (layout.cc) produces one byte at a time, at 64 weights per
// iteration instead of 2.
__attribute__((target("avx512f,avx512bw")))
void UnpackInt4TileAvx512(const std::uint8_t* packed, TileReg* tile) {
  const __m512i lo_m = _mm512_set1_epi16(0x000f);
  const __m512i hi_m = _mm512_set1_epi16(0x0f00);
  const __m512i k8 = _mm512_set1_epi8(8);
  for (int p = 0; p < kTileRows; ++p) {
    const __m256i raw = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(packed + p * (kTileBytesPerRow / 2)));
    const __m512i w16 = _mm512_cvtepu8_epi16(raw);
    __m512i nib = _mm512_or_si512(_mm512_and_si512(w16, lo_m),
                                  _mm512_and_si512(_mm512_slli_epi16(w16, 4), hi_m));
    nib = _mm512_sub_epi8(_mm512_xor_si512(nib, k8), k8);
    _mm512_store_si512(tile->data[p], nib);
  }
}

__attribute__((target("amx-tile,amx-bf16,amx-int8,avx512f,avx512bw")))
void AmxGemmImpl(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                 float* y, std::int64_t ldy, bool accumulate, std::int64_t nb0,
                 std::int64_t nb1, void* scratch, std::size_t scratch_bytes) {
  ConfigureTiles();
  const std::int64_t k_blocks = w.k_blocks();
  const std::size_t need = static_cast<std::size_t>(k_blocks) * sizeof(TileReg) +
                           static_cast<std::size_t>(k_blocks) * kTileRows * sizeof(float) +
                           2 * kCacheLineBytes;
  ScratchCarver carver = AcquireGemmScratch(scratch, scratch_bytes, need);
  TileReg* a_tiles = carver.Take<TileReg>(static_cast<std::size_t>(k_blocks));
  float* x_scales = carver.Take<float>(static_cast<std::size_t>(kTileRows * k_blocks));
  alignas(64) float cbuf[kTileRows][kNBlock];
  alignas(64) std::int32_t ibuf[kTileRows][kNBlock];
  TileReg b_unpacked;

  for (std::int64_t m0 = 0; m0 < m; m0 += kTileRows) {
    const int rows = static_cast<int>(std::min<std::int64_t>(kTileRows, m - m0));
    if (w.dtype() == DType::kBF16) {
      for (std::int64_t kb = 0; kb < k_blocks; ++kb) {
        BuildActivationTileBf16(x + m0 * ldx, ldx, rows, kb * kKBlockBf16, w.k(),
                                &a_tiles[static_cast<std::size_t>(kb)]);
      }
      for (std::int64_t nb = nb0; nb < nb1; ++nb) {
        _tile_zero(0);
        for (std::int64_t kb = 0; kb < k_blocks; ++kb) {
          _tile_loadd(1, a_tiles[static_cast<std::size_t>(kb)].data, kTileBytesPerRow);
          _tile_loadd(2, w.tile_ptr(nb, kb), kTileBytesPerRow);
          _tile_dpbf16ps(0, 1, 2);
        }
        _tile_stored(0, cbuf, kNBlock * sizeof(float));
        StoreAcc(cbuf, y, ldy, m0, rows, nb * kNBlock, w.n(), accumulate);
      }
    } else {
      ComputeActivationScalesInt8(x + m0 * ldx, rows, ldx, w.k(), w.k_block(), x_scales);
      for (std::int64_t kb = 0; kb < k_blocks; ++kb) {
        float row_scales[kTileRows] = {};
        for (int i = 0; i < rows; ++i) {
          row_scales[i] = x_scales[static_cast<std::size_t>(i * k_blocks + kb)];
        }
        BuildActivationTileInt8(x + m0 * ldx, ldx, rows, kb * kKBlockInt8, w.k(), row_scales,
                                &a_tiles[static_cast<std::size_t>(kb)]);
      }
      for (std::int64_t nb = nb0; nb < nb1; ++nb) {
        alignas(64) float acc[kTileRows][kNBlock] = {};
        for (std::int64_t kb = 0; kb < k_blocks; ++kb) {
          _tile_zero(0);
          _tile_loadd(1, a_tiles[static_cast<std::size_t>(kb)].data, kTileBytesPerRow);
          if (w.dtype() == DType::kI8) {
            _tile_loadd(2, w.tile_ptr(nb, kb), kTileBytesPerRow);
          } else {
            UnpackInt4TileAvx512(w.tile_ptr(nb, kb), &b_unpacked);
            _tile_loadd(2, b_unpacked.data, kTileBytesPerRow);
          }
          _tile_dpbssd(0, 1, 2);
          _tile_stored(0, ibuf, kNBlock * sizeof(std::int32_t));
          const std::int64_t n_valid = std::min<std::int64_t>(kNBlock, w.n() - nb * kNBlock);
          for (int i = 0; i < rows; ++i) {
            const float xs = x_scales[static_cast<std::size_t>(i * k_blocks + kb)];
            for (std::int64_t j = 0; j < n_valid; ++j) {
              // Canonical rescale: t1 = float(dot) * xs; t2 = t1 * ws;
              // acc += t2 (three roundings, never fused — the TU is built
              // with -ffp-contract=off).
              const float t1 = static_cast<float>(ibuf[i][j]) * xs;
              const float t2 = t1 * w.scale(nb * kNBlock + j, kb);
              acc[i][j] += t2;
            }
          }
        }
        StoreAcc(acc, y, ldy, m0, rows, nb * kNBlock, w.n(), accumulate);
      }
    }
  }
  _tile_release();
}

// AVX-512 bf16 row kernel. Canonical bf16 sequence (tile.h): per 32-element
// k-block the even-index and odd-index products accumulate in two separate
// fma chains over ascending p, and the running accumulator absorbs their sum
// as acc += (even + odd). A bf16 product is exact in f32, so these vfmadd
// chains land on the identical bits as the TDPBF16PS tile instruction and the
// scalar emulation. (VDPBF16PS folds even and odd into one chain per step —
// a DIFFERENT rounding sequence — which is why this kernel does not use it.)
__attribute__((target("avx512f,avx512bw,avx512vl")))
void Avx512GemmBf16Impl(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                        float* y, std::int64_t ldy, bool accumulate, std::int64_t nb0,
                        std::int64_t nb1, void* scratch, std::size_t scratch_bytes) {
  const std::int64_t k_blocks = w.k_blocks();
  const std::int64_t k_pad = k_blocks * kKBlockBf16;
  const std::size_t need =
      static_cast<std::size_t>(k_pad) * sizeof(std::uint16_t) + kCacheLineBytes;
  ScratchCarver carver = AcquireGemmScratch(scratch, scratch_bytes, need);
  std::uint16_t* xb = carver.Take<std::uint16_t>(static_cast<std::size_t>(k_pad));
  const __m512i hi_mask = _mm512_set1_epi32(static_cast<int>(0xFFFF0000u));
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = x + i * ldx;
    for (std::int64_t c = 0; c < w.k(); ++c) {
      xb[static_cast<std::size_t>(c)] = FloatToBF16(row[c]).bits;
    }
    for (std::int64_t c = w.k(); c < k_pad; ++c) {
      xb[static_cast<std::size_t>(c)] = 0;
    }
    for (std::int64_t nb = nb0; nb < nb1; ++nb) {
      __m512 acc = _mm512_setzero_ps();
      for (std::int64_t kb = 0; kb < k_blocks; ++kb) {
        const auto* brow = reinterpret_cast<const std::uint16_t*>(w.tile_ptr(nb, kb));
        const std::uint16_t* xp = xb + kb * kKBlockBf16;
        __m512 ve = _mm512_setzero_ps();
        __m512 vo = _mm512_setzero_ps();
        for (int p = 0; p < kTileRows; ++p) {
          const std::uint32_t eb = static_cast<std::uint32_t>(xp[2 * p]) << 16;
          const std::uint32_t ob = static_cast<std::uint32_t>(xp[2 * p + 1]) << 16;
          float xe;
          float xo;
          std::memcpy(&xe, &eb, 4);
          std::memcpy(&xo, &ob, 4);
          const __m512i bv = _mm512_loadu_si512(brow + p * 32);
          const __m512 be = _mm512_castsi512_ps(_mm512_maskz_slli_epi32(kAllLanes, bv, 16));
          const __m512 bo = _mm512_castsi512_ps(_mm512_and_si512(bv, hi_mask));
          ve = _mm512_fmadd_ps(be, _mm512_set1_ps(xe), ve);
          vo = _mm512_fmadd_ps(bo, _mm512_set1_ps(xo), vo);
        }
        acc = _mm512_add_ps(acc, _mm512_add_ps(ve, vo));
      }
      const std::int64_t n0 = nb * kNBlock;
      const std::int64_t n_valid = std::min<std::int64_t>(kNBlock, w.n() - n0);
      const __mmask16 mask = static_cast<__mmask16>((1u << n_valid) - 1);
      float* out = y + i * ldy + n0;
      if (accumulate) {
        const __m512 prev = _mm512_maskz_loadu_ps(mask, out);
        acc = _mm512_add_ps(acc, prev);
      }
      _mm512_mask_storeu_ps(out, mask, acc);
    }
  }
}

__attribute__((target("avx512f,avx512bw,avx512vl,avx512bf16,avx512vnni")))
void Avx512GemmInt8Impl(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                        float* y, std::int64_t ldy, bool accumulate, std::int64_t nb0,
                        std::int64_t nb1, void* scratch, std::size_t scratch_bytes) {
  const std::int64_t k_blocks = w.k_blocks();
  const std::int64_t k_pad = k_blocks * kKBlockInt8;
  const std::size_t need = static_cast<std::size_t>(k_blocks) * sizeof(float) +
                           static_cast<std::size_t>(k_pad) + 2 * kCacheLineBytes;
  ScratchCarver carver = AcquireGemmScratch(scratch, scratch_bytes, need);
  float* scales = carver.Take<float>(static_cast<std::size_t>(k_blocks));
  std::uint8_t* xu = carver.Take<std::uint8_t>(static_cast<std::size_t>(k_pad));  // q + 128
  alignas(64) float wscale[kNBlock];
  alignas(64) std::int32_t wsum[kNBlock];

  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = x + i * ldx;
    ComputeActivationScalesInt8(row, 1, ldx, w.k(), w.k_block(), scales);
    std::fill(xu, xu + k_pad, static_cast<std::uint8_t>(128));
    for (std::int64_t c = 0; c < w.k(); ++c) {
      const float s = scales[static_cast<std::size_t>(c / w.k_block())];
      const float inv = s > 0.0f ? 1.0f / s : 0.0f;
      const int q = std::clamp(static_cast<int>(std::lrintf(row[c] * inv)), -127, 127);
      xu[static_cast<std::size_t>(c)] = static_cast<std::uint8_t>(q + 128);
    }
    for (std::int64_t nb = nb0; nb < nb1; ++nb) {
      const std::int64_t n0 = nb * kNBlock;
      const std::int64_t n_valid = std::min<std::int64_t>(kNBlock, w.n() - n0);
      __m512 accf = _mm512_setzero_ps();
      for (std::int64_t kb = 0; kb < k_blocks; ++kb) {
        const std::uint8_t* xp = xu + kb * kKBlockInt8;
        __m512i acci = _mm512_setzero_si512();
        if (w.dtype() == DType::kI8) {
          const std::uint8_t* brow = w.tile_ptr(nb, kb);
          for (int p = 0; p < kTileRows; ++p) {
            std::uint32_t quad;
            std::memcpy(&quad, xp + 4 * p, 4);
            acci = _mm512_dpbusd_epi32(acci, _mm512_set1_epi32(static_cast<int>(quad)),
                                       _mm512_loadu_si512(brow + p * kTileBytesPerRow));
          }
        } else {
          // Fused int4 dequantize-into-GEMM: unpack the 32-byte packed row
          // straight into a register (same mask/shift/xor-sub sequence as
          // UnpackInt4TileAvx512) and feed VPDPBUSD directly — no tile
          // materialization, ~4x fewer weight bytes streamed than bf16, and
          // integer MACs identical to the scalar unpack.
          const std::uint8_t* prow = w.tile_ptr(nb, kb);
          const __m512i lo_m = _mm512_set1_epi16(0x000f);
          const __m512i hi_m = _mm512_set1_epi16(0x0f00);
          const __m512i k8 = _mm512_set1_epi8(8);
          for (int p = 0; p < kTileRows; ++p) {
            std::uint32_t quad;
            std::memcpy(&quad, xp + 4 * p, 4);
            const __m256i raw = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(prow + p * (kTileBytesPerRow / 2)));
            const __m512i w16 = _mm512_cvtepu8_epi16(raw);
            __m512i nib = _mm512_or_si512(
                _mm512_and_si512(w16, lo_m),
                _mm512_and_si512(_mm512_slli_epi16(w16, 4), hi_m));
            nib = _mm512_sub_epi8(_mm512_xor_si512(nib, k8), k8);
            acci = _mm512_dpbusd_epi32(acci, _mm512_set1_epi32(static_cast<int>(quad)), nib);
          }
        }
        for (std::int64_t j = 0; j < kNBlock; ++j) {
          const std::int64_t nrow = std::min<std::int64_t>(n0 + j, w.n() - 1);
          wscale[j] = w.scale(nrow, kb);
          wsum[j] = w.col_sum(nrow, kb);
        }
        // Correct the +128 activation offset: real = acc - 128 * sum(w).
        const __m512i corr = _mm512_sub_epi32(
            acci, _mm512_maskz_slli_epi32(kAllLanes, _mm512_load_si512(wsum), 7));
        const float xs = scales[static_cast<std::size_t>(kb)];
        // Canonical rescale: t1 = float(dot) * xs; t2 = t1 * ws; acc += t2 —
        // three separate roundings, never fused, matching every other backend.
        const __m512 t1 =
            _mm512_mul_ps(_mm512_maskz_cvtepi32_ps(kAllLanes, corr), _mm512_set1_ps(xs));
        const __m512 t2 = _mm512_mul_ps(t1, _mm512_load_ps(wscale));
        accf = _mm512_add_ps(accf, t2);
      }
      const __mmask16 mask = static_cast<__mmask16>((1u << n_valid) - 1);
      float* out = y + i * ldy + n0;
      if (accumulate) {
        accf = _mm512_add_ps(accf, _mm512_maskz_loadu_ps(mask, out));
      }
      _mm512_mask_storeu_ps(out, mask, accf);
    }
  }
}


// AVX2+FMA bf16 kernel: the tile rows hold interleaved (even, odd) bf16
// pairs; a bf16 widens to f32 by a 16-bit left shift, so each 32-bit lane of
// a tile row splits into the even value (low half shifted up) and the odd
// value (high half masked). Canonical bf16 sequence (tile.h): per k-block the
// even-index and odd-index products run in separate fma chains over ascending
// p (one lo/hi register pair each), and the accumulator absorbs their sum —
// bit-identical to the AMX tile instruction, the AVX-512 kernel, and the
// scalar emulation.
__attribute__((target("avx2,fma")))
void Avx2GemmBf16Impl(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                      float* y, std::int64_t ldy, bool accumulate, std::int64_t nb0,
                      std::int64_t nb1, void* scratch, std::size_t scratch_bytes) {
  const std::int64_t k_blocks = w.k_blocks();
  const std::int64_t k_pad = k_blocks * kKBlockBf16;
  const std::size_t need =
      static_cast<std::size_t>(k_pad) * sizeof(std::uint16_t) + kCacheLineBytes;
  ScratchCarver carver = AcquireGemmScratch(scratch, scratch_bytes, need);
  std::uint16_t* xb = carver.Take<std::uint16_t>(static_cast<std::size_t>(k_pad));
  const __m256i hi_mask = _mm256_set1_epi32(static_cast<int>(0xFFFF0000u));
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = x + i * ldx;
    for (std::int64_t c = 0; c < w.k(); ++c) {
      xb[static_cast<std::size_t>(c)] = FloatToBF16(row[c]).bits;
    }
    for (std::int64_t c = w.k(); c < k_pad; ++c) {
      xb[static_cast<std::size_t>(c)] = 0;
    }
    for (std::int64_t nb = nb0; nb < nb1; ++nb) {
      __m256 acc_lo = _mm256_setzero_ps();  // outputs j = 0..7
      __m256 acc_hi = _mm256_setzero_ps();  // outputs j = 8..15
      for (std::int64_t kb = 0; kb < k_blocks; ++kb) {
        const auto* brow = reinterpret_cast<const std::uint16_t*>(w.tile_ptr(nb, kb));
        const std::uint16_t* xp = xb + kb * kKBlockBf16;
        __m256 ve_lo = _mm256_setzero_ps();
        __m256 vo_lo = _mm256_setzero_ps();
        __m256 ve_hi = _mm256_setzero_ps();
        __m256 vo_hi = _mm256_setzero_ps();
        for (int p = 0; p < kTileRows; ++p) {
          std::uint32_t lo_bits = static_cast<std::uint32_t>(xp[2 * p]) << 16;
          std::uint32_t hi_bits = static_cast<std::uint32_t>(xp[2 * p + 1]) << 16;
          float xl;
          float xh;
          std::memcpy(&xl, &lo_bits, 4);
          std::memcpy(&xh, &hi_bits, 4);
          const __m256 vxl = _mm256_set1_ps(xl);
          const __m256 vxh = _mm256_set1_ps(xh);
          const __m256i raw_lo = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(brow + p * 32));
          const __m256i raw_hi = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(brow + p * 32 + 16));
          const __m256 even_lo = _mm256_castsi256_ps(_mm256_slli_epi32(raw_lo, 16));
          const __m256 odd_lo = _mm256_castsi256_ps(_mm256_and_si256(raw_lo, hi_mask));
          const __m256 even_hi = _mm256_castsi256_ps(_mm256_slli_epi32(raw_hi, 16));
          const __m256 odd_hi = _mm256_castsi256_ps(_mm256_and_si256(raw_hi, hi_mask));
          ve_lo = _mm256_fmadd_ps(even_lo, vxl, ve_lo);
          vo_lo = _mm256_fmadd_ps(odd_lo, vxh, vo_lo);
          ve_hi = _mm256_fmadd_ps(even_hi, vxl, ve_hi);
          vo_hi = _mm256_fmadd_ps(odd_hi, vxh, vo_hi);
        }
        acc_lo = _mm256_add_ps(acc_lo, _mm256_add_ps(ve_lo, vo_lo));
        acc_hi = _mm256_add_ps(acc_hi, _mm256_add_ps(ve_hi, vo_hi));
      }
      const std::int64_t n0 = nb * kNBlock;
      const std::int64_t n_valid = std::min<std::int64_t>(kNBlock, w.n() - n0);
      alignas(32) float out_buf[kNBlock];
      _mm256_store_ps(out_buf, acc_lo);
      _mm256_store_ps(out_buf + 8, acc_hi);
      float* out = y + i * ldy + n0;
      for (std::int64_t j = 0; j < n_valid; ++j) {
        out[j] = accumulate ? out[j] + out_buf[j] : out_buf[j];
      }
    }
  }
}


// AVX2 int8/int4 kernel. Tile row p holds bytes [4j + r] for outputs j; two
// 128-bit halves sign-extend to i16 and PMADDWD against the repeating
// activation quad [a0,a1,a2,a3] producing adjacent-pair partial sums that a
// final horizontal pass folds into the 16 outputs. Integer math matches the
// tile emulation exactly; the f32 rescale runs per k-block like every other
// backend.
__attribute__((target("avx2,fma")))
void Avx2GemmInt8Impl(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                      float* y, std::int64_t ldy, bool accumulate, std::int64_t nb0,
                      std::int64_t nb1, void* scratch, std::size_t scratch_bytes) {
  const std::int64_t k_blocks = w.k_blocks();
  const std::int64_t k_pad = k_blocks * kKBlockInt8;
  const std::size_t need = static_cast<std::size_t>(k_blocks) * sizeof(float) +
                           static_cast<std::size_t>(k_pad) + 2 * kCacheLineBytes;
  ScratchCarver carver = AcquireGemmScratch(scratch, scratch_bytes, need);
  float* scales = carver.Take<float>(static_cast<std::size_t>(k_blocks));
  std::int8_t* xq = carver.Take<std::int8_t>(static_cast<std::size_t>(k_pad));
  const __m128i lo_m = _mm_set1_epi16(0x000f);
  const __m128i hi_m = _mm_set1_epi16(0x0f00);
  const __m128i k8 = _mm_set1_epi8(8);

  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = x + i * ldx;
    ComputeActivationScalesInt8(row, 1, ldx, w.k(), w.k_block(), scales);
    std::fill(xq, xq + k_pad, static_cast<std::int8_t>(0));
    for (std::int64_t c = 0; c < w.k(); ++c) {
      const float sc = scales[static_cast<std::size_t>(c / w.k_block())];
      const float inv = sc > 0.0f ? 1.0f / sc : 0.0f;
      xq[static_cast<std::size_t>(c)] = static_cast<std::int8_t>(
          std::clamp(static_cast<int>(std::lrintf(row[c] * inv)), -127, 127));
    }
    for (std::int64_t nb = nb0; nb < nb1; ++nb) {
      const std::int64_t n0 = nb * kNBlock;
      const std::int64_t n_valid = std::min<std::int64_t>(kNBlock, w.n() - n0);
      alignas(32) float accf[kNBlock] = {};
      for (std::int64_t kb = 0; kb < k_blocks; ++kb) {
        const std::int8_t* xp = xq + kb * kKBlockInt8;
        // acc[h] holds adjacent-pair partials: lanes (2t, 2t+1) sum to output
        // j = h*4 + t within this 16-output band.
        __m256i acc[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                          _mm256_setzero_si256(), _mm256_setzero_si256()};
        const bool is_i8 = w.dtype() == DType::kI8;
        const std::uint8_t* tile_base = w.tile_ptr(nb, kb);
        for (int p = 0; p < kTileRows; ++p) {
          const std::int8_t* quad = xp + 4 * p;
          const __m128i a8 = _mm_set1_epi32(*reinterpret_cast<const std::int32_t*>(quad));
          const __m256i a16 = _mm256_cvtepi8_epi16(a8);  // [a0..a3] x4
          for (int h = 0; h < 4; ++h) {
            __m128i w8;
            if (is_i8) {
              w8 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                  tile_base + p * kTileBytesPerRow + 16 * h));
            } else {
              // Fused int4 unpack: 8 packed bytes -> 16 signed nibbles via
              // the same mask / shift-mask / xor-sub sequence as the AVX-512
              // kernel, feeding PMADDWD without materializing the i8 tile.
              const __m128i raw = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(
                  tile_base + p * (kTileBytesPerRow / 2) + 8 * h));
              const __m128i w16x = _mm_cvtepu8_epi16(raw);
              w8 = _mm_or_si128(_mm_and_si128(w16x, lo_m),
                                _mm_and_si128(_mm_slli_epi16(w16x, 4), hi_m));
              w8 = _mm_sub_epi8(_mm_xor_si128(w8, k8), k8);
            }
            const __m256i w16 = _mm256_cvtepi8_epi16(w8);
            acc[h] = _mm256_add_epi32(acc[h], _mm256_madd_epi16(w16, a16));
          }
        }
        const float xs = scales[static_cast<std::size_t>(kb)];
        alignas(32) std::int32_t lanes[8];
        for (int h = 0; h < 4; ++h) {
          _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc[h]);
          for (int t = 0; t < 4; ++t) {
            const std::int64_t j = h * 4 + t;
            const std::int64_t nrow = std::min<std::int64_t>(n0 + j, w.n() - 1);
            // Canonical rescale: t1 = float(dot) * xs; t2 = t1 * ws; acc += t2.
            const float t1 = static_cast<float>(lanes[2 * t] + lanes[2 * t + 1]) * xs;
            const float t2 = t1 * w.scale(nrow, kb);
            accf[j] += t2;
          }
        }
      }
      float* out = y + i * ldy + n0;
      for (std::int64_t j = 0; j < n_valid; ++j) {
        out[j] = accumulate ? out[j] + accf[j] : accf[j];
      }
    }
  }
}

// AVX-512 f32 kernel on the k-major kF32 layout. Per output lane the op
// sequence is one vfmadd per k step in ascending k order — exactly the
// std::fma sequence the scalar emulation performs — so results are
// bit-identical across all three tiers (the expert-cache hot-path identity).
__attribute__((target("avx512f")))
void Avx512GemmF32Impl(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                       float* y, std::int64_t ldy, bool accumulate, std::int64_t nb0,
                       std::int64_t nb1) {
  const std::int64_t k = w.k();
  const std::int64_t k_blocks = w.k_blocks();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = x + i * ldx;
    for (std::int64_t nb = nb0; nb < nb1; ++nb) {
      __m512 acc = _mm512_setzero_ps();
      for (std::int64_t kb = 0; kb < k_blocks; ++kb) {
        const auto* tile = reinterpret_cast<const float*>(w.tile_ptr(nb, kb));
        const std::int64_t p_valid =
            std::min<std::int64_t>(kKBlockF32, k - kb * kKBlockF32);
        for (std::int64_t p = 0; p < p_valid; ++p) {
          acc = _mm512_fmadd_ps(_mm512_set1_ps(row[kb * kKBlockF32 + p]),
                                _mm512_load_ps(tile + p * kNBlock), acc);
        }
      }
      const std::int64_t n0 = nb * kNBlock;
      const std::int64_t n_valid = std::min<std::int64_t>(kNBlock, w.n() - n0);
      const __mmask16 mask = static_cast<__mmask16>((1u << n_valid) - 1);
      float* out = y + i * ldy + n0;
      if (accumulate) {
        acc = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, out), acc);
      }
      _mm512_mask_storeu_ps(out, mask, acc);
    }
  }
}

// AVX2 f32 kernel: two 8-lane halves walking the identical per-lane fma
// sequence as the AVX-512 kernel and the scalar emulation.
__attribute__((target("avx2,fma")))
void Avx2GemmF32Impl(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                     float* y, std::int64_t ldy, bool accumulate, std::int64_t nb0,
                     std::int64_t nb1) {
  const std::int64_t k = w.k();
  const std::int64_t k_blocks = w.k_blocks();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = x + i * ldx;
    for (std::int64_t nb = nb0; nb < nb1; ++nb) {
      __m256 acc_lo = _mm256_setzero_ps();  // outputs j = 0..7
      __m256 acc_hi = _mm256_setzero_ps();  // outputs j = 8..15
      for (std::int64_t kb = 0; kb < k_blocks; ++kb) {
        const auto* tile = reinterpret_cast<const float*>(w.tile_ptr(nb, kb));
        const std::int64_t p_valid =
            std::min<std::int64_t>(kKBlockF32, k - kb * kKBlockF32);
        for (std::int64_t p = 0; p < p_valid; ++p) {
          const __m256 vx = _mm256_set1_ps(row[kb * kKBlockF32 + p]);
          acc_lo = _mm256_fmadd_ps(vx, _mm256_load_ps(tile + p * kNBlock), acc_lo);
          acc_hi = _mm256_fmadd_ps(vx, _mm256_load_ps(tile + p * kNBlock + 8), acc_hi);
        }
      }
      const std::int64_t n0 = nb * kNBlock;
      const std::int64_t n_valid = std::min<std::int64_t>(kNBlock, w.n() - n0);
      alignas(32) float out_buf[kNBlock];
      _mm256_store_ps(out_buf, acc_lo);
      _mm256_store_ps(out_buf + 8, acc_hi);
      float* out = y + i * ldy + n0;
      for (std::int64_t j = 0; j < n_valid; ++j) {
        out[j] = accumulate ? out[j] + out_buf[j] : out_buf[j];
      }
    }
  }
}

}  // namespace

void NativeAmxGemm(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                   float* y, std::int64_t ldy, bool accumulate, std::int64_t nb_begin,
                   std::int64_t nb_end, void* scratch, std::size_t scratch_bytes) {
  KTX_CHECK(NativeAmxAvailable());
  AmxGemmImpl(x, m, ldx, w, y, ldy, accumulate, nb_begin, nb_end, scratch, scratch_bytes);
}

void NativeAvx512Gemm(const float* x, std::int64_t m, std::int64_t ldx, const PackedMatrix& w,
                      float* y, std::int64_t ldy, bool accumulate, std::int64_t nb_begin,
                      std::int64_t nb_end, void* scratch, std::size_t scratch_bytes) {
  KTX_CHECK(NativeAvx512Available());
  if (w.dtype() == DType::kBF16) {
    Avx512GemmBf16Impl(x, m, ldx, w, y, ldy, accumulate, nb_begin, nb_end, scratch,
                       scratch_bytes);
  } else {
    Avx512GemmInt8Impl(x, m, ldx, w, y, ldy, accumulate, nb_begin, nb_end, scratch,
                       scratch_bytes);
  }
}

void NativeAvx2GemmBf16(const float* x, std::int64_t m, std::int64_t ldx,
                        const PackedMatrix& w, float* y, std::int64_t ldy, bool accumulate,
                        std::int64_t nb_begin, std::int64_t nb_end, void* scratch,
                        std::size_t scratch_bytes) {
  KTX_CHECK(NativeAvx2Available());
  KTX_CHECK(w.dtype() == DType::kBF16) << "bf16 entry point called with quantized weights";
  Avx2GemmBf16Impl(x, m, ldx, w, y, ldy, accumulate, nb_begin, nb_end, scratch, scratch_bytes);
}

void NativeAvx2GemmInt8(const float* x, std::int64_t m, std::int64_t ldx,
                        const PackedMatrix& w, float* y, std::int64_t ldy, bool accumulate,
                        std::int64_t nb_begin, std::int64_t nb_end, void* scratch,
                        std::size_t scratch_bytes) {
  KTX_CHECK(NativeAvx2Available());
  KTX_CHECK(w.dtype() == DType::kI8 || w.dtype() == DType::kI4);
  Avx2GemmInt8Impl(x, m, ldx, w, y, ldy, accumulate, nb_begin, nb_end, scratch, scratch_bytes);
}

void NativeAvx512GemmF32(const float* x, std::int64_t m, std::int64_t ldx,
                         const PackedMatrix& w, float* y, std::int64_t ldy, bool accumulate,
                         std::int64_t nb_begin, std::int64_t nb_end, void*, std::size_t) {
  KTX_CHECK(NativeAvx512Available());
  KTX_CHECK(w.dtype() == DType::kF32) << "f32 entry point called with non-f32 weights";
  Avx512GemmF32Impl(x, m, ldx, w, y, ldy, accumulate, nb_begin, nb_end);
}

void NativeAvx2GemmF32(const float* x, std::int64_t m, std::int64_t ldx,
                       const PackedMatrix& w, float* y, std::int64_t ldy, bool accumulate,
                       std::int64_t nb_begin, std::int64_t nb_end, void*, std::size_t) {
  KTX_CHECK(NativeAvx2Available());
  KTX_CHECK(w.dtype() == DType::kF32) << "f32 entry point called with non-f32 weights";
  Avx2GemmF32Impl(x, m, ldx, w, y, ldy, accumulate, nb_begin, nb_end);
}

#endif  // KTX_HAVE_NATIVE_SIMD

}  // namespace ktx
