// Scalar data types used by the inference stack.
//
// BF16/FP16 are stored as raw 16-bit patterns with explicit conversion
// helpers so the code never depends on compiler-specific _Float16 support.
// Int4 is always group-quantized and packed two-per-byte (the expert tile packs
// of src/cpu/layout.h); it has no standalone scalar representation.

#ifndef KTX_SRC_TENSOR_DTYPE_H_
#define KTX_SRC_TENSOR_DTYPE_H_

#include <cstdint>
#include <cstring>
#include <string_view>

namespace ktx {

enum class DType : std::uint8_t {
  kF32 = 0,
  kBF16,
  kF16,
  kI8,    // group-quantized int8 (scales stored out of band)
  kI4,    // group-quantized int4, packed 2 values/byte
  kI32,
};

std::string_view DTypeName(DType dtype);

// Size in *bits* per element (Int4 is sub-byte).
int DTypeBits(DType dtype);

// Bytes needed for `n` elements of `dtype` (rounds up for Int4).
std::size_t DTypeBytes(DType dtype, std::size_t n);

// --- bf16 <-> f32 -----------------------------------------------------------

struct BF16 {
  std::uint16_t bits = 0;
};

inline float BF16ToFloat(BF16 v) {
  std::uint32_t u = static_cast<std::uint32_t>(v.bits) << 16;
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// Round-to-nearest-even, matching AMX's TDPBF16PS input convention.
inline BF16 FloatToBF16(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  const std::uint32_t rounding_bias = 0x7fff + ((u >> 16) & 1);
  return BF16{static_cast<std::uint16_t>((u + rounding_bias) >> 16)};
}

// --- fp16 <-> f32 (IEEE binary16, scalar soft conversion) -------------------

struct FP16 {
  std::uint16_t bits = 0;
};

float FP16ToFloat(FP16 v);
FP16 FloatToFP16(float f);

}  // namespace ktx

#endif  // KTX_SRC_TENSOR_DTYPE_H_
