// A small dense tensor abstraction: shape + dtype + 64-byte-aligned storage.
//
// This is deliberately minimal — row-major contiguous layouts only, with
// lightweight non-owning views. Packed / tiled layouts used by the AMX kernels
// live in src/cpu/layout.h and carry their own metadata.

#ifndef KTX_SRC_TENSOR_TENSOR_H_
#define KTX_SRC_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "src/common/align.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/tensor/dtype.h"

namespace ktx {

class Tensor {
 public:
  Tensor() = default;

  // Allocates a zero-filled tensor.
  Tensor(std::vector<std::int64_t> shape, DType dtype);

  static Tensor Zeros(std::vector<std::int64_t> shape, DType dtype = DType::kF32) {
    return Tensor(std::move(shape), dtype);
  }
  // A zero tensor on AlignedBuffer::ZeroPages storage: its pages commit on
  // first write instead of up front (for large, slowly filled reservations).
  static Tensor ZeroPages(std::vector<std::int64_t> shape, DType dtype = DType::kF32);
  static Tensor Full(std::vector<std::int64_t> shape, float value);
  // Gaussian(0, stddev) floats; other dtypes via conversion.
  static Tensor Randn(std::vector<std::int64_t> shape, Rng& rng, float stddev = 1.0f,
                      DType dtype = DType::kF32);
  // Overwrites an allocated f32 tensor with the values Randn draws from the
  // same stream state, so a tensor can be allocated on one thread and filled
  // on another.
  void FillRandn(Rng& rng, float stddev);

  const std::vector<std::int64_t>& shape() const { return shape_; }
  std::int64_t dim(std::size_t i) const { return shape_.at(i); }
  std::size_t rank() const { return shape_.size(); }
  std::int64_t numel() const { return numel_; }
  DType dtype() const { return dtype_; }
  bool empty() const { return numel_ == 0; }
  std::size_t byte_size() const { return DTypeBytes(dtype_, static_cast<std::size_t>(numel_)); }

  std::byte* raw() { return buf_ ? buf_->data() + offset_bytes_ : nullptr; }
  const std::byte* raw() const { return buf_ ? buf_->data() + offset_bytes_ : nullptr; }

  float* f32() {
    KTX_DCHECK(dtype_ == DType::kF32);
    return reinterpret_cast<float*>(raw());
  }
  const float* f32() const {
    KTX_DCHECK(dtype_ == DType::kF32);
    return reinterpret_cast<const float*>(raw());
  }
  BF16* bf16() {
    KTX_DCHECK(dtype_ == DType::kBF16);
    return reinterpret_cast<BF16*>(raw());
  }
  const BF16* bf16() const {
    KTX_DCHECK(dtype_ == DType::kBF16);
    return reinterpret_cast<const BF16*>(raw());
  }
  std::int8_t* i8() {
    KTX_DCHECK(dtype_ == DType::kI8);
    return reinterpret_cast<std::int8_t*>(raw());
  }
  const std::int8_t* i8() const {
    KTX_DCHECK(dtype_ == DType::kI8);
    return reinterpret_cast<const std::int8_t*>(raw());
  }
  std::int32_t* i32() {
    KTX_DCHECK(dtype_ == DType::kI32);
    return reinterpret_cast<std::int32_t*>(raw());
  }
  const std::int32_t* i32() const {
    KTX_DCHECK(dtype_ == DType::kI32);
    return reinterpret_cast<const std::int32_t*>(raw());
  }

  // Element access for rank-2 f32 tensors (tests / reference code).
  float& At(std::int64_t r, std::int64_t c) {
    KTX_DCHECK(rank() == 2 && dtype_ == DType::kF32);
    return f32()[r * shape_[1] + c];
  }
  float At(std::int64_t r, std::int64_t c) const {
    KTX_DCHECK(rank() == 2 && dtype_ == DType::kF32);
    return f32()[r * shape_[1] + c];
  }

  // Deep copy.
  Tensor Clone() const;

  // Dtype conversions (lossy where expected).
  Tensor ToF32() const;
  Tensor ToBF16() const;
  Tensor ToF16() const;

  // Shape utilities. Reshape requires identical numel; shares storage.
  Tensor Reshape(std::vector<std::int64_t> shape) const;
  // Row view into the leading dimension of a rank>=2 contiguous f32 tensor.
  // Returned tensor shares storage.
  Tensor Slice(std::int64_t begin_row, std::int64_t num_rows) const;

  std::string ShapeString() const;

 private:
  std::vector<std::int64_t> shape_;
  std::int64_t numel_ = 0;
  DType dtype_ = DType::kF32;
  // Shared so views alias cheaply; offset_bytes_ locates a view's start.
  std::shared_ptr<AlignedBuffer> buf_;
  std::size_t offset_bytes_ = 0;
};

// Numeric helpers shared by tests and reference code.
float MaxAbsDiff(const Tensor& a, const Tensor& b);
float RelativeError(const Tensor& test, const Tensor& reference);  // ||t-r|| / ||r||
double CosineSimilarity(const Tensor& a, const Tensor& b);

}  // namespace ktx

#endif  // KTX_SRC_TENSOR_TENSOR_H_
