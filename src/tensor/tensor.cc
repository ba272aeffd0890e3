#include "src/tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

#include "src/tensor/gaussian.h"

namespace ktx {

namespace {

std::int64_t NumelOf(const std::vector<std::int64_t>& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) {
    KTX_CHECK_GE(d, 0) << "negative dimension";
    n *= d;
  }
  return n;
}

}  // namespace

Tensor::Tensor(std::vector<std::int64_t> shape, DType dtype)
    : shape_(std::move(shape)), numel_(NumelOf(shape_)), dtype_(dtype) {
  buf_ = std::make_shared<AlignedBuffer>(DTypeBytes(dtype_, static_cast<std::size_t>(numel_)));
}

Tensor Tensor::ZeroPages(std::vector<std::int64_t> shape, DType dtype) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = NumelOf(t.shape_);
  t.dtype_ = dtype;
  t.buf_ = std::make_shared<AlignedBuffer>(AlignedBuffer::ZeroPages(t.byte_size()));
  return t;
}

Tensor Tensor::Full(std::vector<std::int64_t> shape, float value) {
  Tensor t(std::move(shape), DType::kF32);
  float* p = t.f32();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    p[i] = value;
  }
  return t;
}

Tensor Tensor::Randn(std::vector<std::int64_t> shape, Rng& rng, float stddev, DType dtype) {
  Tensor t(std::move(shape), DType::kF32);
  t.FillRandn(rng, stddev);
  if (dtype == DType::kF32) {
    return t;
  }
  if (dtype == DType::kBF16) {
    return t.ToBF16();
  }
  if (dtype == DType::kF16) {
    return t.ToF16();
  }
  KTX_LOG(Fatal) << "Randn: unsupported dtype " << DTypeName(dtype);
  return t;
}

void Tensor::FillRandn(Rng& rng, float stddev) { FillGaussian(rng, stddev, f32(), numel_); }

Tensor Tensor::Clone() const {
  Tensor out(shape_, dtype_);
  std::memcpy(out.raw(), raw(), byte_size());
  return out;
}

Tensor Tensor::ToF32() const {
  if (dtype_ == DType::kF32) {
    return Clone();
  }
  Tensor out(shape_, DType::kF32);
  float* dst = out.f32();
  if (dtype_ == DType::kBF16) {
    const BF16* src = bf16();
    for (std::int64_t i = 0; i < numel_; ++i) {
      dst[i] = BF16ToFloat(src[i]);
    }
  } else if (dtype_ == DType::kF16) {
    const FP16* src = reinterpret_cast<const FP16*>(raw());
    for (std::int64_t i = 0; i < numel_; ++i) {
      dst[i] = FP16ToFloat(src[i]);
    }
  } else {
    KTX_LOG(Fatal) << "ToF32: unsupported source dtype " << DTypeName(dtype_);
  }
  return out;
}

Tensor Tensor::ToBF16() const {
  KTX_CHECK(dtype_ == DType::kF32) << "ToBF16 expects f32 source";
  Tensor out(shape_, DType::kBF16);
  BF16* dst = out.bf16();
  const float* src = f32();
  for (std::int64_t i = 0; i < numel_; ++i) {
    dst[i] = FloatToBF16(src[i]);
  }
  return out;
}

Tensor Tensor::ToF16() const {
  KTX_CHECK(dtype_ == DType::kF32) << "ToF16 expects f32 source";
  Tensor out(shape_, DType::kF16);
  FP16* dst = reinterpret_cast<FP16*>(out.raw());
  const float* src = f32();
  for (std::int64_t i = 0; i < numel_; ++i) {
    dst[i] = FloatToFP16(src[i]);
  }
  return out;
}

Tensor Tensor::Reshape(std::vector<std::int64_t> shape) const {
  KTX_CHECK_EQ(NumelOf(shape), numel_) << "Reshape changes element count";
  Tensor out = *this;
  out.shape_ = std::move(shape);
  return out;
}

Tensor Tensor::Slice(std::int64_t begin_row, std::int64_t num_rows) const {
  KTX_CHECK_GE(rank(), 1u);
  KTX_CHECK(begin_row >= 0 && begin_row + num_rows <= shape_[0]) << "Slice out of range";
  std::int64_t row_elems = 1;
  for (std::size_t i = 1; i < shape_.size(); ++i) {
    row_elems *= shape_[i];
  }
  // Sub-byte dtypes cannot be sliced at arbitrary rows.
  KTX_CHECK_NE(dtype_, DType::kI4);
  Tensor out = *this;
  out.shape_[0] = num_rows;
  out.numel_ = num_rows * row_elems;
  out.offset_bytes_ =
      offset_bytes_ + DTypeBytes(dtype_, static_cast<std::size_t>(begin_row * row_elems));
  return out;
}

std::string Tensor::ShapeString() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    os << (i ? "," : "") << shape_[i];
  }
  os << "]" << DTypeName(dtype_);
  return os.str();
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  KTX_CHECK_EQ(a.numel(), b.numel());
  const Tensor fa = a.dtype() == DType::kF32 ? a : a.ToF32();
  const Tensor fb = b.dtype() == DType::kF32 ? b : b.ToF32();
  float max_diff = 0.0f;
  for (std::int64_t i = 0; i < fa.numel(); ++i) {
    max_diff = std::max(max_diff, std::fabs(fa.f32()[i] - fb.f32()[i]));
  }
  return max_diff;
}

float RelativeError(const Tensor& test, const Tensor& reference) {
  KTX_CHECK_EQ(test.numel(), reference.numel());
  const Tensor ft = test.dtype() == DType::kF32 ? test : test.ToF32();
  const Tensor fr = reference.dtype() == DType::kF32 ? reference : reference.ToF32();
  double num = 0.0;
  double den = 0.0;
  for (std::int64_t i = 0; i < ft.numel(); ++i) {
    const double d = static_cast<double>(ft.f32()[i]) - fr.f32()[i];
    num += d * d;
    den += static_cast<double>(fr.f32()[i]) * fr.f32()[i];
  }
  if (den == 0.0) {
    return num == 0.0 ? 0.0f : 1.0f;
  }
  return static_cast<float>(std::sqrt(num / den));
}

double CosineSimilarity(const Tensor& a, const Tensor& b) {
  KTX_CHECK_EQ(a.numel(), b.numel());
  const Tensor fa = a.dtype() == DType::kF32 ? a : a.ToF32();
  const Tensor fb = b.dtype() == DType::kF32 ? b : b.ToF32();
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (std::int64_t i = 0; i < fa.numel(); ++i) {
    dot += static_cast<double>(fa.f32()[i]) * fb.f32()[i];
    na += static_cast<double>(fa.f32()[i]) * fa.f32()[i];
    nb += static_cast<double>(fb.f32()[i]) * fb.f32()[i];
  }
  if (na == 0.0 || nb == 0.0) {
    return na == nb ? 1.0 : 0.0;
  }
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace ktx
