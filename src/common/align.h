// Cache-line / AMX-tile aligned allocation helpers.
//
// The AMX tiling-aware memory layout (paper §3.2) requires every packed weight
// tile to start on a 64-byte boundary so a single TILELOADD streams whole cache
// lines. AlignedBuffer is the owning allocation primitive used by the tensor
// library and by the prepacked expert-weight layouts.

#ifndef KTX_SRC_COMMON_ALIGN_H_
#define KTX_SRC_COMMON_ALIGN_H_

#include <cstddef>
#include <cstdint>
#include <utility>

namespace ktx {

inline constexpr std::size_t kCacheLineBytes = 64;

// Rounds `value` up to the next multiple of `alignment` (a power of two).
constexpr std::size_t AlignUp(std::size_t value, std::size_t alignment) {
  return (value + alignment - 1) & ~(alignment - 1);
}

constexpr bool IsAligned(const void* ptr, std::size_t alignment) {
  return (reinterpret_cast<std::uintptr_t>(ptr) & (alignment - 1)) == 0;
}

// Issues a software prefetch into L2 for every cache line of
// [data, data + bytes). Cheap to issue and never faults; the lines arrive
// while the caller does something else (or waits).
inline void PrefetchToL2(const void* data, std::size_t bytes) {
  const auto begin = reinterpret_cast<std::uintptr_t>(data);
  for (std::uintptr_t line = begin & ~(kCacheLineBytes - 1); line < begin + bytes;
       line += kCacheLineBytes) {
    __builtin_prefetch(reinterpret_cast<const void*>(line), /*rw=*/0, /*locality=*/2);
  }
}

// Allocates `bytes` aligned to `alignment` (power of two, >= sizeof(void*)).
// Returns nullptr on failure. Must be released with AlignedFree.
void* AlignedAlloc(std::size_t bytes, std::size_t alignment = kCacheLineBytes);
void AlignedFree(void* ptr);

// Owning, movable aligned byte buffer. Zero-initializes its contents.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(std::size_t bytes, std::size_t alignment = kCacheLineBytes);
  ~AlignedBuffer();

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& other) noexcept { *this = std::move(other); }
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept;

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  template <typename T>
  T* as() {
    return reinterpret_cast<T*>(data_);
  }
  template <typename T>
  const T* as() const {
    return reinterpret_cast<const T*>(data_);
  }

 private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ktx

#endif  // KTX_SRC_COMMON_ALIGN_H_
