// Cache-line / AMX-tile aligned allocation helpers.
//
// The AMX tiling-aware memory layout (paper §3.2) requires every packed weight
// tile to start on a 64-byte boundary so a single TILELOADD streams whole cache
// lines. AlignedBuffer is the owning allocation primitive used by the tensor
// library and by the prepacked expert-weight layouts.
//
// Two ways to get one. The constructor allocates from the heap and zeroes
// every byte, so the whole buffer is resident at once and a freed buffer's
// memory is recycled by the allocator (scratch, weights, packs).
// AlignedBuffer::ZeroPages maps fresh anonymous pages instead: the OS
// zero-fills each page on its first write, so only touched pages cost
// memory. That suits a large reservation that fills slowly or never, such
// as the KV block pool's row storage, its only user. It does not suit
// scratch: every first write to a page takes a page fault, and a dead
// buffer's pages go back to the OS, to be faulted in again next time.

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

// Bytes per page of anonymous memory (sysconf(_SC_PAGESIZE)).
std::size_t PageBytes();

// Pages overlapping [data, data + bytes) that are backed by physical memory
// right now (mincore(2)). Lets tests see what a buffer has committed.
std::size_t ResidentPages(const void* data, std::size_t bytes);

// Owning, movable aligned byte buffer. Zero-initializes its contents.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  // Heap storage, memset to zero (resident at once).
  explicit AlignedBuffer(std::size_t bytes, std::size_t alignment = kCacheLineBytes);
  // Page-aligned anonymous pages, zero-filled by the OS on first touch, so a
  // page commits when it is first written. Huge pages are declined
  // (MADV_NOHUGEPAGE) so the commit unit stays one base page whatever the
  // host's THP mode. A PROT_NONE guard page follows the page-rounded end:
  // an overrun faults even without ASan, whose redzones do not cover
  // mappings. Released with munmap. Throws std::bad_alloc if mmap fails.
  static AlignedBuffer ZeroPages(std::size_t bytes);
  ~AlignedBuffer() { Release(); }

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
  void Release();

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t mapped_bytes_ = 0;  // ZeroPages: mapping length, guard page included
};

}  // namespace ktx

#endif  // KTX_SRC_COMMON_ALIGN_H_
