#include "src/common/align.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "src/common/logging.h"

namespace ktx {

void* AlignedAlloc(std::size_t bytes, std::size_t alignment) {
  KTX_CHECK(alignment >= sizeof(void*) && (alignment & (alignment - 1)) == 0)
      << "bad alignment " << alignment;
  void* ptr = nullptr;
  if (posix_memalign(&ptr, alignment, AlignUp(bytes, alignment)) != 0) {
    return nullptr;
  }
  return ptr;
}

void AlignedFree(void* ptr) { std::free(ptr); }

AlignedBuffer::AlignedBuffer(std::size_t bytes, std::size_t alignment) : size_(bytes) {
  if (bytes == 0) {
    return;
  }
  data_ = static_cast<std::byte*>(AlignedAlloc(bytes, alignment));
  if (data_ == nullptr) {
    throw std::bad_alloc();
  }
  std::memset(data_, 0, bytes);
}

AlignedBuffer AlignedBuffer::ZeroPages(std::size_t bytes) {
  AlignedBuffer buf;
  if (bytes == 0) {
    return buf;
  }
  const std::size_t page = PageBytes();
  const std::size_t usable = AlignUp(bytes, page);
  void* map = mmap(nullptr, usable + page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) {
    throw std::bad_alloc();
  }
  auto* base = static_cast<std::byte*>(map);
  if (mprotect(base + usable, page, PROT_NONE) != 0) {  // the guard page
    munmap(map, usable + page);
    throw std::bad_alloc();
  }
  // Advisory: a kernel without THP refuses it, and the pages still work.
  (void)madvise(base, usable, MADV_NOHUGEPAGE);
  buf.data_ = base;
  buf.size_ = bytes;
  buf.mapped_bytes_ = usable + page;
  return buf;
}

void AlignedBuffer::Release() {
  if (mapped_bytes_ != 0) {
    munmap(data_, mapped_bytes_);
  } else {
    AlignedFree(data_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_bytes_ = 0;
}

AlignedBuffer& AlignedBuffer::operator=(AlignedBuffer&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = other.data_;
    size_ = other.size_;
    mapped_bytes_ = other.mapped_bytes_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_bytes_ = 0;
  }
  return *this;
}

std::size_t PageBytes() {
  static const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

std::size_t ResidentPages(const void* data, std::size_t bytes) {
  if (bytes == 0) {
    return 0;
  }
  const std::size_t page = PageBytes();
  const auto begin = reinterpret_cast<std::uintptr_t>(data) & ~(page - 1);
  const std::size_t span = reinterpret_cast<std::uintptr_t>(data) + bytes - begin;
  std::vector<unsigned char> pages(AlignUp(span, page) / page);
  KTX_CHECK_EQ(mincore(reinterpret_cast<void*>(begin), span, pages.data()), 0) << "mincore";
  std::size_t resident = 0;
  for (unsigned char p : pages) {
    resident += p & 1u;
  }
  return resident;
}

}  // namespace ktx
