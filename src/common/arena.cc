#include "common/arena.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"

namespace dot {

Arena::Arena(std::size_t initial_block_bytes)
    : initial_block_bytes_(std::max<std::size_t>(initial_block_bytes, 64)) {}

void Arena::AddBlock(std::size_t bytes) {
  std::size_t size = blocks_.empty() ? initial_block_bytes_
                                     : blocks_.back().size * 2;
  size = std::max(size, bytes);
  Block block;
  block.data = std::make_unique<char[]>(size);
  block.size = size;
  blocks_.push_back(std::move(block));
  ptr_ = blocks_.back().data.get();
  end_ = ptr_ + size;
}

void* Arena::Allocate(std::size_t bytes, std::size_t align) {
  DOT_CHECK(align != 0 && (align & (align - 1)) == 0)
      << "alignment must be a power of two";
  auto addr = reinterpret_cast<std::uintptr_t>(ptr_);
  std::uintptr_t aligned = (addr + align - 1) & ~(align - 1);
  std::size_t needed = bytes + static_cast<std::size_t>(aligned - addr);
  if (ptr_ == nullptr || needed > static_cast<std::size_t>(end_ - ptr_)) {
    AddBlock(bytes + align);
    addr = reinterpret_cast<std::uintptr_t>(ptr_);
    aligned = (addr + align - 1) & ~(align - 1);
    needed = bytes + static_cast<std::size_t>(aligned - addr);
  }
  void* result = reinterpret_cast<void*>(aligned);
  ptr_ += needed;
  bytes_peak_ += needed;
  return result;
}

}  // namespace dot
