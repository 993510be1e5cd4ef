#ifndef DOTPROV_COMMON_ARENA_H_
#define DOTPROV_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace dot {

/// Bump allocator for search state (DESIGN.md §13): the branch-and-bound
/// walker's per-depth arrays and the epoch DP's tables each come from one
/// arena that lives as long as the solve. `Allocate` bumps a pointer;
/// blocks are chained on demand and freed together when the arena dies.
///
/// Only trivially-destructible payloads: the arena runs no destructors.
/// Single-threaded, like the solves it backs.
class Arena {
 public:
  /// `initial_block_bytes` sizes the first block (grown geometrically when
  /// exhausted).
  explicit Arena(std::size_t initial_block_bytes = 1 << 16);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// `bytes` of storage aligned to `align` (a power of two). Never null;
  /// zero-byte requests return a valid unique pointer.
  void* Allocate(std::size_t bytes, std::size_t align);

  /// Uninitialized storage for `count` elements of trivially-destructible T.
  template <typename T>
  T* AllocateArray(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "the arena runs no destructors");
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  /// Live bytes handed out (alignment padding included). Nothing is freed
  /// before the arena dies, so this is also the high-water mark — the
  /// provenance counter's raw material.
  std::uint64_t bytes_peak() const { return bytes_peak_; }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
  };

  /// Makes `bytes` available, growing geometrically.
  void AddBlock(std::size_t bytes);

  std::vector<Block> blocks_;
  char* ptr_ = nullptr;  ///< bump pointer into blocks_.back()
  char* end_ = nullptr;
  std::size_t initial_block_bytes_;
  std::uint64_t bytes_peak_ = 0;
};

}  // namespace dot

#endif  // DOTPROV_COMMON_ARENA_H_
