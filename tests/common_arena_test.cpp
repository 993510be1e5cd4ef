// The bump allocator behind the branch-and-bound walker and the epoch DP
// (common/arena.h): alignment and non-null guarantees, no overlap across
// chained blocks, and the bytes_peak provenance counter.

#include "common/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

namespace dot {
namespace {

bool IsAligned(const void* p, std::size_t align) {
  return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

TEST(ArenaTest, AllocationsAreAlignedAndWritable) {
  Arena arena;
  for (std::size_t align : {1u, 2u, 4u, 8u, 16u, 64u}) {
    for (std::size_t bytes : {1u, 3u, 7u, 100u, 4096u}) {
      void* p = arena.Allocate(bytes, align);
      ASSERT_NE(p, nullptr) << "bytes=" << bytes << " align=" << align;
      EXPECT_TRUE(IsAligned(p, align)) << "bytes=" << bytes;
      std::memset(p, 0xab, bytes);
    }
  }
}

TEST(ArenaTest, ZeroByteAllocationsAreDistinctValidPointers) {
  Arena arena;
  void* a = arena.Allocate(0, 1);
  void* b = arena.Allocate(0, 1);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(b, nullptr);
}

TEST(ArenaTest, AllocationsDoNotOverlap) {
  Arena arena(/*initial_block_bytes=*/64);  // forces several block chains
  std::vector<unsigned char*> chunks;
  for (int i = 0; i < 200; ++i) {
    unsigned char* p = arena.AllocateArray<unsigned char>(17);
    std::memset(p, i & 0xff, 17);
    chunks.push_back(p);
  }
  for (size_t i = 0; i < chunks.size(); ++i) {
    for (int j = 0; j < 17; ++j) {
      ASSERT_EQ(chunks[i][j], static_cast<unsigned char>(i & 0xff))
          << "chunk " << i << " byte " << j << " was clobbered";
    }
  }
}

TEST(ArenaTest, AllocateArrayReturnsTypedAlignedStorage) {
  Arena arena;
  double* d = arena.AllocateArray<double>(31);
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(IsAligned(d, alignof(double)));
  for (int i = 0; i < 31; ++i) d[i] = static_cast<double>(i);
  for (int i = 0; i < 31; ++i) EXPECT_EQ(d[i], static_cast<double>(i));
}

TEST(ArenaTest, BytesPeakTracksTheLiveHighWaterMark) {
  Arena arena(/*initial_block_bytes=*/128);
  arena.Allocate(1000, 8);
  const std::uint64_t peak = arena.bytes_peak();
  EXPECT_GE(peak, 1000u);
  // Nothing is freed before the arena dies: every later allocation,
  // including one that chains a new block, raises the mark by at least
  // its size.
  arena.Allocate(10, 8);
  EXPECT_GE(arena.bytes_peak(), peak + 10);
  arena.Allocate(5000, 8);
  EXPECT_GE(arena.bytes_peak(), peak + 5010);
}

}  // namespace
}  // namespace dot
