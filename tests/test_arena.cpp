// Tests for the bump/arena allocator behind the exact-arithmetic scratch
// (util/arena.hpp): checkpoint/rollback semantics, scope nesting,
// chunk-spanning and oversized allocations, and the mem.* observability
// tallies. These run under the sanitize preset in CI, so every byte
// written here is ASan/UBSan-checked (out-of-bounds scratch would fail
// the suite).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "minmach/obs/metrics.hpp"
#include "minmach/util/arena.hpp"
#include "minmach/util/bigint.hpp"

namespace minmach::util {
namespace {

TEST(Arena, RollbackRewindsTheBumpPointer) {
  Arena arena;
  Arena::Marker mark = arena.checkpoint();
  void* first = arena.allocate(64);
  std::memset(first, 0xAB, 64);
  arena.rollback(mark);
  // Same storage is handed out again: the rollback rewound, not freed.
  void* second = arena.allocate(64);
  EXPECT_EQ(first, second);
}

TEST(Arena, ScopesNestLikeAStack) {
  Arena arena;
  ArenaScope outer(arena);
  int* kept = outer.alloc<int>(4);
  kept[0] = 41;
  void* inner_storage = nullptr;
  {
    ArenaScope inner(arena);
    int* scratch = inner.alloc<int>(4);
    scratch[0] = 7;
    inner_storage = scratch;
  }
  // The inner scope's storage is reclaimed for the next allocation while
  // the outer scope's allocation survives untouched.
  int* next = outer.alloc<int>(4);
  EXPECT_EQ(static_cast<void*>(next), inner_storage);
  kept[0] += 1;
  EXPECT_EQ(kept[0], 42);
}

TEST(Arena, AllocationsAreAlignedForAnyScratchType) {
  Arena arena;
  ArenaScope scope(arena);
  // Odd-sized requests must not misalign the next block.
  (void)scope.alloc<unsigned char>(3);
  std::uint64_t* limbs = scope.alloc<std::uint64_t>(2);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(limbs) % 16, 0u);
  limbs[0] = 1;
  limbs[1] = 2;
  EXPECT_EQ(limbs[0] + limbs[1], 3u);
}

TEST(Arena, ChunkSpanningAllocationsStayDistinctAndWritable) {
  Arena arena;
  ArenaScope scope(arena);
  // 200 KiB across ~1 KiB blocks forces several chunk boundaries (the
  // first chunk is 32 KiB); every block must remain valid while the scope
  // lives, even after the arena grows.
  constexpr int kBlocks = 200;
  constexpr std::size_t kBlockSize = 1024;
  std::vector<unsigned char*> blocks;
  blocks.reserve(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    unsigned char* p = scope.alloc<unsigned char>(kBlockSize);
    std::memset(p, i & 0xFF, kBlockSize);
    blocks.push_back(p);
  }
  for (int i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(blocks[i][0], static_cast<unsigned char>(i & 0xFF));
    EXPECT_EQ(blocks[i][kBlockSize - 1], static_cast<unsigned char>(i & 0xFF));
  }
  EXPECT_GT(arena.stats().chunk_allocs, 1u);
}

TEST(Arena, OversizedRequestLargerThanMaxChunkIsServed) {
  Arena arena;
  ArenaScope scope(arena);
  // 3 MiB exceeds the 1 MiB chunk-growth cap: the arena must mint a
  // dedicated chunk of exactly the requested size class.
  const std::size_t count = (std::size_t{3} << 20) / sizeof(std::uint64_t);
  std::uint64_t* p = scope.alloc<std::uint64_t>(count);
  p[0] = 1;
  p[count - 1] = 2;  // touch both ends: ASan checks the full extent
  EXPECT_EQ(p[0] + p[count - 1], 3u);
}

TEST(Arena, RollbackAcrossChunksRetainsHighWaterStorage) {
  Arena arena;
  Arena::Marker mark = arena.checkpoint();
  for (int i = 0; i < 100; ++i) (void)arena.allocate(4096);
  const std::uint64_t reserved = arena.stats().bytes_reserved;
  const std::uint64_t chunks = arena.stats().chunk_allocs;
  arena.rollback(mark);
  // Chunks are never returned mid-life; the reservation is the high-water
  // mark...
  EXPECT_EQ(arena.stats().bytes_reserved, reserved);
  // ...and refilling to the same depth reuses it without new chunk mallocs.
  for (int i = 0; i < 100; ++i) (void)arena.allocate(4096);
  EXPECT_EQ(arena.stats().bytes_reserved, reserved);
  EXPECT_EQ(arena.stats().chunk_allocs, chunks);
}

#if MINMACH_OBS_ENABLED
TEST(Arena, SpillAndArenaTalliesFeedTheRegistry) {
  obs::Registry& r = obs::Registry::global();
  (void)r.snapshot();  // drain any residue from earlier tests
  r.reset();
  // A multiplication chain past the 4-limb inline buffer forces limb
  // spills (mem.bigint_spill + mem.heap_allocs) and draws Knuth/product
  // scratch from the thread arena (mem.arena_bytes).
  BigInt v(1);
  for (int i = 0; i < 24; ++i) v *= BigInt((std::int64_t{1} << 61) + 3);
  // gcd of two multi-limb values runs Lehmer's loop entirely on arena
  // scratch (its operand and step buffers, and div_mod_mag's normalized
  // dividend/divisor/quotient on a full-precision step).
  EXPECT_FALSE(BigInt::gcd(v, v + BigInt(1)).is_zero());
  obs::Snapshot snap = r.snapshot();
  // mem.* is execution-class, so the tallies land in the exec maps.
  EXPECT_GT(snap.exec_counters.at("mem.arena_bytes"), 0u);
  EXPECT_GT(snap.exec_counters.at("mem.bigint_spill"), 0u);
  EXPECT_GE(snap.exec_counters.at("mem.heap_allocs"),
            snap.exec_counters.at("mem.bigint_spill"));
  r.reset();
}
#endif

}  // namespace
}  // namespace minmach::util
