// Bump/arena allocator for the hot-path scratch of the exact-arithmetic
// kernels (DESIGN.md §10).
//
// The limb-tier BigInt kernels need short-lived magnitude buffers (an
// addition result, Knuth-D's normalized dividend/divisor, a quotient and
// remainder). The seed allocated a fresh std::vector for every one of
// them -- ~13M heap allocations in a single strong-lower-bound run. The
// arena replaces those with pointer bumps into thread-local chunks:
//
//   ArenaScope scope(thread_arena());
//   Limb* out = scope.alloc<Limb>(n);
//   ... compute into out, copy the canonical result out ...
//   // scope destructor rolls the arena back; nothing is freed.
//
// Lifetime rules:
//  * Arena memory is valid only while the allocating ArenaScope is alive.
//    Nothing that outlives the scope may point into it; callers copy the
//    final value into owned storage (BigInt's inline/spill limb store)
//    before the scope closes.
//  * Scopes nest like a stack (checkpoint/rollback of a bump pointer);
//    destroying an outer scope invalidates every inner allocation. The
//    BigInt kernels open at most one scope per operator call and recursion
//    (gcd -> div_mod -> kernels) nests naturally.
//  * Chunks are never returned to the OS until the Arena is destroyed
//    (thread exit for thread_arena()); rollback just rewinds the bump
//    pointer, so steady-state allocation cost is a pointer add.
//
// Legacy mode (set_substrate_legacy(true)) makes allocate() perform one
// real heap allocation per request, freed on rollback -- reproducing the
// seed's per-temporary allocation profile. bench/m01_memory_substrate.cpp
// uses it as the pre-PR baseline the acceptance thresholds are measured
// against. The flag also switches the simulator's run pooling and the flow
// layer's buffer reuse off; see the call sites in sim/engine.cpp and
// flow/dinic.hpp.
//
// Determinism: the "mem.arena_bytes" / "mem.heap_allocs" tallies count
// *requests* (a pure function of the workload). Physical chunk growth is
// thread-local warm-up state -- it depends on which tasks share a thread --
// so it is deliberately kept out of the drained tallies and only surfaces
// in Arena::stats() for local inspection.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "minmach/obs/metrics.hpp"

namespace minmach::util {

// Global switch: true restores the seed's allocation behaviour (fresh heap
// block per temporary, no simulator pooling, no flow buffer reuse). Only
// the memory bench flips it; it defaults to false everywhere else.
// Header-inline so the read compiles down to a single load on the hot path
// (the kernels consult it tens of millions of times per run). Relaxed is
// enough: the bench flips it only between single-threaded measurement
// phases, never concurrently with kernel work.
namespace detail {
inline std::atomic<bool> g_substrate_legacy{false};
}  // namespace detail

[[nodiscard]] inline bool substrate_legacy() noexcept {
  return detail::g_substrate_legacy.load(std::memory_order_relaxed);
}
inline void set_substrate_legacy(bool legacy) noexcept {
  detail::g_substrate_legacy.store(legacy, std::memory_order_relaxed);
}

class Arena {
 public:
  // Rollback token: a position in the chunk list plus the bump offset
  // there, and the legacy allocation stack depth.
  struct Marker {
    std::size_t chunk = 0;
    std::size_t offset = 0;
    std::size_t legacy_depth = 0;
  };

  struct Stats {
    std::uint64_t chunk_allocs = 0;   // physical chunk mallocs (lifetime)
    std::uint64_t bytes_reserved = 0; // sum of chunk sizes currently held
    std::uint64_t bytes_requested = 0;// logical bytes served via allocate()
  };

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() {
    for (Chunk& chunk : chunks_) ::operator delete(chunk.data);
    for (void* p : legacy_allocs_) ::operator delete(p);
  }

  // Returns `bytes` of uninitialized storage aligned for any limb/POD use
  // (16-byte granularity). Valid until the enclosing scope rolls back.
  void* allocate(std::size_t bytes) {
    bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
    MINMACH_OBS_TALLY_ADD(arena_bytes, bytes);
    stats_.bytes_requested += bytes;
    if (substrate_legacy()) [[unlikely]] {
      MINMACH_OBS_TALLY(heap_allocs);
      void* p = ::operator new(bytes);
      // The seed's temporaries were value-initialized vectors; keep the
      // baseline faithful by zeroing like std::vector<Limb>(n) did.
      std::memset(p, 0, bytes);
      legacy_allocs_.push_back(p);
      return p;
    }
    if (active_ < chunks_.size()) [[likely]] {
      Chunk& chunk = chunks_[active_];
      if (chunk.used + bytes <= chunk.size) [[likely]] {
        void* p = chunk.data + chunk.used;
        chunk.used += bytes;
        return p;
      }
    }
    return allocate_slow(bytes);
  }

  // Typed convenience for trivially-destructible scratch arrays.
  template <typename T>
  T* alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T> &&
                      alignof(T) <= kAlign,
                  "arena scratch must not need destruction");
    return static_cast<T*>(allocate(count * sizeof(T)));
  }

  [[nodiscard]] Marker checkpoint() const {
    return {active_,
            active_ < chunks_.size() ? chunks_[active_].used : 0,
            legacy_allocs_.size()};
  }

  void rollback(const Marker& marker) {
    while (legacy_allocs_.size() > marker.legacy_depth) {
      ::operator delete(legacy_allocs_.back());
      legacy_allocs_.pop_back();
    }
    active_ = marker.chunk;
    if (active_ < chunks_.size()) chunks_[active_].used = marker.offset;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kAlign = 16;
  static constexpr std::size_t kMinChunk = std::size_t{32} << 10;  // 32 KiB
  static constexpr std::size_t kMaxChunk = std::size_t{1} << 20;   // 1 MiB

  struct Chunk {
    std::byte* data = nullptr;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void* allocate_slow(std::size_t bytes) {
    // Advance through chunks retained from a previous high-water mark;
    // entering one resets its bump offset (its contents died at rollback).
    while (active_ + 1 < chunks_.size()) {
      Chunk& chunk = chunks_[++active_];
      chunk.used = 0;
      if (bytes <= chunk.size) {
        chunk.used = bytes;
        return chunk.data;
      }
    }
    std::size_t size = chunks_.empty()
                           ? kMinChunk
                           : std::min(kMaxChunk, chunks_.back().size * 2);
    if (size < bytes) size = bytes;
    Chunk chunk{static_cast<std::byte*>(::operator new(size)), size, bytes};
    chunks_.push_back(chunk);
    active_ = chunks_.size() - 1;
    ++stats_.chunk_allocs;
    stats_.bytes_reserved += size;
    return chunk.data;
  }

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;
  std::vector<void*> legacy_allocs_;
  Stats stats_;
};

// The per-thread arena every arithmetic kernel draws scratch from.
Arena& thread_arena() noexcept;

// RAII checkpoint/rollback over an arena. Everything allocated through the
// scope (or directly from the arena while the scope is the innermost one)
// is reclaimed when the scope dies.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena)
      : arena_(arena), marker_(arena.checkpoint()) {}
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;
  ~ArenaScope() { arena_.rollback(marker_); }

  template <typename T>
  T* alloc(std::size_t count) {
    return arena_.alloc<T>(count);
  }
  [[nodiscard]] Arena& arena() { return arena_; }

 private:
  Arena& arena_;
  Arena::Marker marker_;
};

}  // namespace minmach::util
