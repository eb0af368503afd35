// Process-wide cache of exact feasibility verdicts and OPT values, keyed by
// the affine-canonical instance fingerprint (core/canonical.hpp), see
// DESIGN.md §11. FeasibilityOracle consults it per probe, and
// optimal_machines() consults it per search.
//
// Design:
//  * Sharded: 16 shards, each guarded by its own mutex (striped locking);
//    the shard index comes from the high bits of the slot hash, so
//    concurrent probes of different instances almost never contend.
//  * Set-associative with cheap eviction: each shard is a flat array of
//    entries grouped into kWays-entry sets. A lookup scans one set (four
//    probes, one cache line-ish); an insert overwrites round-robin within
//    its set when full. No allocation happens after configure(), no global
//    LRU bookkeeping -- eviction cost is O(1) and bounded-size is
//    structural.
//  * Exact and order-independent: entries store exact verdicts keyed by
//    (fingerprint, m) and exact OPT values keyed by fingerprint (stored as
//    m = kOptQuery). Any interleaving of lookups and inserts returns either
//    "miss" or the one true value, so cached runs compute byte-identical
//    results at any thread count, with the cache on or off.
//
// Tallies (exec-class, see obs/metrics.hpp): cache.hits, cache.misses,
// cache.inserts, cache.evictions.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "minmach/util/hash.hpp"

namespace minmach::util {

// Second-tier backing store the in-RAM cache falls through to (DESIGN.md
// §16): a RAM miss consults load() and backfills the RAM set on a hit; a
// RAM insert that changed a value forwards to store(). Keys are the raw
// (fingerprint, machine-key) pairs of the entry table, so verdicts, OPT
// values, and packed bounds all persist through one interface. The concrete
// implementation lives in store/pcache.hpp; this interface exists so util/
// never depends on the persistence layer. Implementations must be safe to
// call from concurrent lookups.
class CacheStore {
 public:
  virtual ~CacheStore() = default;
  [[nodiscard]] virtual std::optional<std::int64_t> load(
      const Digest128& fp, std::int64_t key) = 0;
  virtual void store(const Digest128& fp, std::int64_t key,
                     std::int64_t value) = 0;
};

class OptCache {
 public:
  // The process-wide instance every oracle consults. Disabled until
  // configure(true, ...) runs (so library users and the A/B benches see
  // uncached behaviour by default).
  static OptCache& global();

  // Enables/disables the cache and (re)sizes it to hold about `capacity`
  // entries (rounded to the shard x way geometry, minimum one set per
  // shard). Always clears. Not thread-safe against concurrent lookups;
  // call it from the driver setup path, like Registry::reset().
  void configure(bool enabled, std::size_t capacity);

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Drops every entry, keeping geometry and enabled state.
  void clear();

  // Entries currently resident (sums shard occupancy under the stripe
  // locks; intended for tests and reporting, not hot paths).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const;

  // Feasibility verdicts keyed by (fingerprint, machines).
  [[nodiscard]] std::optional<bool> lookup_feasible(const Digest128& fp,
                                                    std::int64_t machines);
  void insert_feasible(const Digest128& fp, std::int64_t machines,
                       bool feasible);

  // Exact OPT values keyed by fingerprint alone.
  [[nodiscard]] std::optional<std::int64_t> lookup_opt(const Digest128& fp);
  void insert_opt(const Digest128& fp, std::int64_t machines);

  // Certified OPT brackets lo <= OPT <= hi from the bound tier
  // (core/bounds.hpp), keyed by fingerprint alone. Every producer's bracket
  // is certified, so a lookup can only narrow a caller's own sandwich --
  // never change a verdict -- and inserts may overwrite with a tighter
  // bracket. Brackets with lo < 0 or hi above 2^31 - 1 are not stored (the
  // two halves share one packed value slot).
  [[nodiscard]] std::optional<std::pair<std::int64_t, std::int64_t>>
  lookup_bounds(const Digest128& fp);
  void insert_bounds(const Digest128& fp, std::int64_t lo, std::int64_t hi);

  // Attaches (or, with nullptr, detaches) the persistent second tier. The
  // pointer is borrowed: the caller keeps the store alive while attached
  // and must detach before destroying it. Like configure(), intended for
  // driver setup paths, though the hot paths read it with one relaxed load.
  void attach_store(CacheStore* store) {
    store_.store(store, std::memory_order_release);
  }
  [[nodiscard]] CacheStore* attached_store() const {
    return store_.load(std::memory_order_acquire);
  }

 private:
  // OPT and bracket entries share the table with verdicts under reserved
  // machine keys (no valid feasibility query has machines < 0).
  static constexpr std::int64_t kOptQuery = -1;
  static constexpr std::int64_t kBoundsQuery = -2;
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kWays = 4;

  struct Entry {
    Digest128 fp;
    std::int64_t machines = 0;
    std::int64_t value = 0;
    bool used = false;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::vector<Entry> entries;  // sets_ * kWays slots
    std::size_t victim = 0;      // round-robin eviction cursor
  };

  [[nodiscard]] std::optional<std::int64_t> lookup(const Digest128& fp,
                                                   std::int64_t machines);
  void insert(const Digest128& fp, std::int64_t machines, std::int64_t value);
  // RAM-only insert (no store forwarding); returns whether the write
  // changed anything (false on an identical refresh). Used both by insert()
  // and by lookup()'s disk-hit backfill, which must not echo the entry
  // back to the store it came from.
  bool insert_local(const Digest128& fp, std::int64_t machines,
                    std::int64_t value);

  std::atomic<bool> enabled_{false};
  std::atomic<CacheStore*> store_{nullptr};
  std::size_t sets_ = 0;  // per shard
  std::array<Shard, kShards> shards_;
};

}  // namespace minmach::util
