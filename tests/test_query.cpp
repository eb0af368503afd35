// The OPT cache (DESIGN.md section 11): affine-canonical fingerprints and
// the sharded global OPT cache the oracle consults. The load bearing
// property throughout is EXACTNESS -- cached answers must equal the
// independent dense Horn network's (reference_horn.hpp), with the cache on
// or off, at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "minmach/core/bounds.hpp"
#include "minmach/core/canonical.hpp"
#include "minmach/core/transforms.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/util/opt_cache.hpp"
#include "minmach/util/rng.hpp"
#include "reference_horn.hpp"

namespace minmach {
namespace {

// Every test leaves the process-wide cache the way library users find it:
// disabled. (gtest runs all suites in one process.)
class QueryTest : public ::testing::Test {
 protected:
  void TearDown() override { util::OptCache::global().configure(false, 64); }
};

Instance permuted(const Instance& in, std::uint64_t seed) {
  std::vector<Job> jobs = in.jobs();
  Rng rng(seed);
  for (std::size_t i = jobs.size(); i > 1; --i)
    std::swap(jobs[i - 1], jobs[rng.uniform_int(0, static_cast<std::int64_t>(
                                                        i - 1))]);
  return Instance(std::move(jobs));
}

TEST_F(QueryTest, FingerprintInvariantUnderAffineMapsAndPermutations) {
  Rng rng(7);
  GenConfig config;
  config.n = 12;
  for (int trial = 0; trial < 8; ++trial) {
    const Instance base = gen_general(rng, config);
    const util::Digest128 fp = canonical_fingerprint(base);

    // A handful of exact affine images t -> offset + scale * t.
    const Rat offsets[] = {Rat(0), Rat(17), Rat(-5, 3), Rat(1, 7)};
    const Rat scales[] = {Rat(1), Rat(3), Rat(2, 5), Rat(7, 2)};
    for (const Rat& offset : offsets) {
      for (const Rat& scale : scales) {
        const Instance image = affine(base, offset, scale);
        EXPECT_EQ(canonical_fingerprint(image), fp);
        EXPECT_EQ(canonicalize(image), canonicalize(base));
        // Permuting the affine image's job order must not matter either.
        const Instance shuffled =
            permuted(image, static_cast<std::uint64_t>(trial) * 31 + 1);
        EXPECT_EQ(canonical_fingerprint(shuffled), fp);
      }
    }
  }
}

TEST_F(QueryTest, FingerprintSeparatesDistinctInstances) {
  Rng rng(11);
  GenConfig config;
  config.n = 10;
  std::set<util::Digest128> fingerprints;
  std::size_t instances = 0;
  for (int trial = 0; trial < 24; ++trial) {
    Instance in = gen_general(rng, config);
    fingerprints.insert(canonical_fingerprint(in));
    ++instances;
  }
  EXPECT_EQ(fingerprints.size(), instances);

  // A non-affine perturbation (one processing time nudged) must move the
  // fingerprint even though every other value is unchanged.
  Instance in = gen_general(rng, config);
  std::vector<Job> jobs = in.jobs();
  jobs[0].processing = jobs[0].processing * Rat(99, 100);
  EXPECT_NE(canonical_fingerprint(Instance(jobs)), canonical_fingerprint(in));
}

std::int64_t oracle_opt(const Instance& in) {
  return FeasibilityOracle(in).optimal_machines();
}

TEST_F(QueryTest, CacheOnAndOffAgreeAcrossAllOracleOptionCombos) {
  Rng rng(13);
  GenConfig config;
  config.n = 16;
  std::vector<Instance> pool;
  std::vector<std::int64_t> reference;
  for (int trial = 0; trial < 4; ++trial) {
    pool.push_back(gen_general(rng, config));
    reference.push_back(reference::horn_optimal_machines(pool.back()));
  }

  // Tier on and off: with it off every uncached answer comes from network
  // probes, with it on from the sandwich where it pinches.
  for (bool tier : {true, false}) {
    set_bounds_tier_enabled(tier);
    util::OptCache::global().configure(false, 1 << 10);
    for (std::size_t i = 0; i < pool.size(); ++i)
      EXPECT_EQ(oracle_opt(pool[i]), reference[i]) << "tier=" << tier;

    // Cache enabled and cleared: the first pass fills, the second hits;
    // both must reproduce the reference exactly.
    util::OptCache::global().configure(true, 1 << 10);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < pool.size(); ++i)
        EXPECT_EQ(oracle_opt(pool[i]), reference[i])
            << "tier=" << tier << " pass=" << pass;
    }
  }
  set_bounds_tier_enabled(true);
}

TEST_F(QueryTest, SecondQueryIsAnOptCacheHit) {
  Rng rng(17);
  GenConfig config;
  config.n = 14;
  const Instance in = gen_general(rng, config);
  util::OptCache::global().configure(true, 1 << 10);
  obs::Registry& registry = obs::Registry::global();
  const auto hits = [&] { return registry.counter("cache.hits").value(); };

  FeasibilityOracle first(in);
  const std::int64_t opt = first.optimal_machines();
  EXPECT_EQ(opt, reference::horn_optimal_machines(in));

  // The second oracle answers from the cached OPT: one hit, no probe.
  const std::uint64_t hits_before = hits();
  FeasibilityOracle second(in);
  EXPECT_EQ(second.optimal_machines(), opt);
  EXPECT_EQ(second.probes_executed(), 0u);
  EXPECT_EQ(hits(), hits_before + 1);

  // An affine image of the instance is the SAME cache line: that is the
  // entire point of the canonical fingerprint.
  FeasibilityOracle image(affine(in, Rat(5, 3), Rat(7, 4)));
  EXPECT_EQ(image.optimal_machines(), opt);
  EXPECT_EQ(image.probes_executed(), 0u);
  EXPECT_EQ(hits(), hits_before + 2);
}

// With the cache enabled the oracle normalizes lazily, so one answered
// from the cache must still give exact bounds and accept edits.
TEST_F(QueryTest, CacheAnsweredOracleStaysUsable) {
  Rng rng(29);
  GenConfig config;
  config.n = 12;
  const Instance in = gen_general(rng, config);
  const std::int64_t opt = reference::horn_optimal_machines(in);
  FeasibilityOracle uncached(in);
  const std::int64_t lb = uncached.load_lower_bound();
  const BoundSandwich bracket = uncached.bound_sandwich();

  util::OptCache::global().configure(true, 1 << 10);
  EXPECT_EQ(oracle_opt(in), opt);  // fills the cache
  FeasibilityOracle cached(in);
  EXPECT_EQ(cached.optimal_machines(), opt);
  EXPECT_EQ(cached.probes_executed(), 0u);
  EXPECT_TRUE(cached.feasible(opt));
  if (opt > 1) {
    EXPECT_FALSE(cached.feasible(opt - 1));
  }
  EXPECT_EQ(cached.load_lower_bound(), lb);
  const BoundSandwich sandwich = cached.bound_sandwich();
  EXPECT_EQ(sandwich.certificate.load_lb, bracket.certificate.load_lb);
  EXPECT_LE(sandwich.lo, opt);
  EXPECT_LE(opt, sandwich.hi);

  // Edits after a cache hit land on the same arrays a cache-off oracle
  // would have built.
  const Job extra{Rat(3), Rat(9), Rat(5)};
  std::vector<Job> jobs = in.jobs();
  jobs.push_back(extra);
  FeasibilityOracle edited(in);
  EXPECT_EQ(edited.optimal_machines(), opt);
  (void)edited.insert_job(extra);
  EXPECT_EQ(edited.optimal_machines(),
            reference::horn_optimal_machines(Instance(jobs)));
  edited.remove_job(0);
  jobs.erase(jobs.begin());
  EXPECT_EQ(edited.optimal_machines(),
            reference::horn_optimal_machines(Instance(jobs)));
}

TEST_F(QueryTest, EvictionKeepsTheCacheBoundedAndExact) {
  util::OptCache& cache = util::OptCache::global();
  cache.configure(true, 64);  // minimum geometry: 16 shards x 1 set x 4 ways
  ASSERT_EQ(cache.capacity(), 64u);

  for (std::uint64_t i = 0; i < 1000; ++i) {
    const util::Digest128 fp{util::mix64(i * 2 + 1), util::mix64(i * 3 + 7)};
    cache.insert_opt(fp, static_cast<std::int64_t>(i));
    // Re-inserting the same key must dedupe, not spawn a twin entry.
    cache.insert_opt(fp, static_cast<std::int64_t>(i));
    ASSERT_LE(cache.size(), cache.capacity());
    // Whatever survives must be exact: a hit returns the one true value.
    const auto hit = cache.lookup_opt(fp);
    if (hit) {
      EXPECT_EQ(*hit, static_cast<std::int64_t>(i));
    }
  }
  EXPECT_EQ(cache.size(), cache.capacity());  // fully warm after 1000 inserts

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.enabled());
}

TEST_F(QueryTest, SpeculationAndCacheComposeOnDegenerateInstances) {
  // Degenerate instances through a cache-enabled oracle: the empty and the
  // malformed instance never reach the cache, a single job caches as usual.
  util::OptCache::global().configure(true, 1 << 10);

  EXPECT_EQ(oracle_opt(Instance()), 0);

  std::vector<Job> one(1);
  one[0].release = Rat(0);
  one[0].deadline = Rat(2);
  one[0].processing = Rat(1);
  EXPECT_EQ(oracle_opt(Instance(one)), 1);
  EXPECT_EQ(oracle_opt(Instance(one)), 1);  // cached

  std::vector<Job> bad(1);
  bad[0].release = Rat(1);
  bad[0].deadline = Rat(1);
  bad[0].processing = Rat(1);
  EXPECT_THROW((void)oracle_opt(Instance(bad)), std::invalid_argument);
}

TEST_F(QueryTest, ConcurrentCachedQueriesStayConsistent) {
  Rng rng(23);
  GenConfig config;
  config.n = 12;
  std::vector<Instance> pool;
  for (int trial = 0; trial < 6; ++trial) pool.push_back(gen_general(rng, config));

  std::vector<std::int64_t> reference;
  for (const Instance& in : pool)
    reference.push_back(reference::horn_optimal_machines(in));

  // Four threads hammer the same instance pool through the cache -- every
  // interleaving of misses, fills, hits, and evictions must return the
  // reference answer.
  util::OptCache::global().configure(true, 1 << 10);
  const int threads = 4, reps = 8;
  std::vector<std::vector<std::int64_t>> got(
      threads, std::vector<std::int64_t>(pool.size(), -1));
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int rep = 0; rep < reps; ++rep)
        for (std::size_t i = 0; i < pool.size(); ++i)
          got[static_cast<std::size_t>(t)][i] = oracle_opt(pool[i]);
      obs::drain_hot_tallies();
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < threads; ++t)
    EXPECT_EQ(got[static_cast<std::size_t>(t)], reference) << "thread " << t;
}

}  // namespace
}  // namespace minmach
