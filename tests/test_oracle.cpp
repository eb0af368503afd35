// Differential tests for the scaled OPT oracle: the segment-tree-compressed
// network, warm-started probes, and the sweep load bound must agree exactly
// with an independent dense Horn network (reference_horn.hpp) and with the
// pair-scan load bound, on every instance family, including
// non-integer-grid (rational mode) and adversarial strong-lower-bound
// instances, and from concurrent threads. The bound sandwich may answer a
// batch oracle's queries without building the network at all, so each test
// also checks the network's own verdicts through probe().
#include "minmach/flow/feasibility.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "minmach/adversary/strong_lb.hpp"
#include "minmach/algos/nonpreemptive.hpp"
#include "minmach/core/contribution.hpp"
#include "minmach/core/transforms.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/util/rng.hpp"
#include "reference_horn.hpp"

namespace minmach {
namespace {

Job mk(std::int64_t r, std::int64_t d, std::int64_t p) {
  return {Rat(r), Rat(d), Rat(p)};
}

// Scales all times by 1/(two ~2^21 primes) so the denominator LCM blows
// past the integer-grid guard and the oracle runs in exact-rational mode.
// OPT is invariant under uniform time scaling.
Instance force_rational_mode(const Instance& in) {
  return affine(in, Rat(0), Rat(1, BigInt(2097143) * BigInt(2097169)));
}

std::vector<Instance> test_instances() {
  std::vector<Instance> out;
  GenConfig small{12, 40, 12, 2};
  GenConfig medium{40, 120, 30, 4};
  for (std::uint64_t seed : {7u, 21u, 99u}) {
    Rng rng(seed);
    out.push_back(gen_general(rng, small));
    out.push_back(gen_general(rng, medium));
    out.push_back(gen_agreeable(rng, medium));
    out.push_back(gen_laminar(rng, medium));
    out.push_back(gen_unit(rng, medium));
    out.push_back(gen_loose(rng, medium, Rat(1, 2)));
    out.push_back(gen_tight(rng, small, Rat(3, 4)));
  }
  // Hand-picked edge cases.
  out.push_back(Instance{});                           // empty
  out.push_back(Instance({mk(0, 1, 1)}));              // single job
  out.push_back(Instance({mk(0, 1, 1), mk(0, 1, 1), mk(0, 1, 1)}));
  out.push_back(Instance({mk(0, 10, 10), mk(2, 5, 3), mk(7, 9, 1)}));
  // Rational mode: scaled copies with huge denominators.
  {
    Rng rng(5);
    out.push_back(force_rational_mode(gen_general(rng, small)));
    out.push_back(force_rational_mode(gen_agreeable(rng, small)));
  }
  // Adversarial: the strong lower bound's released instance.
  {
    FitPolicy policy(FitRule::kFirstFit);
    out.push_back(run_strong_lower_bound(policy, 3).instance);
  }
  return out;
}

// The network's own verdicts around OPT, through probe(): one descending
// step (a cold restart) between ascending ones (warm starts). `opt` is the
// reference network's, so m >= opt is its verdict on m.
void expect_probes_match(const Instance& instance, std::int64_t opt) {
  FeasibilityOracle oracle(instance);
  for (std::int64_t m : {opt + 1, opt - 1, opt}) {
    if (m <= 0) continue;
    EXPECT_EQ(oracle.probe(m), m >= opt) << "m=" << m << " opt=" << opt;
  }
}

TEST(SweepLoadBound, MatchesReferenceOnAllFamilies) {
  for (const Instance& instance : test_instances()) {
    LoadBound fast = load_bound_single_interval(instance);
    LoadBound slow = load_bound_single_interval_reference(instance);
    EXPECT_EQ(fast.machines, slow.machines);
    // The sweep uses the same first-witness-in-(a,b)-scan-order rule.
    EXPECT_EQ(fast.witness.to_string(), slow.witness.to_string());
  }
}

TEST(SweepLoadBound, MalformedFallsBackToReference) {
  // Negative laxity: the sweep precondition fails; both entry points must
  // still agree (the fast path falls back to the reference scan).
  Instance malformed({mk(0, 1, 5), mk(0, 3, 1)});
  ASSERT_FALSE(malformed.well_formed());
  LoadBound fast = load_bound_single_interval(malformed);
  LoadBound slow = load_bound_single_interval_reference(malformed);
  EXPECT_EQ(fast.machines, slow.machines);
  EXPECT_EQ(fast.witness.to_string(), slow.witness.to_string());
}

TEST(ReferenceHorn, OptimalMachinesAgreesOnAllFamilies) {
  for (const Instance& instance : test_instances()) {
    const std::int64_t reference = reference::horn_optimal_machines(instance);
    FeasibilityOracle oracle(instance);
    EXPECT_EQ(oracle.optimal_machines(), reference) << "n=" << instance.size();
    EXPECT_EQ(optimal_migratory_machines(instance), reference);
    expect_probes_match(instance, reference);
  }
}

TEST(ReferenceHorn, FeasibleAgreesProbeByProbe) {
  // Mixed ascending/descending probe sequences exercise warm starts, cold
  // restarts, and the memo; every verdict must equal the reference
  // network's, from feasible() and from the network's own probe(), which
  // must not disturb the memo it bypasses.
  Rng rng(1234);
  GenConfig config{30, 90, 25, 3};
  for (int trial = 0; trial < 4; ++trial) {
    Instance instance = gen_general(rng, config);
    const std::int64_t opt = reference::horn_optimal_machines(instance);
    std::vector<std::int64_t> sequence = {opt + 2, 1,       opt,
                                          opt - 1, opt + 1, opt};
    FeasibilityOracle oracle(instance);
    for (std::int64_t m : sequence) {
      if (m <= 0) continue;
      EXPECT_EQ(oracle.feasible(m), m >= opt) << "m=" << m << " opt=" << opt;
      EXPECT_EQ(oracle.probe(m), m >= opt) << "m=" << m << " opt=" << opt;
    }
    EXPECT_TRUE(reference::horn_feasible(instance, opt));
    if (opt > 1) {
      EXPECT_FALSE(reference::horn_feasible(instance, opt - 1));
    }
  }
}

TEST(Compression, SharedTreeNodesDoNotLeakSegmentCaps) {
  // Regression for the naive tree compression (job -> canonical nodes with
  // uncapped pass-through): jobs (0,2,2),(0,1,1),(0,1,1) on 2 machines are
  // infeasible (the load of [0,1) is 3), but a network that loses the
  // per-(job,segment) cap admits flow 4 and wrongly reports feasible. The
  // hybrid compression must keep the dense verdict.
  Instance instance({mk(0, 2, 2), mk(0, 1, 1), mk(0, 1, 1)});
  // The bound sandwich pinches at 3 here, so only probe() reaches the
  // compressed network.
  EXPECT_FALSE(reference::horn_feasible(instance, 2));
  EXPECT_TRUE(reference::horn_feasible(instance, 3));
  FeasibilityOracle oracle(instance);
  EXPECT_FALSE(oracle.feasible(2));
  EXPECT_TRUE(oracle.feasible(3));
  EXPECT_EQ(oracle.optimal_machines(), 3);
  FeasibilityOracle network(instance);
  EXPECT_FALSE(network.probe(2));
  EXPECT_TRUE(network.probe(3));
}

TEST(Compression, TightJobsDegradeToDirectEdges) {
  // Zero-laxity jobs make every in-window segment shorter than p_j, so the
  // compressed network is all direct capped edges; verdicts must still
  // match the dense network.
  Instance instance({mk(0, 4, 4), mk(1, 3, 2), mk(0, 2, 2), mk(2, 4, 2)});
  const std::int64_t dense = reference::horn_optimal_machines(instance);
  FeasibilityOracle fast(instance);
  EXPECT_EQ(fast.optimal_machines(), dense);
  expect_probes_match(instance, dense);
}

TEST(Oracle, WarmStartSurvivesDescendingProbes) {
  // A descending probe forces a cold restart; later ascending probes must
  // warm-start from the restarted flow and stay correct. The first probe
  // runs on the freshly built network, whose zero flow any machine count
  // extends (warm); the descent to opt - 1 restarts cold; the ascent back
  // to opt resumes warm. (feasible() would run none of them: the bound
  // sandwich pinches on this instance.)
  Rng rng(77);
  Instance instance = gen_general(rng, GenConfig{25, 80, 20, 2});
  const std::int64_t opt = reference::horn_optimal_machines(instance);
  ASSERT_GT(opt, 1);
  obs::Registry& registry = obs::Registry::global();
  const std::uint64_t cold0 = registry.counter("oracle.cold_probes").value();
  const std::uint64_t warm0 = registry.counter("oracle.warm_probes").value();
  FeasibilityOracle oracle(instance);
  EXPECT_TRUE(oracle.probe(opt + 3));
  EXPECT_FALSE(oracle.probe(opt - 1));
  EXPECT_TRUE(oracle.probe(opt));
  EXPECT_EQ(oracle.probes_executed(), 3u);
  EXPECT_EQ(registry.counter("oracle.cold_probes").value() - cold0, 1u);
  EXPECT_EQ(registry.counter("oracle.warm_probes").value() - warm0, 2u);
  EXPECT_EQ(oracle.optimal_machines(), opt);
}

TEST(Oracle, LoadLowerBoundIsCertified) {
  for (const Instance& instance : test_instances()) {
    if (instance.empty() || !instance.well_formed()) continue;
    FeasibilityOracle oracle(instance);
    std::int64_t lb = oracle.load_lower_bound();
    std::int64_t opt = oracle.optimal_machines();
    EXPECT_GE(lb, 1);
    EXPECT_LE(lb, opt);
    // The sweep bound equals the single-interval load bound's value.
    EXPECT_GE(lb, load_bound_single_interval(instance).machines);
  }
}

TEST(Oracle, RationalModeMatchesIntegerMode) {
  // Uniform scaling preserves OPT; the scaled instance runs in rational
  // mode (denominator LCM exceeds the grid guard) and must agree with the
  // integer-grid run of the original.
  Rng rng(31);
  GenConfig config{20, 60, 15, 2};
  for (int trial = 0; trial < 3; ++trial) {
    Instance instance = gen_general(rng, config);
    Instance scaled = force_rational_mode(instance);
    const std::int64_t reference = reference::horn_optimal_machines(instance);
    EXPECT_EQ(optimal_migratory_machines(instance), reference);
    EXPECT_EQ(optimal_migratory_machines(scaled), reference);
  }
}

TEST(Oracle, DegenerateInstancesAnswerOrThrow) {
  // The empty instance needs no machine, a single job one; a malformed
  // instance is refused by optimal_machines() rather than answered, and
  // probe() rejects it like feasible() does.
  EXPECT_EQ(FeasibilityOracle(Instance()).optimal_machines(), 0);
  EXPECT_TRUE(reference::horn_feasible(Instance(), 1));
  EXPECT_TRUE(FeasibilityOracle(Instance()).probe(1));

  const Instance one({mk(0, 2, 1)});
  EXPECT_EQ(reference::horn_optimal_machines(one), 1);
  EXPECT_EQ(FeasibilityOracle(one).optimal_machines(), 1);
  expect_probes_match(one, 1);

  const Instance bad({mk(1, 1, 1)});
  ASSERT_FALSE(bad.well_formed());
  FeasibilityOracle oracle(bad);
  EXPECT_THROW((void)oracle.optimal_machines(), std::invalid_argument);
  EXPECT_FALSE(oracle.feasible(1));
  EXPECT_FALSE(oracle.probe(1));
}

TEST(Oracle, ConcurrentQueriesStayConsistent) {
  // Four threads query the same instance pool, one fresh oracle per query,
  // so every thread keeps recycling its parked Impl -- and, through the
  // probes at OPT and OPT - 1, the probe network's storage -- while the
  // others do the same; every answer must equal the reference network's.
  Rng rng(23);
  GenConfig config;
  config.n = 12;
  std::vector<Instance> pool;
  for (int trial = 0; trial < 6; ++trial) pool.push_back(gen_general(rng, config));
  std::vector<std::int64_t> reference;
  for (const Instance& in : pool)
    reference.push_back(reference::horn_optimal_machines(in));

  const int threads = 4, reps = 8;
  std::vector<std::vector<std::int64_t>> got(
      threads, std::vector<std::int64_t>(pool.size(), -1));
  std::vector<std::vector<std::int64_t>> probed = got;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const std::size_t slot = static_cast<std::size_t>(t);
      for (int rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < pool.size(); ++i) {
          got[slot][i] = FeasibilityOracle(pool[i]).optimal_machines();
          // The least machine count the network accepts, given the
          // reference's OPT: opt when both probes agree with it.
          FeasibilityOracle network(pool[i]);
          const std::int64_t opt = reference[i];
          probed[slot][i] =
              network.probe(opt) && (opt <= 1 || !network.probe(opt - 1))
                  ? opt
                  : -1;
        }
      }
      obs::drain_hot_tallies();
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < threads; ++t) {
    const std::size_t slot = static_cast<std::size_t>(t);
    EXPECT_EQ(got[slot], reference) << "thread " << t;
    EXPECT_EQ(probed[slot], reference) << "thread " << t;
  }
}

}  // namespace
}  // namespace minmach
