// Differential tests for the bound tier (DESIGN.md §14): the certified
// sandwich lo <= OPT <= hi must be sound on every instance family, the
// bounds-on oracle must agree probe for probe with an independent dense
// Horn network (reference_horn.hpp), the packing upper bound must hold
// under both audit modes, and the
// prefiltered rational sweep must never exceed the exact single-interval
// bound it approximates.
#include "minmach/core/bounds.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "minmach/adversary/strong_lb.hpp"
#include "minmach/algos/nonpreemptive.hpp"
#include "minmach/algos/pack_ub.hpp"
#include "minmach/core/load_sweep.hpp"
#include "minmach/core/transforms.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
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

// The PR 3 compression-soundness counterexample: three jobs sharing [0,2)
// with total work 4 in a window of length 2, but OPT = 3 because the two
// unit jobs both need [0,1). Density says 2; only the sweep (or the flow)
// sees 3. A bound tier that trusted density alone would mis-pinch here.
Instance compression_counterexample() {
  return Instance({mk(0, 2, 2), mk(0, 1, 1), mk(0, 1, 1)});
}

std::vector<Instance> test_instances() {
  std::vector<Instance> out;
  GenConfig small{12, 40, 12, 2};
  GenConfig medium{40, 120, 30, 4};
  for (std::uint64_t seed : {3u, 17u, 71u}) {
    Rng rng(seed);
    out.push_back(gen_general(rng, small));
    out.push_back(gen_general(rng, medium));
    out.push_back(gen_agreeable(rng, medium));
    out.push_back(gen_laminar(rng, medium));
    out.push_back(gen_unit(rng, medium));
    out.push_back(gen_loose(rng, medium, Rat(1, 2)));
    out.push_back(gen_tight(rng, small, Rat(3, 4)));
    out.push_back(gen_agreeable_tight(rng, small, Rat(2, 3)));
    out.push_back(gen_laminar_tight(rng, small, Rat(2, 3)));
  }
  // Hand-picked edge cases.
  out.push_back(Instance{});                           // empty
  out.push_back(Instance({mk(0, 1, 1)}));              // single job
  out.push_back(Instance({mk(0, 1, 1), mk(0, 1, 1), mk(0, 1, 1)}));
  out.push_back(Instance({mk(0, 10, 10), mk(2, 5, 3), mk(7, 9, 1)}));
  out.push_back(compression_counterexample());
  // Rational mode: scaled copies with huge denominators exercise the
  // prefiltered sweep and the Rat packing passes.
  {
    Rng rng(9);
    out.push_back(force_rational_mode(gen_general(rng, small)));
    out.push_back(force_rational_mode(gen_agreeable(rng, small)));
    out.push_back(force_rational_mode(compression_counterexample()));
  }
  // Adversarial: strong-lower-bound games and their per-level slices, the
  // family the bound tier's bench targets.
  {
    FitPolicy policy(FitRule::kFirstFit);
    StrongLbResult result = run_strong_lower_bound(policy, 4);
    out.push_back(result.instance);
    for (const StrongLbLevelSlice& slice : result.level_slices)
      out.push_back(slice_instance(result, slice));
  }
  return out;
}

// lo <= OPT <= hi on every family, and the certificate's parts are
// internally consistent: density <= load lower bound <= lo, and the packing
// witness is never below hi.
TEST(BoundSandwich, SoundOnAllFamilies) {
  ASSERT_TRUE(bounds_tier_enabled());
  for (const Instance& instance : test_instances()) {
    const std::int64_t opt = reference::horn_optimal_machines(instance);

    FeasibilityOracle oracle(instance);  // bound tier on (library default)
    const BoundSandwich sandwich = oracle.bound_sandwich();
    EXPECT_LE(sandwich.lo, opt) << "n=" << instance.size();
    EXPECT_LE(opt, sandwich.hi) << "n=" << instance.size();
    EXPECT_LE(sandwich.certificate.density_lb, sandwich.certificate.load_lb);
    EXPECT_LE(sandwich.certificate.load_lb, sandwich.lo);
    // pack_machines stays 0 when the sandwich never packed (the memo's
    // trivial n-machine witness already met lo); when a packing ran, its
    // witness is what certifies hi.
    if (sandwich.certificate.pack_machines > 0) {
      EXPECT_GE(sandwich.certificate.pack_machines, sandwich.hi);
    }
    // The sandwich must not perturb the answer.
    EXPECT_EQ(oracle.optimal_machines(), opt);
  }
}

// The bound-tier oracle and the reference network agree probe for probe
// across the whole bracket, including the out-of-bracket verdicts the
// sandwich answers for free.
TEST(BoundSandwich, ExactProbeForProbeAgainstLegacy) {
  for (const Instance& instance : test_instances()) {
    FeasibilityOracle oracle(instance);
    const std::int64_t opt = reference::horn_optimal_machines(instance);
    EXPECT_EQ(oracle.optimal_machines(), opt);
    const std::int64_t lo = std::max<std::int64_t>(0, opt - 2);
    for (std::int64_t m = lo; m <= opt + 2; ++m) {
      EXPECT_EQ(oracle.feasible(m), reference::horn_feasible(instance, m))
          << "m=" << m;
    }
  }
}

// The compression counterexample pins the exact shape: density alone says
// 2, the sweep certifies 3, and the packing finds a 3-machine witness, so
// the sandwich pinches at OPT = 3 (not at the density bound).
TEST(BoundSandwich, CounterexamplePinchesAtSweepNotDensity) {
  const Instance instance = compression_counterexample();
  FeasibilityOracle oracle(instance);
  const BoundSandwich sandwich = oracle.bound_sandwich();
  EXPECT_EQ(sandwich.certificate.density_lb, 2);
  EXPECT_EQ(sandwich.lo, 3);
  EXPECT_EQ(sandwich.hi, 3);
  EXPECT_TRUE(sandwich.pinched());
  EXPECT_EQ(oracle.optimal_machines(), 3);
  EXPECT_EQ(oracle.probes_executed(), 0u);  // pinched: no flow network
}

// The runtime gate turns the tier off without changing any verdict. The
// instance needs n > OPT so the memo's trivial n-machine witness does not
// pinch on its own: the counterexample plus a light disjoint job. With the
// tier off the sweep bound still opens the search at 3 but feasible(3)
// must be probed through the flow; with the tier on the packing witness at
// 3 pinches the sandwich and no network is ever built.
TEST(BoundSandwich, GlobalGateDisablesTierButNotAnswers) {
  const Instance instance({mk(0, 2, 2), mk(0, 1, 1), mk(0, 1, 1),
                           mk(10, 12, 1)});
  set_bounds_tier_enabled(false);
  FeasibilityOracle gated(instance);
  EXPECT_EQ(gated.optimal_machines(), 3);
  EXPECT_GT(gated.probes_executed(), 0u);  // tier off: the flow ran
  set_bounds_tier_enabled(true);
  FeasibilityOracle on(instance);
  EXPECT_EQ(on.optimal_machines(), 3);
  EXPECT_EQ(on.probes_executed(), 0u);
  const BoundSandwich sandwich = on.bound_sandwich();
  EXPECT_TRUE(sandwich.pinched());
  EXPECT_EQ(sandwich.certificate.pack_machines, 3);
  EXPECT_NE(sandwich.certificate.pack, PackWitness::kSingleton);
}

// Both audit modes certify the same packing: the direct McNaughton-condition
// audit on the int64 fast path is checking exactly the facts core/validate
// re-derives from the realized schedule, so the winning machine count and
// its validity must coincide.
TEST(PackUpperBound, AuditModesAgree) {
  for (const Instance& instance : test_instances()) {
    if (instance.empty()) continue;
    const std::int64_t opt = reference::horn_optimal_machines(instance);
    PackUbOptions schedule_audit;
    schedule_audit.audit_schedule = true;
    PackUbOptions direct_audit;
    direct_audit.audit_schedule = false;
    const PackUbResult via_schedule = pack_upper_bound(instance, schedule_audit);
    const PackUbResult via_chunks = pack_upper_bound(instance, direct_audit);
    EXPECT_GE(via_schedule.machines, opt);
    EXPECT_EQ(via_schedule.machines, via_chunks.machines);
    EXPECT_EQ(via_schedule.witness, via_chunks.witness);
    if (via_schedule.witness != PackWitness::kSingleton) {
      EXPECT_TRUE(via_schedule.validated);
      EXPECT_TRUE(via_chunks.validated);
    }
  }
}

// Seeding the packer at a certified lower bound pinches the sandwich on
// every instance where greedy EDF/LLF is exact at OPT. start must stay
// below n, or the packer short-circuits to the (unvalidated) singleton
// certificate.
TEST(PackUpperBound, StartAtLowerBoundIsHonored) {
  const Instance instance({mk(0, 2, 2), mk(0, 1, 1), mk(0, 1, 1),
                           mk(10, 12, 1)});
  PackUbOptions options;
  options.start = 3;
  const PackUbResult result = pack_upper_bound(instance, options);
  EXPECT_EQ(result.machines, 3);
  EXPECT_TRUE(result.validated);
  EXPECT_NE(result.witness, PackWitness::kSingleton);
}

// The prefiltered sweep is a certified lower bound: never above the exact
// all-candidates single-interval bound, never above OPT, and exact on the
// cases where the critical interval is unambiguous.
TEST(PrefilteredSweep, CertifiedAgainstExactSweep) {
  for (const Instance& instance : test_instances()) {
    if (instance.empty() || !instance.well_formed()) continue;
    std::vector<Rat> release, deadline, processing;
    for (const Job& job : instance.jobs()) {
      release.push_back(job.release);
      deadline.push_back(job.deadline);
      processing.push_back(job.processing);
    }
    const std::vector<Rat> points = instance.event_points();
    const std::int64_t approx =
        prefiltered_sweep_bound(release, deadline, processing, points);
    const std::int64_t exact =
        sweep_load_bound(release, deadline, processing, points,
                         [](const Rat& c, const Rat& len) {
                           return (c / len).ceil().to_int64();
                         })
            .machines;
    EXPECT_LE(approx, exact) << "n=" << instance.size();
    EXPECT_LE(approx, reference::horn_optimal_machines(instance));
  }
}

// On the counterexample (and its rational-mode scaling) the prefiltered
// sweep recovers the full exact bound: the critical interval [0,1) is a
// strict float-ratio argmax, so the shortlist must contain it.
TEST(PrefilteredSweep, ExactOnUnambiguousArgmax) {
  for (const Instance& instance :
       {compression_counterexample(),
        force_rational_mode(compression_counterexample())}) {
    std::vector<Rat> release, deadline, processing;
    for (const Job& job : instance.jobs()) {
      release.push_back(job.release);
      deadline.push_back(job.deadline);
      processing.push_back(job.processing);
    }
    EXPECT_EQ(prefiltered_sweep_bound(release, deadline, processing,
                                      instance.event_points()),
              3);
  }
}

// certified_lower_bound's parts obey their definitions on every family.
TEST(CertifiedLowerBound, PartsAreConsistent) {
  for (const Instance& instance : test_instances()) {
    const LowerBoundParts parts = certified_lower_bound(instance);
    if (instance.empty()) {
      EXPECT_EQ(parts.machines, 0);
      continue;
    }
    EXPECT_GE(parts.machines, 1);
    EXPECT_EQ(parts.machines, std::max(parts.density, parts.sweep));
    EXPECT_LE(parts.machines, reference::horn_optimal_machines(instance));
  }
}

}  // namespace
}  // namespace minmach
