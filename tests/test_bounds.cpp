// Differential tests for the bound tier (DESIGN.md §14): the certified
// sandwich lo <= OPT <= hi must be sound on every instance family, the
// oracle must agree probe for probe with an independent dense Horn network
// (reference_horn.hpp), the packing upper bound must certify the same
// witness from int64 columns (direct audit) and from an Instance (realize +
// validate), and the prefiltered rational sweep must never exceed the
// exact single-interval bound it approximates.
#include "minmach/core/bounds.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "minmach/adversary/strong_lb.hpp"
#include "minmach/algos/nonpreemptive.hpp"
#include "minmach/algos/pack_ub.hpp"
#include "minmach/core/grid.hpp"
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
  for (const Instance& instance : test_instances()) {
    const std::int64_t opt = reference::horn_optimal_machines(instance);

    FeasibilityOracle oracle(instance);
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

// A pinched sandwich answers without the network, and the network it
// skipped agrees. The instance needs n > OPT so the memo's trivial
// n-machine witness does not pinch on its own: the counterexample plus a
// light disjoint job. The sweep bound certifies 3 and the packing witness
// at 3 pinches the sandwich, so a fresh oracle answers OPT with no probe;
// probe() on the same instance still runs the flow, which must reject 2
// machines and accept 3.
TEST(BoundSandwich, PinchedSandwichAgreesWithTheNetwork) {
  const Instance instance({mk(0, 2, 2), mk(0, 1, 1), mk(0, 1, 1),
                           mk(10, 12, 1)});
  FeasibilityOracle oracle(instance);
  EXPECT_EQ(oracle.optimal_machines(), 3);
  EXPECT_EQ(oracle.probes_executed(), 0u);
  const BoundSandwich sandwich = oracle.bound_sandwich();
  EXPECT_TRUE(sandwich.pinched());
  EXPECT_EQ(sandwich.certificate.pack_machines, 3);
  EXPECT_NE(sandwich.certificate.pack, PackWitness::kSingleton);
  EXPECT_FALSE(oracle.probe(2));
  EXPECT_TRUE(oracle.probe(3));
  EXPECT_EQ(oracle.probes_executed(), 2u);
}

// The column entry's direct McNaughton audit and the Instance entry's
// realize + validate certify the same packing: the greedy passes are
// invariant under uniform time scaling, so an instance, its rational-mode
// scaling and the int64 columns of its integer grid (what an integer-mode
// oracle packs) must pack to the same machine count and witness, each
// audited its own way.
TEST(PackUpperBound, AuditModesAgree) {
  int on_grid = 0;
  for (const Instance& instance : test_instances()) {
    if (instance.empty()) continue;
    const std::int64_t opt = reference::horn_optimal_machines(instance);
    const PackUbResult realized = pack_upper_bound(instance);
    const PackUbResult scaled =
        pack_upper_bound(force_rational_mode(instance));
    EXPECT_GE(realized.machines, opt);
    EXPECT_EQ(realized.machines, scaled.machines);
    EXPECT_EQ(realized.witness, scaled.witness);
    if (realized.witness != PackWitness::kSingleton) {
      EXPECT_TRUE(realized.validated);
      EXPECT_TRUE(scaled.validated);
    }
    const IntegerGrid grid = try_integer_grid(instance);
    if (!grid.usable) continue;
    ++on_grid;
    const PackUbResult direct =
        pack_upper_bound(grid.release, grid.deadline, grid.processing,
                         grid.event_points());
    EXPECT_EQ(direct.machines, realized.machines);
    EXPECT_EQ(direct.witness, realized.witness);
    EXPECT_EQ(direct.attempts, realized.attempts);
    EXPECT_EQ(direct.validated, realized.validated);
  }
  EXPECT_GT(on_grid, 0);
}

// Seeding the packer at a certified lower bound pinches the sandwich on
// every instance where greedy EDF/LLF is exact at OPT. start must stay
// below n, or the packer short-circuits to the (unvalidated) singleton
// certificate.
TEST(PackUpperBound, StartAtLowerBoundIsHonored) {
  const Instance instance({mk(0, 2, 2), mk(0, 1, 1), mk(0, 1, 1),
                           mk(10, 12, 1)});
  const PackUbResult result = pack_upper_bound(instance, /*start=*/3);
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

}  // namespace
}  // namespace minmach
