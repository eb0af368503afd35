// Certified two-sided bounds on the migratory optimum -- the bound tier in
// front of the exact max-flow oracle (DESIGN.md §14).
//
// Lower side: the pigeonhole density bound ceil(total work / span) and the
// single-interval sweep load bound (Theorem 1's easy direction), which the
// oracle evaluates on its normalized arrays: the SIMD-dispatched int64
// kernel on integer grids, prefiltered_sweep_bound below otherwise. Upper
// side: a constructive EDF/LLF packing witness (algos/pack_ub.hpp),
// audited by core/validate -- a schedule, not a heuristic. Together they
// sandwich
//   lo <= OPT <= hi;
// when the sandwich pinches (lo == hi) the exact oracle returns OPT without
// building a flow network at all, and otherwise the search starts from the
// pre-narrowed bracket [lo, hi). The oracle consults it until its first
// edit (flow/feasibility.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "minmach/core/instance.hpp"

namespace minmach {

// Which constructive packing produced the upper-bound witness.
enum class PackWitness : std::uint8_t {
  kSingleton = 0,  // trivial n-machine certificate: one job per machine
  kEdf,            // earliest-deadline-first fluid packing
  kLlf,            // least-laxity-first fluid packing
};

// How each side of a sandwich was certified.
struct BoundCertificate {
  std::int64_t density_lb = 0;     // ceil(total work / span)
  std::int64_t load_lb = 0;        // max(density, sweep single-interval bound)
  std::int64_t pack_machines = 0;  // machine count of the packing witness
  PackWitness pack = PackWitness::kSingleton;
};

// lo <= OPT <= hi with both sides certified: lo by the load argument, hi by
// a validator-audited schedule witness. The degenerate sandwich of an empty
// instance is {0, 0}.
struct BoundSandwich {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  BoundCertificate certificate;

  [[nodiscard]] bool pinched() const { return lo == hi; }
};

// Sweep load bound for exact-rational grids via a double-precision
// prefilter -- the tier's approximate→exact philosophy applied to its own
// lower bound. One O(S * (n + S)) float sweep over ALL event-point pairs
// (no left-endpoint budget needed at float cost) collects the near-argmax
// intervals; only those few candidates are evaluated with exact Rat
// arithmetic, whose max is returned. Any subset max is a certified lower
// bound, so float rounding can only cost tightness, never soundness. The
// all-pairs Rat sweep this replaces compounds denominators in its running
// sums (each += promotes the accumulator toward multi-limb BigInts), which
// is what made rational-mode lower bounds dominate sandwich wall time.
// Falls back to the budgeted exact sweep when the values do not convert to
// finite doubles. Inputs are parallel job arrays plus the sorted distinct
// event points; returns 0 for empty input.
[[nodiscard]] std::int64_t prefiltered_sweep_bound(
    const std::vector<Rat>& release, const std::vector<Rat>& deadline,
    const std::vector<Rat>& processing, const std::vector<Rat>& points,
    std::size_t left_budget = 256);

}  // namespace minmach
