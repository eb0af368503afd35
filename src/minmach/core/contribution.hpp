// Theorem 1's load characterization of the migratory optimum.
//
// The contribution of job j to a finite union of intervals I is
//   C(j, I) = max{0, |I cap I(j)| - l_j},
// the least processing j must receive inside I in any feasible schedule.
// Theorem 1: the minimum machine count m satisfies
//   m = max_I ceil( C(S, I) / |I| ),
// and the maximum is attained. The flow substrate (minmach/flow) computes m
// exactly from the primal side; this module computes the dual-side bound for
// cross-checking (experiment E2) and for the load arguments in the proofs of
// Lemma 3 and Lemma 8.
#pragma once

#include <cstddef>
#include <optional>

#include "minmach/core/instance.hpp"
#include "minmach/util/interval_set.hpp"

namespace minmach {

// C(j, I): least processing j receives during I in any feasible schedule.
[[nodiscard]] Rat contribution(const Job& job, const IntervalSet& where);

// C(S, I): sum over all jobs.
[[nodiscard]] Rat contribution(const Instance& instance,
                               const IntervalSet& where);

struct LoadBound {
  // ceil(C(S, I) / |I|) maximized over the searched family.
  std::int64_t machines = 0;
  // A witness I attaining the bound (empty when no interval has load).
  IntervalSet witness;
};

// Max over all single intervals [a, b) with a, b event points. This is a
// valid lower bound on m for every instance (not necessarily tight).
// Evaluated by the O(n^2) incremental sweep of core/load_sweep.hpp: the
// int64 kernel on the instance's integer grid (core/grid.hpp), the Rat
// sweep off it. The witness (first maximizing pair in (a, b) scan order)
// matches the reference scan exactly.
[[nodiscard]] LoadBound load_bound_single_interval(const Instance& instance);

// The pre-sweep O(n * S^2) evaluation of the same bound: recomputes
// C(S, [a,b)) from scratch for every event-point pair. Kept as the
// differential-test reference for the sweep; prefer
// load_bound_single_interval everywhere else.
[[nodiscard]] LoadBound load_bound_single_interval_reference(
    const Instance& instance);

// Exact Theorem 1 value: max over all unions of elementary segments between
// consecutive event points (2^S - 1 candidates for S segments). Returns
// std::nullopt when the instance has more than max_segments elementary
// segments. A bitmask scan: O(2^S * n) time on the integer grid
// (core/grid.hpp; exact Rat arithmetic off it) and O(2^ceil(S/2)) memory
// for the segment-length subset sums. The witness is the first maximizing
// union in ascending mask order (bit s = segment s).
[[nodiscard]] std::optional<LoadBound> load_bound_exhaustive(
    const Instance& instance, std::size_t max_segments = 18);

}  // namespace minmach
