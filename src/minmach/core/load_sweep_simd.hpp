// SIMD-dispatched evaluation of the single-interval sweep load bound on an
// int64 grid (DESIGN.md §12). Produces results bit-identical to
//
//   sweep_load_bound<__int128>(release, deadline, processing, points, ...)
//
// on the same values: the same witness indices, the same machine count, the
// same first-witness tie-breaking. Inputs outside the overflow-safe range
// (see the guard in load_sweep_simd.cpp) spill to the generic __int128
// kernel -- tallied as "simd.scalar_spills" -- so callers never need their
// own range analysis.
//
// `use_avx2` selects the vector policy explicitly (callers pass
// util::simd::supported(), differential tests pin each path); passing true
// requires util::simd::supported(). Preconditions mirror the generic
// kernel: points sorted strictly ascending, instance well-formed (no
// negative laxities).
#pragma once

#include <cstdint>
#include <vector>

#include "minmach/core/load_sweep.hpp"

namespace minmach {

[[nodiscard]] SweepWitness sweep_load_bound_i64(
    const std::vector<std::int64_t>& release,
    const std::vector<std::int64_t>& deadline,
    const std::vector<std::int64_t>& processing,
    const std::vector<std::int64_t>& points, std::size_t left_stride,
    bool use_avx2);

}  // namespace minmach
