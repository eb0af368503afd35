// The instance's own integer time grid 1/L, L = Instance::denominator_lcm().
//
// Every quantity the exact computations compare or sum (event points,
// window lengths, laxities, contributions) scales by L > 0 without
// changing an order or a ratio, so a computation that fits the grid can
// run on machine integers and map its answer back. The feasibility oracle
// runs its Horn network on this grid; Theorem 1's load bounds
// (core/contribution) run their scans on it. Instances with unbounded
// denominators do not fit and keep exact rational arithmetic.
#pragma once

#include <cstdint>
#include <vector>

#include "minmach/core/instance.hpp"

namespace minmach {

struct IntegerGrid {
  bool usable = false;
  std::vector<std::int64_t> release;
  std::vector<std::int64_t> deadline;
  std::vector<std::int64_t> processing;
  // Multiplier taking original Rat values onto the grid (the denominator
  // lcm; 1 for the oracle's small-integer shortcut). The dynamic oracle
  // keeps it so later insert_job() calls can scale new jobs onto the SAME
  // grid -- or detect that they do not fit and fall back to the rational
  // network.
  Rat scale{1};

  // Sorted, deduplicated grid releases and deadlines: the instance's
  // event_points() times scale (scaling by a positive factor is monotone).
  [[nodiscard]] std::vector<std::int64_t> event_points() const;

  // The original rational time of grid value v.
  [[nodiscard]] Rat to_rat(std::int64_t v) const { return Rat(v) / scale; }
};

// Scales the instance onto its grid, or returns an unusable grid when the
// lcm exceeds 40 bits or a scaled value exceeds 62 bits.
[[nodiscard]] IntegerGrid try_integer_grid(const Instance& instance);

}  // namespace minmach
