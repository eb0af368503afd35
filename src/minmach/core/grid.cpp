#include "minmach/core/grid.hpp"

#include <algorithm>

namespace minmach {

std::vector<std::int64_t> IntegerGrid::event_points() const {
  std::vector<std::int64_t> points;
  points.reserve(release.size() + deadline.size());
  points.insert(points.end(), release.begin(), release.end());
  points.insert(points.end(), deadline.begin(), deadline.end());
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

IntegerGrid try_integer_grid(const Instance& instance) {
  IntegerGrid grid;
  BigInt lcm = instance.denominator_lcm();
  // Guard: scaled values must fit comfortably (sums of m * length stay
  // within __int128 as long as individual values fit int64 / n).
  if (lcm.bit_length() > 40) return grid;
  const Rat scale(lcm, BigInt(1));
  grid.release.reserve(instance.size());
  grid.deadline.reserve(instance.size());
  grid.processing.reserve(instance.size());
  // Scales one field, or reports the grid unusable; each value is scaled
  // exactly once.
  auto scale_into = [&scale](const Rat& value, std::vector<std::int64_t>& out) {
    BigInt scaled = (value * scale).num();  // integral by construction
    if (scaled.bit_length() > 62) return false;
    out.push_back(scaled.to_int64());
    return true;
  };
  for (const Job& j : instance.jobs()) {
    if (!scale_into(j.release, grid.release) ||
        !scale_into(j.deadline, grid.deadline) ||
        !scale_into(j.processing, grid.processing))
      return grid;
  }
  grid.usable = true;
  grid.scale = scale;
  return grid;
}

}  // namespace minmach
