#include "minmach/core/contribution.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "minmach/core/grid.hpp"
#include "minmach/core/load_sweep.hpp"
#include "minmach/core/load_sweep_simd.hpp"
#include "minmach/obs/profile.hpp"
#include "minmach/util/simd.hpp"

namespace minmach {

Rat contribution(const Job& job, const IntervalSet& where) {
  Rat overlap = where.intersect(job.window()).length();
  Rat value = overlap - job.laxity();
  return value.is_positive() ? value : Rat(0);
}

Rat contribution(const Instance& instance, const IntervalSet& where) {
  Rat total(0);
  for (const auto& job : instance.jobs()) total += contribution(job, where);
  return total;
}

namespace {

// ceil(c / len) for c >= 0, len > 0: off the grid and on it.
std::int64_t ceil_div_rat(const Rat& c, const Rat& len) {
  return (c / len).ceil().to_int64();
}

std::int64_t ceil_div_grid(const __int128& c, const __int128& len) {
  const __int128 q = (c + len - 1) / len;
  if (q > std::numeric_limits<std::int64_t>::max())
    throw std::overflow_error("load bound does not fit int64");
  return static_cast<std::int64_t>(q);
}

// ceil(C(S,I)/|I|) for a non-empty I.
std::int64_t load_of(const Instance& instance, const IntervalSet& where) {
  return ceil_div_rat(contribution(instance, where), where.length());
}

// The job fields as parallel columns, the form the scans take.
struct Columns {
  std::vector<Rat> release;
  std::vector<Rat> deadline;
  std::vector<Rat> processing;
};

Columns columns_of(const Instance& instance) {
  Columns out;
  for (const Job& job : instance.jobs()) {
    out.release.push_back(job.release);
    out.deadline.push_back(job.deadline);
    out.processing.push_back(job.processing);
  }
  return out;
}

std::vector<__int128> widen(const std::vector<std::int64_t>& values) {
  return {values.begin(), values.end()};
}

// The union of the elementary segments [point(s), point(s+1)) selected by
// the bits s of mask, one interval per run of set bits.
template <typename Point>
IntervalSet union_of(std::uint64_t mask, Point point) {
  IntervalSet out;
  while (mask != 0) {
    const int first = std::countr_zero(mask);
    const int end = first + std::countr_one(mask >> first);
    out.add(Interval{point(first), point(end)});
    mask &= ~((std::uint64_t{1} << end) - 1);
  }
  return out;
}

// Theorem 1 over every union of elementary segments, generic over the value
// type V the way sweep_load_bound<V> is: V = __int128 on the integer grid,
// Rat off it. Bit s of a mask selects segment [points[s], points[s+1]), and
// job j's window is the mask W_j of the segments it spans, so
// |I cap I(j)| is the length of mask & W_j. Lengths come from two
// half-width subset-sum tables (the low ceil(S/2) bits and the rest), so
// memory is O(2^ceil(S/2)) and time O(2^S * n). Masks run high half outer,
// low half inner: still ascending order, and each job's high-half term is
// computed once per outer step. The witness is the first mask in ascending
// order with the largest load; point(i) maps points[i] back to its Rat.
template <typename V, typename CeilDiv, typename Point>
std::optional<LoadBound> exhaustive_bound(const std::vector<V>& release,
                                          const std::vector<V>& deadline,
                                          const std::vector<V>& processing,
                                          const std::vector<V>& points,
                                          std::size_t max_segments,
                                          CeilDiv ceil_div, Point point) {
  if (points.size() < 2) return LoadBound{};
  const std::size_t segments = points.size() - 1;
  if (segments > max_segments) return std::nullopt;
  if (segments >= 63)
    throw std::invalid_argument("load_bound_exhaustive: too many segments");

  const std::size_t n = release.size();
  const std::size_t low_bits = (segments + 1) / 2;
  const std::uint64_t low_mask = (std::uint64_t{1} << low_bits) - 1;
  auto index_of = [&points](const V& t) {
    return static_cast<std::size_t>(
        std::lower_bound(points.begin(), points.end(), t) - points.begin());
  };
  std::vector<std::uint64_t> window_lo(n), window_hi(n);
  std::vector<V> laxity(n);
  for (std::size_t j = 0; j < n; ++j) {
    laxity[j] = deadline[j] - release[j] - processing[j];
    const std::size_t r = index_of(release[j]);
    const std::size_t d = index_of(deadline[j]);
    const std::uint64_t window =
        d <= r ? 0
               : ((std::uint64_t{1} << d) - 1) & ~((std::uint64_t{1} << r) - 1);
    window_lo[j] = window & low_mask;
    window_hi[j] = window >> low_bits;
  }
  // t[m] = t[m without its lowest bit] + the length of that bit's segment.
  auto subset_sums = [&points](std::size_t first, std::size_t bits) {
    std::vector<V> table(std::size_t{1} << bits, V(0));
    for (std::uint64_t m = 1; m < table.size(); ++m) {
      const std::size_t s = first + std::countr_zero(m);
      table[m] = table[m & (m - 1)] + (points[s + 1] - points[s]);
    }
    return table;
  };
  const std::vector<V> lo = subset_sums(0, low_bits);
  const std::vector<V> hi = subset_sums(low_bits, segments - low_bits);

  const V zero(0);
  std::int64_t machines = 0;
  std::uint64_t witness = 0;
  std::vector<V> high_term(n);  // |high half cap W_j| - l_j
  for (std::uint64_t mh = 0; mh < hi.size(); ++mh) {
    for (std::size_t j = 0; j < n; ++j)
      high_term[j] = hi[mh & window_hi[j]] - laxity[j];
    for (std::uint64_t ml = mh == 0 ? 1 : 0; ml < lo.size(); ++ml) {
      V c = zero;
      for (std::size_t j = 0; j < n; ++j) {
        const V term = lo[ml & window_lo[j]] + high_term[j];
        if (zero < term) c += term;
      }
      const V length = lo[ml] + hi[mh];
      // ceil(C/len) > best iff C > best * len: no division per mask.
      if (V(machines) * length < c) {
        machines = ceil_div(c, length);
        witness = (mh << low_bits) | ml;
      }
    }
  }
  LoadBound best;
  best.machines = machines;
  if (machines > 0) best.witness = union_of(witness, point);
  return best;
}

}  // namespace

LoadBound load_bound_single_interval(const Instance& instance) {
  obs::ProfileSpan span("single_interval");
  // The sweep assumes non-negative laxities; malformed instances keep the
  // reference semantics (zero-overlap intervals can still "contribute").
  if (!instance.well_formed())
    return load_bound_single_interval_reference(instance);
  LoadBound best;
  const IntegerGrid grid = try_integer_grid(instance);
  if (grid.usable) {
    // ceil(C/len) and every comparison of the sweep are invariant under the
    // scaling, so the int64 kernel (DESIGN.md §12) returns the Rat sweep's
    // machine count and witness indices. The CPU check picks only the
    // kernel policy.
    const std::vector<std::int64_t> points = grid.event_points();
    const SweepWitness sweep = sweep_load_bound_i64(
        grid.release, grid.deadline, grid.processing, points,
        /*left_stride=*/1, util::simd::supported());
    best.machines = sweep.machines;
    if (sweep.machines > 0)
      best.witness = IntervalSet{Interval{grid.to_rat(points[sweep.lo]),
                                          grid.to_rat(points[sweep.hi])}};
    return best;
  }
  const std::vector<Rat> points = instance.event_points();
  const Columns rat = columns_of(instance);
  const SweepWitness sweep = sweep_load_bound(
      rat.release, rat.deadline, rat.processing, points, ceil_div_rat);
  best.machines = sweep.machines;
  if (sweep.machines > 0)
    best.witness = IntervalSet{Interval{points[sweep.lo], points[sweep.hi]}};
  return best;
}

LoadBound load_bound_single_interval_reference(const Instance& instance) {
  LoadBound best;
  const std::vector<Rat> points = instance.event_points();
  for (std::size_t a = 0; a < points.size(); ++a) {
    for (std::size_t b = a + 1; b < points.size(); ++b) {
      IntervalSet candidate{Interval{points[a], points[b]}};
      std::int64_t load = load_of(instance, candidate);
      if (load > best.machines) {
        best.machines = load;
        best.witness = candidate;
      }
    }
  }
  return best;
}

std::optional<LoadBound> load_bound_exhaustive(const Instance& instance,
                                               std::size_t max_segments) {
  obs::ProfileSpan span("exhaustive");
  const IntegerGrid grid = try_integer_grid(instance);
  if (grid.usable) {
    const std::vector<std::int64_t> points = grid.event_points();
    return exhaustive_bound(
        widen(grid.release), widen(grid.deadline), widen(grid.processing),
        widen(points), max_segments, ceil_div_grid,
        [&](std::size_t i) { return grid.to_rat(points[i]); });
  }
  const std::vector<Rat> points = instance.event_points();
  const Columns rat = columns_of(instance);
  return exhaustive_bound(rat.release, rat.deadline, rat.processing, points,
                          max_segments, ceil_div_rat,
                          [&](std::size_t i) { return points[i]; });
}

}  // namespace minmach
