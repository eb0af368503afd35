#include "minmach/core/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "minmach/core/load_sweep.hpp"

namespace minmach {

namespace {

// Left-endpoint stride implementing the sweep budget (same rule as the
// oracle's budgeted sweep: at most `budget` left endpoints are evaluated).
std::size_t sweep_stride(std::size_t point_count, std::size_t left_budget) {
  if (point_count <= 1) return 1;
  if (left_budget == 0) left_budget = 1;
  return std::max<std::size_t>(1, (point_count - 1) / left_budget);
}

// Near-argmax interval candidate from the double prefilter sweep.
struct SweepCand {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double ratio = 0.0;
};

}  // namespace

std::int64_t prefiltered_sweep_bound(const std::vector<Rat>& release,
                                     const std::vector<Rat>& deadline,
                                     const std::vector<Rat>& processing,
                                     const std::vector<Rat>& points,
                                     std::size_t left_budget) {
  const std::size_t n = release.size();
  if (n == 0 || points.size() < 2) return 0;

  auto exact_fallback = [&]() {
    return sweep_load_bound(release, deadline, processing, points,
                            [](const Rat& c, const Rat& len) {
                              return (c / len).ceil().to_int64();
                            },
                            sweep_stride(points.size(), left_budget))
        .machines;
  };

  // One-time conversion; any overflow to non-finite doubles sends the whole
  // instance down the exact budgeted sweep instead.
  bool finite = true;
  auto conv = [&finite](const Rat& value) {
    const double x = value.to_double();
    if (!std::isfinite(x)) finite = false;
    return x;
  };
  std::vector<double> r(n), d(n), p(n), laxity(n);
  for (std::size_t j = 0; j < n; ++j) {
    r[j] = conv(release[j]);
    d[j] = conv(deadline[j]);
    p[j] = conv(processing[j]);
    laxity[j] = d[j] - r[j] - p[j];
  }
  std::vector<double> pts(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) pts[i] = conv(points[i]);
  if (!finite) return exact_fallback();

  // Float twin of core/load_sweep.hpp's incremental sweep, collecting every
  // interval within kSlack of the running maximum ratio instead of a single
  // argmax. Float cost affords a 16x more generous left-endpoint budget
  // than the exact sweep's.
  constexpr double kSlack = 1e-9;
  constexpr std::size_t kMaxCands = 256;
  std::vector<std::size_t> by_laxity(n), by_onset(n), by_deadline(n);
  std::iota(by_laxity.begin(), by_laxity.end(), 0);
  by_onset = by_laxity;
  by_deadline = by_laxity;
  std::sort(by_laxity.begin(), by_laxity.end(),
            [&](std::size_t x, std::size_t y) { return laxity[x] < laxity[y]; });
  std::sort(by_onset.begin(), by_onset.end(),
            [&](std::size_t x, std::size_t y) {
              return d[x] - p[x] < d[y] - p[y];
            });
  std::sort(by_deadline.begin(), by_deadline.end(),
            [&](std::size_t x, std::size_t y) { return d[x] < d[y]; });

  std::vector<SweepCand> cands;
  double best_ratio = 0.0;
  auto compact = [&]() {
    std::erase_if(cands, [&](const SweepCand& c) {
      return c.ratio < best_ratio * (1.0 - kSlack);
    });
    if (cands.size() > kMaxCands) {
      std::nth_element(cands.begin(),
                       cands.begin() + static_cast<std::ptrdiff_t>(kMaxCands / 2),
                       cands.end(), [](const SweepCand& a, const SweepCand& b) {
                         return a.ratio > b.ratio;
                       });
      cands.resize(kMaxCands / 2);
    }
  };

  const std::size_t stride = sweep_stride(points.size(), 16 * left_budget);
  for (std::size_t ai = 0; ai + 1 < points.size() && finite; ai += stride) {
    const double a = pts[ai];
    std::int64_t growing = 0;
    double growing_cross_sum = 0.0;
    double frozen_sum = 0.0;
    std::size_t pa = 0, pb = 0, pd = 0;
    for (std::size_t bi = ai + 1; bi < points.size(); ++bi) {
      const double b = pts[bi];
      while (pa < n) {
        const std::size_t j = by_laxity[pa];
        const double cross = a + laxity[j];
        if (!(cross < b)) break;
        ++pa;
        if (a < r[j] || !(a < d[j])) continue;
        if (!(cross < d[j])) continue;
        ++growing;
        growing_cross_sum += cross;
      }
      while (pb < n) {
        const std::size_t j = by_onset[pb];
        const double cross = d[j] - p[j];
        if (!(cross < b)) break;
        ++pb;
        if (!(a < r[j])) continue;
        ++growing;
        growing_cross_sum += cross;
      }
      while (pd < n) {
        const std::size_t j = by_deadline[pd];
        if (!(d[j] <= b)) break;
        ++pd;
        if (!(a < d[j])) continue;
        const double cross = (r[j] < a ? a : r[j]) + laxity[j];
        if (!(cross < d[j])) continue;
        --growing;
        growing_cross_sum -= cross;
        frozen_sum += d[j] - cross;
      }
      const double contribution =
          static_cast<double>(growing) * b - growing_cross_sum + frozen_sum;
      const double length = b - a;
      if (!(contribution > 0.0) || !(length > 0.0)) continue;
      const double ratio = contribution / length;
      if (!std::isfinite(ratio)) {
        finite = false;
        break;
      }
      if (ratio > best_ratio) best_ratio = ratio;
      if (ratio >= best_ratio * (1.0 - kSlack)) {
        cands.push_back({ai, bi, ratio});
        if (cands.size() > kMaxCands) compact();
      }
    }
  }
  if (!finite) return exact_fallback();
  if (cands.empty()) return 0;

  // Exact Rat evaluation of the shortlist, best float ratio first. Each
  // value is a certified bound on its own, so the max over however many we
  // evaluate is certified; the -0.5 cutoff stops once no remaining
  // candidate's ceil can exceed the incumbent.
  compact();
  std::sort(cands.begin(), cands.end(),
            [](const SweepCand& a, const SweepCand& b) {
              return a.ratio > b.ratio;
            });
  constexpr int kMaxExact = 12;
  std::int64_t best = 0;
  int evals = 0;
  for (const SweepCand& cand : cands) {
    if (evals >= kMaxExact) break;
    if (cand.ratio <= static_cast<double>(best) - 0.5) break;
    ++evals;
    const Rat& a = points[cand.lo];
    const Rat& b = points[cand.hi];
    Rat work(0);
    for (std::size_t j = 0; j < n; ++j) {
      const Rat& start = release[j] < a ? a : release[j];
      const Rat& end = b < deadline[j] ? b : deadline[j];
      if (!(start < end)) continue;
      Rat c = (end - start) - (deadline[j] - release[j] - processing[j]);
      if (c.is_positive()) work += c;
    }
    if (work.is_positive())
      best = std::max(best, (work / (b - a)).ceil().to_int64());
  }
  return best;
}

}  // namespace minmach
