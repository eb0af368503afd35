// Detail header for the int64 sweep kernels (DESIGN.md §12). The driver
// below restates the generic sweep of load_sweep.hpp in a form where every
// per-left-endpoint pass is a flat array kernel:
//
//  * Phase 1 (compress): the three globally sorted job orders are filtered
//    against the left endpoint `a` into dense admission/freeze streams --
//    one predicated compaction pass per order over contiguous SoA
//    projections, the natural SIMD shape (compare + mask + compress-store).
//  * Phase 2 (scan): between two consecutive stream thresholds the sweep
//    state (growing count g, growing cross-sum, frozen sum) is constant,
//    so the improvement test over that run of right endpoints b reduces to
//    a fused first-index search: find the first b with b > lim (run ends;
//    re-admit) or m*b > rhs where m = g - best and rhs = cross_sum -
//    frozen - best*a (a new witness). Both conditions are lane-parallel
//    compares; the scalar state update runs only on the rare hits.
//
// The driver is templated on an Ops policy providing the two phases:
// SweepScalarOps here is the portable fallback, SweepAvx2Ops lives in
// load_sweep_avx2.cpp (the -mavx2 translation unit). Both produce results
// bit-identical to sweep_load_bound<__int128> -- the admission filters,
// first-witness rule, and ceil division are restatements, not
// re-derivations, and the int64 arithmetic cannot wrap under the guard
// enforced by sweep_load_bound_i64 (see load_sweep_simd.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "minmach/core/load_sweep.hpp"
#include "minmach/obs/profile.hpp"
#include "minmach/util/simd.hpp"

namespace minmach::detail {

// Pre-sorted SoA projections of one sweep instance plus per-endpoint
// scratch, built once per sweep_load_bound_i64 call. The compress outputs
// are sized n + 4: a 4-lane compress store may overhang the kept prefix.
struct SweepSoA {
  std::size_t n = 0;
  const std::int64_t* points = nullptr;
  std::size_t npts = 0;
  // by_laxity order -- stream A, jobs released by a (onset a + laxity).
  std::vector<std::int64_t> lax_a, rel_a, dl_a;
  // by_onset order -- stream B, future releases (onset d - p).
  std::vector<std::int64_t> onset_b, rel_b;
  // by_deadline order -- stream D, contribution freezes at d.
  std::vector<std::int64_t> dl_d, rel_d, lax_d;
  // Compacted per-endpoint streams.
  std::vector<std::int64_t> cross_a, cross_b, frz_dl, frz_cross;

  void prepare(std::size_t jobs, const std::int64_t* pts, std::size_t points_n) {
    n = jobs;
    points = pts;
    npts = points_n;
    for (auto* v : {&lax_a, &rel_a, &dl_a, &onset_b, &rel_b, &dl_d, &rel_d,
                    &lax_d, &cross_a, &cross_b, &frz_dl, &frz_cross})
      v->resize(jobs + 4);
  }
};

enum class ScanEvent { kNone, kEnd, kImprove };
struct ScanHit {
  std::size_t offset = 0;
  ScanEvent event = ScanEvent::kNone;
};

template <class Ops>
SweepWitness sweep_kernel_i64(SweepSoA& s, std::size_t left_stride,
                              std::uint64_t* lanes_out) {
  obs::ProfileSpan span("sweep_kernel");
  SweepWitness best;
  Ops ops;
  const std::int64_t* pts = s.points;
  const std::size_t npts = s.npts;
  for (std::size_t ai = 0; ai + 1 < npts; ai += left_stride) {
    const std::int64_t a = pts[ai];
    const std::size_t len_a = ops.compress_released(
        s.lax_a.data(), s.rel_a.data(), s.dl_a.data(), s.n, a, s.cross_a.data());
    const std::size_t len_b = ops.compress_future(
        s.onset_b.data(), s.rel_b.data(), s.n, a, s.cross_b.data());
    const std::size_t len_d =
        ops.compress_freeze(s.dl_d.data(), s.rel_d.data(), s.lax_d.data(), s.n,
                            a, s.frz_dl.data(), s.frz_cross.data());
    std::int64_t growing = 0, growing_cross = 0, frozen = 0;
    std::size_t pa = 0, pb = 0, pd = 0;
    std::size_t bi = ai + 1;
    while (bi < npts) {
      const std::int64_t b = pts[bi];
      while (pa < len_a && s.cross_a[pa] < b) {
        ++growing;
        growing_cross += s.cross_a[pa++];
      }
      while (pb < len_b && s.cross_b[pb] < b) {
        ++growing;
        growing_cross += s.cross_b[pb++];
      }
      while (pd < len_d && s.frz_dl[pd] <= b) {
        --growing;
        growing_cross -= s.frz_cross[pd];
        frozen += s.frz_dl[pd] - s.frz_cross[pd];
        ++pd;
      }
      // State is constant while b stays at or below every pending
      // admission threshold (admit when cross < b) and strictly below the
      // next freeze deadline (freeze when d <= b).
      std::int64_t lim = std::numeric_limits<std::int64_t>::max();
      if (pa < len_a) lim = std::min(lim, s.cross_a[pa]);
      if (pb < len_b) lim = std::min(lim, s.cross_b[pb]);
      if (pd < len_d) lim = std::min(lim, s.frz_dl[pd] - 1);
      // ceil(C / (b-a)) > best  <=>  C > best*(b-a)  <=>  m*b > rhs.
      // (C > 0 is implied: for best >= 1 it follows, for best == 0 it IS
      // the test.) Matches the generic kernel's first-witness rule.
      std::int64_t m = growing - best.machines;
      std::int64_t rhs = growing_cross - frozen - best.machines * a;
      std::size_t idx = bi;
      while (idx < npts) {
        const ScanHit hit = ops.scan(pts + idx, npts - idx, m, rhs, lim);
        if (hit.event == ScanEvent::kNone) {
          idx = npts;
          break;
        }
        idx += hit.offset;
        if (hit.event == ScanEvent::kEnd) break;
        const std::int64_t bb = pts[idx];
        const std::int64_t contribution = growing * bb - growing_cross + frozen;
        const std::int64_t length = bb - a;
        best.machines = (contribution + length - 1) / length;  // exact ceil
        best.lo = ai;
        best.hi = idx;
        m = growing - best.machines;
        rhs = growing_cross - frozen - best.machines * a;
        ++idx;
      }
      bi = idx;
    }
  }
  *lanes_out = ops.lanes;
  return best;
}

// Portable fallback policy: same restructured algorithm, element-at-a-time.
// This is what runs without AVX2 (a simd-scalar build or a CPU lacking it)
// and what the AVX2 policy is differentially tested against.
struct SweepScalarOps {
  std::uint64_t lanes = 0;  // scalar policy does no vector work

  static std::size_t compress_released(const std::int64_t* lax,
                                       const std::int64_t* rel,
                                       const std::int64_t* dl, std::size_t n,
                                       std::int64_t a, std::int64_t* out) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t cross = a + lax[i];
      if (rel[i] <= a && a < dl[i] && cross < dl[i]) out[kept++] = cross;
    }
    return kept;
  }

  static std::size_t compress_future(const std::int64_t* onset,
                                     const std::int64_t* rel, std::size_t n,
                                     std::int64_t a, std::int64_t* out) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (rel[i] > a) out[kept++] = onset[i];
    return kept;
  }

  static std::size_t compress_freeze(const std::int64_t* dl,
                                     const std::int64_t* rel,
                                     const std::int64_t* lax, std::size_t n,
                                     std::int64_t a, std::int64_t* out_dl,
                                     std::int64_t* out_cross) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!(a < dl[i])) continue;
      const std::int64_t cross = (rel[i] < a ? a : rel[i]) + lax[i];
      if (!(cross < dl[i])) continue;
      out_dl[kept] = dl[i];
      out_cross[kept] = cross;
      ++kept;
    }
    return kept;
  }

  static ScanHit scan(const std::int64_t* pts, std::size_t count,
                      std::int64_t m, std::int64_t rhs, std::int64_t lim) {
    for (std::size_t i = 0; i < count; ++i) {
      if (pts[i] > lim) return {i, ScanEvent::kEnd};
      if (m * pts[i] > rhs) return {i, ScanEvent::kImprove};
    }
    return {0, ScanEvent::kNone};
  }
};

#if MINMACH_SIMD_COMPILE_AVX2
// Instantiated in load_sweep_avx2.cpp with the AVX2 policy.
SweepWitness sweep_kernel_i64_avx2(SweepSoA& soa, std::size_t left_stride,
                                   std::uint64_t* lanes_out);
#endif

}  // namespace minmach::detail
