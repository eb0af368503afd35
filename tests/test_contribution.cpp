#include "minmach/core/contribution.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "minmach/core/grid.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/rng.hpp"
#include "reference_horn.hpp"

namespace minmach {
namespace {

Job mk(std::int64_t r, std::int64_t d, std::int64_t p) {
  return {Rat(r), Rat(d), Rat(p)};
}

TEST(Contribution, SingleJobValues) {
  Job j = mk(0, 10, 6);  // laxity 4
  // Whole window: C = p.
  EXPECT_EQ(contribution(j, IntervalSet(Interval{Rat(0), Rat(10)})), Rat(6));
  // Overlap 5 < laxity+? C = max(0, 5 - 4) = 1.
  EXPECT_EQ(contribution(j, IntervalSet(Interval{Rat(0), Rat(5)})), Rat(1));
  // Overlap smaller than laxity: 0.
  EXPECT_EQ(contribution(j, IntervalSet(Interval{Rat(0), Rat(3)})), Rat(0));
  // Disjoint: 0.
  EXPECT_EQ(contribution(j, IntervalSet(Interval{Rat(20), Rat(30)})), Rat(0));
  // Union of two pieces inside the window: overlap 6 -> C = 2.
  EXPECT_EQ(contribution(j, IntervalSet({{Rat(0), Rat(3)}, {Rat(5), Rat(8)}})),
            Rat(2));
}

TEST(Contribution, ZeroLaxityJobContributesFullOverlap) {
  Job j = mk(0, 4, 4);
  EXPECT_EQ(contribution(j, IntervalSet(Interval{Rat(1), Rat(3)})), Rat(2));
}

TEST(Contribution, InstanceSums) {
  Instance in({mk(0, 4, 4), mk(0, 4, 2)});
  IntervalSet window(Interval{Rat(0), Rat(4)});
  EXPECT_EQ(contribution(in, window), Rat(6));
}

TEST(LoadBound, SingleIntervalFindsDenseWindow) {
  // Three zero-laxity unit jobs stacked in [0,1): load 3.
  Instance in({mk(0, 1, 1), mk(0, 1, 1), mk(0, 1, 1), mk(5, 9, 1)});
  LoadBound bound = load_bound_single_interval(in);
  EXPECT_EQ(bound.machines, 3);
  EXPECT_EQ(bound.witness.length(), Rat(1));
}

TEST(LoadBound, CeilingMatters) {
  // 3 units of forced work in a 2-unit interval: ceil(3/2) = 2 machines.
  Instance in({mk(0, 2, 2), mk(0, 2, 1)});
  LoadBound bound = load_bound_single_interval(in);
  EXPECT_EQ(bound.machines, 2);
}

TEST(LoadBound, ExhaustiveBeatsSingleOnSplitInstances) {
  // Two separated dense pockets plus one spanning loose job: a union of the
  // two pockets has higher density than any single interval.
  Instance in({
      mk(0, 1, 1), mk(0, 1, 1),    // pocket A
      mk(10, 11, 1), mk(10, 11, 1),  // pocket B
      mk(0, 11, 1),                 // spanning loose job
  });
  LoadBound single = load_bound_single_interval(in);
  auto exhaustive = load_bound_exhaustive(in);
  ASSERT_TRUE(exhaustive.has_value());
  EXPECT_GE(exhaustive->machines, single.machines);
  EXPECT_EQ(exhaustive->machines, 2);
  // The witness must attain its claimed load.
  Rat c = contribution(in, exhaustive->witness);
  EXPECT_EQ((c / exhaustive->witness.length()).ceil().to_int64(),
            exhaustive->machines);
}

TEST(LoadBound, ExhaustiveRefusesLargeInstances) {
  std::vector<Job> jobs;
  for (int i = 0; i < 30; ++i) jobs.push_back(mk(2 * i, 2 * i + 1, 1));
  EXPECT_EQ(load_bound_exhaustive(Instance(jobs), 18), std::nullopt);
}

TEST(LoadBound, EmptyInstance) {
  EXPECT_EQ(load_bound_single_interval(Instance()).machines, 0);
  auto exhaustive = load_bound_exhaustive(Instance());
  ASSERT_TRUE(exhaustive.has_value());
  EXPECT_EQ(exhaustive->machines, 0);
}

// Theorem 1 three ways on e02-shaped instances (n = 6, horizon 12, windows
// <= 8, grid 1/2: at most 11 elementary segments, so the union enumeration
// is exact): the production oracle's OPT, the reference network's OPT, and
// the maximum interval-union load must all coincide.
TEST(Theorem1, OracleEqualsReferenceEqualsExhaustiveLoad) {
  struct Family {
    const char* name;
    Instance (*generate)(Rng&, const GenConfig&);
  };
  const Family families[] = {{"general", gen_general},
                             {"agreeable", gen_agreeable},
                             {"laminar", gen_laminar},
                             {"unit", gen_unit}};
  const GenConfig config{6, 12, 8, 2};
  for (const Family& family : families) {
    Rng rng(1);
    for (int trial = 0; trial < 25; ++trial) {
      const Instance in = family.generate(rng, config);
      const std::int64_t opt = FeasibilityOracle(in).optimal_machines();
      const auto exhaustive = load_bound_exhaustive(in, 20);
      ASSERT_TRUE(exhaustive.has_value()) << family.name << " " << trial;
      EXPECT_EQ(opt, reference::horn_optimal_machines(in))
          << family.name << " " << in.to_string();
      EXPECT_EQ(opt, exhaustive->machines)
          << family.name << " " << in.to_string();
    }
  }
}

// ---- Theorem 1 on the integer grid: differential suite ----
//
// load_bound_exhaustive scans segment bitmasks on the instance's integer
// grid and falls back to exact rationals off it; load_bound_single_interval
// runs the int64 sweep kernel on the grid. Both are checked, machine count
// and witness, against references that share none of that machinery.

// Theorem 1 by construction: each union of elementary segments is built as
// an IntervalSet and intersected with every job window. The first strictly
// better union in ascending mask order (bit s = segment s) is the witness.
LoadBound reference_exhaustive(const Instance& instance) {
  LoadBound best;
  const std::vector<Rat> points = instance.event_points();
  if (points.size() < 2) return best;
  const std::size_t segments = points.size() - 1;
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << segments); ++mask) {
    std::vector<Interval> pieces;
    for (std::size_t s = 0; s < segments; ++s) {
      if (mask & (std::uint64_t{1} << s))
        pieces.push_back(Interval{points[s], points[s + 1]});
    }
    const IntervalSet candidate(std::move(pieces));
    const std::int64_t load =
        (contribution(instance, candidate) / candidate.length())
            .ceil()
            .to_int64();
    if (load > best.machines) {
      best.machines = load;
      best.witness = candidate;
    }
  }
  return best;
}

std::size_t segment_count(const Instance& instance) {
  const std::size_t points = instance.event_points().size();
  return points < 2 ? 0 : points - 1;
}

void expect_exhaustive_matches_reference(const Instance& in) {
  const auto fast = load_bound_exhaustive(in, 20);
  ASSERT_TRUE(fast.has_value()) << in.to_string();
  const LoadBound slow = reference_exhaustive(in);
  EXPECT_EQ(fast->machines, slow.machines) << in.to_string();
  EXPECT_EQ(fast->witness, slow.witness) << in.to_string();
}

void expect_single_interval_matches_reference(const Instance& in) {
  const LoadBound fast = load_bound_single_interval(in);
  const LoadBound slow = load_bound_single_interval_reference(in);
  EXPECT_EQ(fast.machines, slow.machines) << in.to_string();
  EXPECT_EQ(fast.witness, slow.witness) << in.to_string();
}

struct Family {
  const char* name;
  Instance (*generate)(Rng&, const GenConfig&);
};

// Every gen/ family; the alpha-parameterized ones at alpha = 1/2.
std::vector<Family> all_families() {
  return {
      {"general", gen_general},
      {"agreeable", gen_agreeable},
      {"laminar", gen_laminar},
      {"loose",
       [](Rng& rng, const GenConfig& c) {
         return gen_loose(rng, c, Rat(1, 2));
       }},
      {"tight",
       [](Rng& rng, const GenConfig& c) {
         return gen_tight(rng, c, Rat(1, 2));
       }},
      {"agreeable_tight",
       [](Rng& rng, const GenConfig& c) {
         return gen_agreeable_tight(rng, c, Rat(1, 2));
       }},
      {"laminar_tight",
       [](Rng& rng, const GenConfig& c) {
         return gen_laminar_tight(rng, c, Rat(1, 2));
       }},
      {"unit", gen_unit},
  };
}

// A job on the 1/den grid: release r/den, window w/den, processing p/den.
Job on_grid(std::int64_t r, std::int64_t w, std::int64_t p, std::int64_t den) {
  return {Rat(r, den), Rat(r + w, den), Rat(p, den)};
}

TEST(Theorem1Grid, ExhaustiveMatchesReferenceOnEveryFamily) {
  for (const std::int64_t den : {1, 2, 3}) {
    for (const Family& family : all_families()) {
      SCOPED_TRACE(std::string(family.name) + " 1/" + std::to_string(den));
      Rng rng(static_cast<std::uint64_t>(den) * 101 + 7);
      std::size_t checked = 0;
      for (int trial = 0; trial < 8 && checked < 2; ++trial) {
        const Instance in = family.generate(rng, GenConfig{6, 12, 8, den});
        if (segment_count(in) > 11) continue;  // keep the reference cheap
        ASSERT_TRUE(try_integer_grid(in).usable);
        expect_exhaustive_matches_reference(in);
        ++checked;
      }
      EXPECT_EQ(checked, 2u);
    }
  }
}

TEST(Theorem1Grid, ExhaustiveMatchesReferenceOnMixedDenominators) {
  // Jobs on 1/2, 1/3, 1/5 and 1/7 in one instance: the grid is 1/210.
  const std::int64_t dens[] = {2, 3, 5, 7};
  Rng rng(11);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<Job> jobs;
    for (std::size_t j = 0; j < 6; ++j) {
      // Release k + 1/den keeps den in lowest terms, so the lcm is 210.
      const std::int64_t den = dens[(j + static_cast<std::size_t>(trial)) % 4];
      const std::int64_t w = rng.uniform_int(1, 4 * den);
      jobs.push_back(on_grid(den * rng.uniform_int(0, 6) + 1, w,
                             rng.uniform_int(1, w), den));
    }
    const Instance in(jobs);
    const IntegerGrid grid = try_integer_grid(in);
    ASSERT_TRUE(grid.usable);
    EXPECT_EQ(grid.scale, Rat(210));
    expect_exhaustive_matches_reference(in);
    expect_single_interval_matches_reference(in);
  }
}

TEST(Theorem1Grid, ExhaustiveMatchesReferenceOnMalformedJobs) {
  // p > d - r, including empty and inverted windows: such a job still
  // contributes -l_j to a union that misses its window.
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Job> jobs;
    for (std::size_t j = 0; j < 5; ++j) {
      const std::int64_t r = rng.uniform_int(0, 16);
      const std::int64_t w = rng.uniform_int(-2, 6);
      // Half the jobs overrun their window; the rest fit a non-empty one.
      const std::int64_t room = std::max<std::int64_t>(w, 1);
      const std::int64_t p = rng.bernoulli(0.5) ? rng.uniform_int(room + 1, 9)
                                                : rng.uniform_int(1, room);
      jobs.push_back(on_grid(r, w, p, 2));
    }
    const Instance in(jobs);
    expect_exhaustive_matches_reference(in);
    expect_single_interval_matches_reference(in);
  }
}

TEST(Theorem1Grid, OffGridInstancesUseExactRationals) {
  // Two coprime denominators near 2^21: the lcm exceeds the grid's 40-bit
  // guard, so both bounds take their Rat instantiation.
  const std::int64_t dens[] = {(std::int64_t{1} << 21) - 1,
                               (std::int64_t{1} << 21) + 1};
  Rng rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Job> jobs;
    for (std::size_t j = 0; j < 5; ++j) {
      const std::int64_t den = dens[j % 2];
      const std::int64_t w = rng.uniform_int(den / 2, 6 * den);
      jobs.push_back(on_grid(rng.uniform_int(0, 8 * den), w,
                             rng.uniform_int(1, w), den));
    }
    const Instance in(jobs);
    ASSERT_FALSE(try_integer_grid(in).usable);
    expect_exhaustive_matches_reference(in);
    expect_single_interval_matches_reference(in);
  }
}

TEST(Theorem1Grid, ExhaustiveMatchesReferenceAtFifteenSegments) {
  // n = 8 reaches 16 event points: an odd S splits the subset-sum tables
  // 8 + 7 bits. Integer times keep the reference's 32767 unions cheap.
  Rng rng(19);
  bool checked = false;
  for (int trial = 0; trial < 400 && !checked; ++trial) {
    const Instance in = gen_general(rng, GenConfig{8, 24, 8, 1});
    if (segment_count(in) != 15) continue;
    expect_exhaustive_matches_reference(in);
    checked = true;
  }
  EXPECT_TRUE(checked);
}

TEST(Theorem1Grid, SingleIntervalMatchesReferenceOnFractionalGrids) {
  for (const std::int64_t den : {2, 3, 4, 7}) {
    Rng rng(static_cast<std::uint64_t>(den) * 31);
    for (const std::size_t n : {6, 16}) {
      for (const Family& family : all_families()) {
        const auto horizon = 3 * static_cast<std::int64_t>(n);
        const Instance in = family.generate(rng, GenConfig{n, horizon, 8, den});
        expect_single_interval_matches_reference(in);
      }
    }
  }
}

}  // namespace
}  // namespace minmach
