#include "minmach/core/contribution.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace minmach
