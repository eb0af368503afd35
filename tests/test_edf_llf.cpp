#include <gtest/gtest.h>

#include <stdexcept>

#include "minmach/algos/edf.hpp"
#include "minmach/algos/llf.hpp"
#include "minmach/core/validate.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/rng.hpp"

namespace minmach {
namespace {

Job mk(std::int64_t r, std::int64_t d, std::int64_t p) {
  return {Rat(r), Rat(d), Rat(p)};
}

TEST(Edf, RunsEarliestDeadlinesFirst) {
  Instance in({mk(0, 10, 4), mk(0, 2, 2)});
  EdfPolicy policy(1);
  SimRun run = simulate(policy, in);
  EXPECT_FALSE(run.missed);
  // Job 1 (deadline 2) must occupy [0,2) on the single machine.
  const auto& slots = run.schedule.slots(0);
  ASSERT_GE(slots.size(), 2u);
  EXPECT_EQ(slots[0].job, 1u);
  EXPECT_EQ(slots[0].end, Rat(2));
  EXPECT_EQ(slots[1].job, 0u);
}

TEST(Edf, UsesBudgetInParallel) {
  Instance in({mk(0, 1, 1), mk(0, 1, 1), mk(0, 1, 1)});
  EdfPolicy policy(3);
  SimRun run = simulate(policy, in);
  EXPECT_FALSE(run.missed);
  EXPECT_EQ(run.machines_used, 3u);
  EXPECT_TRUE(validate(in, run.schedule).ok);
}

TEST(Edf, MissesWhenBudgetTooSmall) {
  Instance in({mk(0, 1, 1), mk(0, 1, 1)});
  EdfPolicy policy(1);
  SimRun run = simulate(policy, in, Rat(1), /*require_no_miss=*/false);
  EXPECT_TRUE(run.missed);
}

TEST(Edf, DhallEffect) {
  // The classic EDF pathology: b lights with earlier deadlines starve a
  // zero-ish-laxity heavy despite OPT = 2.
  Instance in({mk(0, 2, 2),  // heavy: laxity 0 (use integer variant)
               {Rat(0), Rat(1), Rat(1, 2)},
               {Rat(0), Rat(1), Rat(1, 2)}});
  std::int64_t opt = optimal_migratory_machines(in);
  EXPECT_EQ(opt, 2);
  EdfPolicy two(2);
  SimRun run = simulate(two, in, Rat(1), /*require_no_miss=*/false);
  EXPECT_TRUE(run.missed);  // both lights (d=1) beat the heavy (d=2)
  EdfPolicy three(3);
  EXPECT_FALSE(simulate(three, in, Rat(1), false).missed);
}

TEST(Llf, PrefersLeastLaxity) {
  // Same Dhall gadget: LLF runs the zero-laxity heavy immediately.
  Instance in({mk(0, 2, 2),
               {Rat(0), Rat(1), Rat(1, 2)},
               {Rat(0), Rat(1), Rat(1, 2)}});
  LlfPolicy policy(2);
  SimRun run = simulate(policy, in, Rat(1), /*require_no_miss=*/false);
  EXPECT_FALSE(run.missed);
  EXPECT_TRUE(validate(in, run.schedule).ok);
}

TEST(Llf, WakesUpAtLaxityCrossing) {
  // Running loose job vs waiting tighter job released later: the waiting
  // job's laxity falls below the running one's mid-interval.
  Instance in({mk(0, 10, 4), mk(1, 6, 3)});
  LlfPolicy policy(1);
  SimRun run = simulate(policy, in);
  EXPECT_FALSE(run.missed);
  EXPECT_TRUE(validate(in, run.schedule).ok);
  // Job 1 (laxity 2 at release, vs job 0 laxity 6): must preempt job 0.
  EXPECT_EQ(run.schedule.slots(0)[1].job, 1u);
}

// LLF that refuses to dispatch more than 1000 times, so a run whose events
// pile up toward one instant fails instead of hanging.
class BoundedLlf : public LlfPolicy {
 public:
  using LlfPolicy::LlfPolicy;
  void dispatch(Simulator& sim) override {
    if (++dispatches_ > 1000)
      throw std::runtime_error("LLF: events pile up toward one instant");
    LlfPolicy::dispatch(sim);
  }

 private:
  std::size_t dispatches_ = 0;
};

TEST(Llf, CrossesLaxitiesExactlyAtSpeedAboveOne) {
  // On speed-5/4 machines the running job's laxity (6) rises at rate 1/4
  // while the waiting job's (7) falls at rate 1, so they cross at
  // 1 / (5/4) = 4/5, where the waiting job takes over. A wake-up at 1
  // would overshoot the crossing, and each swap after it would come 4x
  // sooner than the last: infinitely many events before t = 4/3.
  Instance in({mk(0, 8, 2), mk(0, 9, 2)});
  BoundedLlf policy(1);
  SimRun run = simulate(policy, in, Rat(5, 4));
  EXPECT_FALSE(run.missed);
  EXPECT_EQ(run.schedule.to_string(),
            "Schedule(1 machines)\n  M0: [0,4/5)j0 [4/5,12/5)j1 "
            "[12/5,16/5)j0\n");
  ValidateOptions options;
  options.speed = Rat(5, 4);
  EXPECT_TRUE(validate(in, run.schedule, options).ok);
}

class PolicyFeasibility : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PolicyFeasibility, EdfLooseBoundTheorem13) {
  // Theorem 13: EDF on ceil(m/(1-alpha)^2) machines schedules any
  // alpha-loose instance.
  Rng rng(GetParam());
  GenConfig config;
  config.n = 40;
  const Rat alpha(1, 2);
  for (int iter = 0; iter < 4; ++iter) {
    Instance in = gen_loose(rng, config, alpha);
    std::int64_t m = optimal_migratory_machines(in);
    ASSERT_GE(m, 1);
    Rat budget_rat = Rat(m) / ((Rat(1) - alpha) * (Rat(1) - alpha));
    auto budget = static_cast<std::size_t>(budget_rat.ceil().to_int64());
    EdfPolicy policy(budget);
    SimRun run = simulate(policy, in);
    EXPECT_FALSE(run.missed);
    auto result = validate(in, run.schedule);
    EXPECT_TRUE(result.ok) << result.summary();
    EXPECT_LE(run.machines_used, budget);
  }
}

TEST_P(PolicyFeasibility, LlfWithGenerousBudgetValidates) {
  Rng rng(GetParam() + 7);
  GenConfig config;
  config.n = 25;
  Instance in = gen_general(rng, config);
  std::int64_t m = optimal_migratory_machines(in);
  // Generous budget: n machines can never miss under LLF... but assert the
  // schedule is valid and uses a bounded machine count.
  LlfPolicy policy(in.size());
  SimRun run = simulate(policy, in, Rat(1), /*require_no_miss=*/false);
  EXPECT_FALSE(run.missed);
  auto result = validate(in, run.schedule);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GE(run.machines_used, static_cast<std::size_t>(m) > 0 ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyFeasibility,
                         ::testing::Values(42u, 43u, 44u));

}  // namespace
}  // namespace minmach
