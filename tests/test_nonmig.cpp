#include "minmach/algos/nonmig.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "minmach/adversary/strong_lb.hpp"
#include "minmach/algos/single_machine.hpp"
#include "minmach/core/validate.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/rng.hpp"

namespace minmach {
namespace {

Job mk(std::int64_t r, std::int64_t d, std::int64_t p) {
  return {Rat(r), Rat(d), Rat(p)};
}

TEST(FitPolicy, FirstFitPacksSequentially) {
  Instance in({mk(0, 2, 1), mk(0, 2, 1), mk(0, 2, 1)});
  FitPolicy policy(FitRule::kFirstFit);
  SimRun run = simulate(policy, in);
  EXPECT_FALSE(run.missed);
  // Each machine can hold two of the three unit jobs; first fit opens 2.
  EXPECT_EQ(run.machines_used, 2u);
  ValidateOptions options;
  options.require_non_migratory = true;
  auto result = validate(in, run.schedule, options);
  EXPECT_TRUE(result.ok) << result.summary();
}

TEST(FitPolicy, OpensMachineWhenNothingFits) {
  Instance in({mk(0, 1, 1), mk(0, 1, 1), mk(0, 1, 1)});
  FitPolicy policy(FitRule::kFirstFit);
  SimRun run = simulate(policy, in);
  EXPECT_FALSE(run.missed);
  EXPECT_EQ(run.machines_used, 3u);  // zero laxity jobs cannot share
}

TEST(FitPolicy, CommitmentIsRemembered) {
  Instance in({mk(0, 4, 2), mk(1, 5, 2)});
  FitPolicy policy(FitRule::kFirstFit);
  Simulator sim(policy);
  sim.submit_all(in);
  sim.run_until(Rat(1));
  EXPECT_TRUE(policy.machine_of(0).has_value());
  EXPECT_TRUE(policy.machine_of(1).has_value());
  sim.run_to_completion();
  // Committed machine matches where the job actually ran.
  Schedule s = sim.schedule();
  for (JobId id = 0; id < in.size(); ++id) {
    auto machines = s.machines_of(id);
    ASSERT_EQ(machines.size(), 1u);
    EXPECT_EQ(machines[0], *policy.machine_of(id));
  }
}

struct RuleCase {
  FitRule rule;
  std::uint64_t seed;
};

class AllFitRules : public ::testing::TestWithParam<RuleCase> {};

TEST_P(AllFitRules, NeverMissesAndStaysNonMigratory) {
  // Exact admission + per-machine EDF implies no fit policy ever misses a
  // deadline, on any instance.
  Rng rng(GetParam().seed);
  GenConfig config;
  config.n = 40;
  for (int iter = 0; iter < 3; ++iter) {
    Instance in = gen_general(rng, config);
    FitPolicy policy(GetParam().rule, /*seed=*/GetParam().seed);
    SimRun run = simulate(policy, in);
    EXPECT_FALSE(run.missed);
    ValidateOptions options;
    options.require_non_migratory = true;
    auto result = validate(in, run.schedule, options);
    EXPECT_TRUE(result.ok) << policy.name() << "\n" << result.summary();
    // Sanity: cannot beat the migratory optimum.
    EXPECT_GE(run.machines_used, static_cast<std::size_t>(
                                     optimal_migratory_machines(in)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rules, AllFitRules,
    ::testing::Values(RuleCase{FitRule::kFirstFit, 1},
                      RuleCase{FitRule::kBestFit, 2},
                      RuleCase{FitRule::kWorstFit, 3},
                      RuleCase{FitRule::kRandomFit, 4},
                      RuleCase{FitRule::kNextFit, 5}),
    [](const ::testing::TestParamInfo<RuleCase>& info) {
      return fit_rule_name(info.param.rule);
    });

// FirstFit that checks every admission verdict: machine_can_take (Jackson's
// rule) on each open machine against the event-driven EDF simulation
// edf_feasible_single_machine on the same active commitments plus the new
// job.
class CheckedFirstFit : public NonMigratoryPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "CheckedFirstFit"; }

  std::size_t probes = 0;
  std::size_t refusals = 0;
  std::size_t max_operand_bits = 0;

 protected:
  std::size_t choose_machine(Simulator& sim, JobId job) override {
    std::size_t chosen = open_machines();
    for (std::size_t m = 0; m < open_machines(); ++m) {
      std::vector<MachineCommitment> commitments;
      for (JobId id : jobs_on(m)) {
        if (sim.finished(id) || sim.missed(id)) continue;
        commitments.push_back(
            {sim.job(id).release, sim.job(id).deadline, sim.remaining(id)});
      }
      commitments.push_back(
          {sim.job(job).release, sim.job(job).deadline, sim.remaining(job)});
      for (const MachineCommitment& c : commitments) {
        for (const Rat* value : {&c.deadline, &c.remaining}) {
          max_operand_bits = std::max(
              {max_operand_bits, value->num().bit_length(),
               value->den().bit_length()});
        }
      }
      const bool jackson = machine_can_take(sim, m, job);
      const bool edf =
          edf_feasible_single_machine(commitments, sim.now(), sim.speed());
      ++probes;
      if (!jackson) ++refusals;
      if (jackson != edf) {
        ADD_FAILURE() << "job " << job << " machine " << m << " at t="
                      << sim.now() << " speed " << sim.speed()
                      << ": Jackson " << jackson << ", EDF " << edf;
      }
      if (jackson && chosen == open_machines()) chosen = m;
    }
    return chosen;
  }
};

TEST(FitPolicy, AdmissionMatchesEventDrivenEdfOnEveryFamily) {
  const Rat alpha(1, 2);
  GenConfig config;
  config.n = 60;
  std::size_t refusals = 0;
  for (const Rat& speed : {Rat(1), Rat(3, 2)}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed);
      const Instance instances[] = {
          gen_general(rng, config),
          gen_agreeable(rng, config),
          gen_laminar(rng, config),
          gen_loose(rng, config, alpha),
          gen_tight(rng, config, alpha),
          gen_agreeable_tight(rng, config, alpha),
          gen_laminar_tight(rng, config, alpha),
          gen_unit(rng, config)};
      for (const Instance& in : instances) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        CheckedFirstFit policy;
        SimRun run = simulate(policy, in, speed);
        EXPECT_FALSE(run.missed);
        EXPECT_GT(policy.probes, 0u);
        refusals += policy.refusals;
      }
    }
  }
  EXPECT_GT(refusals, 0u);  // both verdicts were exercised
}

// The Theorem 3 game rescales each level by a quantity read off the
// opponent's schedule; from depth 7 on its operands pass 128 bits.
TEST(FitPolicy, AdmissionMatchesEventDrivenEdfInStrongLbGames) {
  struct Game {
    Rat alpha;
    Rat beta;
    int levels;
  };
  const Game games[] = {
      {Rat(3, 4), Rat(1, 4), 6}, {Rat(3, 4), Rat(1, 4), 7},
      {Rat(3, 4), Rat(1, 4), 8}, {Rat(3, 4), Rat(1, 5), 7},
      {Rat(4, 5), Rat(1, 5), 7}, {Rat(5, 6), Rat(1, 6), 7}};
  for (const Game& game : games) {
    SCOPED_TRACE(::testing::Message() << "alpha " << game.alpha << " beta "
                                      << game.beta << " levels "
                                      << game.levels);
    StrongLbParams params;
    params.alpha = game.alpha;
    params.beta = game.beta;
    CheckedFirstFit policy;
    StrongLbResult result = run_strong_lower_bound(policy, game.levels, params);
    EXPECT_FALSE(result.opponent_missed_deadline);
    EXPECT_GT(policy.refusals, 0u);
    if (game.levels >= 7) {
      EXPECT_GT(policy.max_operand_bits, 128u);
    }
  }
}

// Wraps a non-migratory policy and checks, after every dispatch, that each
// open machine lists its active commitments in (deadline ticks, id) order
// and runs the EDF job a full scan of every job committed to it picks.
// The scan reads machine_of(), not the machine's list.
template <class Policy>
class DispatchChecked : public Policy {
 public:
  using Policy::Policy;

  std::size_t dispatches = 0;

  void dispatch(Simulator& sim) override {
    Policy::dispatch(sim);
    ++dispatches;
    const auto active = [&](JobId id) {
      return sim.released(id) && !sim.finished(id) && !sim.missed(id);
    };
    const auto edf_before = [&](JobId a, JobId b) {
      const auto order = sim.deadline_ticks(a) <=> sim.deadline_ticks(b);
      return order < 0 || (order == 0 && a < b);
    };
    for (std::size_t m = 0; m < this->open_machines(); ++m) {
      JobId previous = kInvalidJob;
      for (JobId id : this->jobs_on(m)) {
        if (!active(id)) continue;
        if (previous != kInvalidJob) {
          EXPECT_TRUE(edf_before(previous, id))
              << "machine " << m << " lists job " << previous
              << " before job " << id << " at t=" << sim.now();
        }
        previous = id;
      }
      JobId edf = kInvalidJob;
      for (JobId id = 0; id < sim.job_count(); ++id) {
        if (!active(id) || this->machine_of(id) != m) continue;
        if (edf == kInvalidJob || edf_before(id, edf)) edf = id;
      }
      EXPECT_EQ(sim.running_on(m), edf)
          << "machine " << m << " at t=" << sim.now();
    }
  }
};

// Commits every job to machine 0, which overloads it: deadlines pass with
// work left, so the policy's on_miss runs.
class MachineZero : public NonMigratoryPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "MachineZero"; }

 protected:
  std::size_t choose_machine(Simulator&, JobId) override { return 0; }
};

const FitRule kAllRules[] = {FitRule::kFirstFit, FitRule::kBestFit,
                             FitRule::kWorstFit, FitRule::kRandomFit,
                             FitRule::kNextFit};

TEST(FitPolicy, DispatchRunsTheEdfJobOfEveryMachineOnEveryFamily) {
  const Rat alpha(1, 2);
  GenConfig config;
  config.n = 40;
  std::size_t misses = 0;
  for (const Rat& speed : {Rat(1), Rat(3, 2)}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      Rng rng(seed);
      const Instance instances[] = {
          gen_general(rng, config),
          gen_agreeable(rng, config),
          gen_laminar(rng, config),
          gen_loose(rng, config, alpha),
          gen_tight(rng, config, alpha),
          gen_agreeable_tight(rng, config, alpha),
          gen_laminar_tight(rng, config, alpha),
          gen_unit(rng, config)};
      for (const Instance& in : instances) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " speed " << speed);
        for (FitRule rule : kAllRules) {
          DispatchChecked<FitPolicy> policy(rule, seed);
          SimRun run = simulate(policy, in, speed);
          EXPECT_FALSE(run.missed) << policy.name();
          EXPECT_GT(policy.dispatches, 0u);
        }
        DispatchChecked<MachineZero> overloaded;
        SimRun run = simulate(overloaded, in, speed, /*require_no_miss=*/false);
        if (run.missed) ++misses;
      }
    }
  }
  EXPECT_GT(misses, 0u);  // on_miss ran
}

TEST(FitPolicy, DispatchRunsTheEdfJobOfEveryMachineInStrongLbGames) {
  for (FitRule rule : kAllRules) {
    SCOPED_TRACE(fit_rule_name(rule));
    DispatchChecked<FitPolicy> policy(rule, 7);
    StrongLbResult result = run_strong_lower_bound(policy, 6);
    EXPECT_FALSE(result.opponent_missed_deadline);
    EXPECT_GT(policy.dispatches, 0u);
  }
}

TEST(FitPolicy, NamesAreDistinct) {
  EXPECT_STREQ(fit_rule_name(FitRule::kFirstFit), "FirstFit");
  EXPECT_STREQ(fit_rule_name(FitRule::kBestFit), "BestFit");
  EXPECT_STREQ(fit_rule_name(FitRule::kWorstFit), "WorstFit");
  EXPECT_STREQ(fit_rule_name(FitRule::kRandomFit), "RandomFit");
  EXPECT_STREQ(fit_rule_name(FitRule::kNextFit), "NextFit");
  FitPolicy policy(FitRule::kBestFit);
  EXPECT_EQ(policy.name(), "NonMig-BestFit");
}

}  // namespace
}  // namespace minmach
