// E1 -- Theorem 3 / Lemma 2: the power of migration is unbounded.
//
// The recursive adversary forces every non-migratory online policy to open
// k machines with O(2^k) jobs, while the released instance stays feasible
// on THREE migratory machines (certified by exact max flow). The table
// reports, per opponent and level k: jobs n, machines forced, log2(n), and
// machines/log2(n) -- the paper's Omega(log n) shape means the last column
// is bounded below by a constant.
#include <cmath>
#include <iostream>

#include "bench/bench_common.hpp"
#include "minmach/adversary/strong_lb.hpp"
#include "minmach/algos/mediumfit.hpp"
#include "minmach/algos/nonpreemptive.hpp"
#include "minmach/algos/scale_class.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/util/cli.hpp"
#include "minmach/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace minmach;
  Cli cli(argc, argv);
  const int max_levels = static_cast<int>(cli.get_int("max-levels", 8));
  // Exact rational max-flow certification is expensive on the deepest
  // instances (their denominators grow with every level); by default the
  // first `certify-levels` levels are certified per opponent, which already
  // covers every structurally distinct construction step.
  const int certify_levels =
      static_cast<int>(cli.get_int("certify-levels", 6));
  bench::Run ctx(
      cli, "E1: strong lower bound for non-migratory online scheduling",
      "any non-migratory online algorithm needs Omega(log n) machines on "
      "instances with migratory OPT = 3 (Theorem 3)");
  cli.check_unknown();
  ctx.config("max-levels", static_cast<std::int64_t>(max_levels));
  ctx.config("certify-levels", static_cast<std::int64_t>(certify_levels));

  Table table({"opponent", "k", "jobs n", "machines", "log2(n)",
               "machines/log2(n)", "migratory OPT", "missed"});
  for (FitRule rule : {FitRule::kFirstFit, FitRule::kBestFit,
                       FitRule::kWorstFit, FitRule::kNextFit,
                       FitRule::kRandomFit}) {
    for (int k = 2; k <= max_levels; ++k) {
      FitPolicy policy(rule, /*seed=*/123);
      StrongLbResult result = run_strong_lower_bound(policy, k);
      bench::require(!result.opponent_missed_deadline,
                     "exact-admission policy missed a deadline");
      bench::require(result.machines_used >= static_cast<std::size_t>(k),
                     "adversary failed to force k machines");
      std::string opt = "(skipped)";
      if (k <= certify_levels) {
        bench::require(feasible_migratory(result.instance, 3),
                       "instance not feasible on 3 machines");
        // The exact optimum is cheap to pin down below 3.
        std::int64_t exact = feasible_migratory(result.instance, 2)
                                 ? (feasible_migratory(result.instance, 1)
                                        ? 1
                                        : 2)
                                 : 3;
        opt = std::to_string(exact);
      }
      double log2n = std::log2(static_cast<double>(result.jobs));
      table.add_row({fit_rule_name(rule), std::to_string(k),
                     std::to_string(result.jobs),
                     std::to_string(result.machines_used),
                     Table::fmt(log2n, 2),
                     Table::fmt(static_cast<double>(result.machines_used) /
                                log2n, 3),
                     opt, result.opponent_missed_deadline ? "YES" : "no"});
    }
  }
  // Non-preemptive opponents (the Saha side of Section 1): same forcing.
  auto np_row = [&](const char* label, auto&& policy, int k) {
    StrongLbResult result = run_strong_lower_bound(policy, k);
    bench::require(result.machines_used >= static_cast<std::size_t>(k),
                   "adversary failed against non-preemptive opponent");
    double log2n = std::log2(static_cast<double>(result.jobs));
    std::string opt = "(skipped)";
    if (k <= certify_levels) {
      bench::require(feasible_migratory(result.instance, 3),
                     "instance not feasible on 3 machines");
      opt = "<=3";
    }
    table.add_row({label, std::to_string(k), std::to_string(result.jobs),
                   std::to_string(result.machines_used), Table::fmt(log2n, 2),
                   Table::fmt(static_cast<double>(result.machines_used) /
                              log2n, 3),
                   opt, result.opponent_missed_deadline ? "YES" : "no"});
  };
  for (int k = 2; k <= std::min(max_levels, 6); ++k) {
    MediumFitPolicy medium;
    np_row("MediumFit(NP)", medium, k);
  }
  for (int k = 2; k <= std::min(max_levels, 6); ++k) {
    NonPreemptiveGreedyPolicy greedy;
    np_row("GreedyNP", greedy, k);
  }
  for (int k = 2; k <= std::min(max_levels, 6); ++k) {
    ScaleClassPolicy scale;
    np_row("ScaleClassNP", scale, k);
  }

  table.print(std::cout);
  ctx.table("forcing per opponent and level", table);
  std::cout << "\nShape check: 'machines' grows linearly in k while the\n"
               "certified migratory optimum stays <= 3 -- no function of m\n"
               "bounds the non-migratory online cost (Theorem 3), and the\n"
               "machines/log2(n) column stays bounded away from 0\n"
               "(the Omega(log n) rate).\n";
  return 0;
} catch (const minmach::CliError& error) {
  return minmach::bench::usage_error(error);
}
