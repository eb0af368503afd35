// E9 -- Lemma 8: MediumFit (run every alpha-tight job exactly in the middle
// of its window) opens at most 16m/alpha machines on agreeable instances.
// Also reproduces the paper's remark that the two naive anchors -- latest
// ([r+l, d)) and earliest ([r, d-l)) -- are NOT O(m): on an end-aligned
// staircase the latest anchor stacks every job while MediumFit spreads
// them.
#include <algorithm>
#include <iostream>

#include "bench/bench_common.hpp"
#include "minmach/algos/mediumfit.hpp"
#include "minmach/core/validate.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/cli.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/table.hpp"

namespace {

// Staircase: job i has window [i, n+1) and p = 1. One machine suffices
// (chain them), but anchor-at-latest runs every job in [n, n+1).
minmach::Instance staircase(std::int64_t n) {
  minmach::Instance out;
  for (std::int64_t i = 0; i < n; ++i)
    out.add_job({minmach::Rat(i), minmach::Rat(n + 1), minmach::Rat(1)});
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace minmach;
  Cli cli(argc, argv);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 9));
  const std::int64_t trials = cli.get_int("trials", 5);
  bench::Run ctx(cli, "E9: MediumFit on agreeable alpha-tight instances "
                      "(Lemma 8)",
                 "peak machine use <= 16 m / alpha; the latest/earliest "
                 "anchors are not O(m)");
  cli.check_unknown();
  ctx.config("seed", static_cast<std::int64_t>(seed));
  ctx.config("trials", trials);

  Table table({"alpha", "m avg", "MediumFit machines avg", "16m/alpha avg",
               "usage/bound avg"});
  for (const Rat& alpha : {Rat(1, 4), Rat(1, 2), Rat(5, 8), Rat(3, 4)}) {
    Rng rng(seed);
    GenConfig config;
    config.n = 70;
    double sum_m = 0;
    double sum_used = 0;
    double sum_bound = 0;
    for (std::int64_t trial = 0; trial < trials; ++trial) {
      Instance in = gen_agreeable_tight(rng, config, alpha);
      std::int64_t m = std::max<std::int64_t>(
          1, optimal_migratory_machines(in));
      MediumFitPolicy policy;
      SimRun run = simulate(policy, in);
      ValidateOptions options;
      options.require_non_preemptive = true;
      options.require_non_migratory = true;
      auto audit = validate(in, run.schedule, options);
      bench::require(audit.ok, "MediumFit schedule invalid");
      double bound = 16.0 * static_cast<double>(m) / alpha.to_double();
      bench::require(static_cast<double>(run.machines_used) <= bound,
                     "Lemma 8 bound violated");
      sum_m += static_cast<double>(m);
      sum_used += static_cast<double>(run.machines_used);
      sum_bound += bound;
    }
    double t = static_cast<double>(trials);
    table.add_row({alpha.to_string(), Table::fmt(sum_m / t, 2),
                   Table::fmt(sum_used / t, 2), Table::fmt(sum_bound / t, 1),
                   Table::fmt(sum_used / sum_bound, 3)});
  }
  table.print(std::cout);
  ctx.table("MediumFit peak use vs 16m/alpha", table);

  // Anchor comparison on the staircase family.
  std::cout << "\nanchor comparison (staircase, OPT = 1):\n";
  Table anchors({"n", "MediumFit", "LatestFit", "EarliestFit"});
  for (std::int64_t n : {8, 16, 32, 64}) {
    Instance in = staircase(n);
    bench::require(optimal_migratory_machines(in) == 1, "staircase OPT != 1");
    std::size_t used[3];
    MediumFitAnchor variants[] = {MediumFitAnchor::kCenter,
                                  MediumFitAnchor::kLatest,
                                  MediumFitAnchor::kEarliest};
    for (int v = 0; v < 3; ++v) {
      MediumFitPolicy policy(variants[v]);
      SimRun run = simulate(policy, in);
      used[v] = run.machines_used;
    }
    anchors.add_row({std::to_string(n), std::to_string(used[0]),
                     std::to_string(used[1]), std::to_string(used[2])});
    bench::require(used[1] == static_cast<std::size_t>(n),
                   "latest anchor should stack all staircase jobs");
  }
  anchors.print(std::cout);
  ctx.table("anchor comparison on the staircase (OPT = 1)", anchors);
  std::cout << "\nShape check: LatestFit grows linearly in n at OPT = 1 "
               "(unbounded), the centered\nanchor stays near-constant -- "
               "the paper's justification for running jobs in the middle.\n";
  return 0;
} catch (const minmach::CliError& error) {
  return minmach::bench::usage_error(error);
}
