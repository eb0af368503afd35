// E7 -- Theorem 9 / 11: laminar instances admit a non-migratory online
// algorithm on O(m log m) machines. The budget algorithm runs on laminar
// forests of growing size; the table reports machines used against the
// m*log2(m) yardstick and asserts zero budget failures at the theorem's
// budget.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench/bench_common.hpp"
#include "minmach/algos/laminar.hpp"
#include "minmach/algos/nonmig.hpp"
#include "minmach/core/validate.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/cli.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace minmach;
  Cli cli(argc, argv);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  bench::Run ctx(cli, "E7: laminar instances (Theorems 9 and 11)",
                 "non-migratory online schedule on O(m log m) machines for "
                 "laminar instances");
  cli.check_unknown();
  ctx.config("seed", static_cast<std::int64_t>(seed));

  Table table({"n", "m (OPT)", "budget m'", "machines used", "m*log2(m)",
               "used/(m log m)", "budget fails", "FirstFit baseline"});
  Rng rng(seed);
  std::size_t total_failures = 0;
  for (std::size_t n : {40u, 80u, 160u, 320u}) {
    GenConfig config;
    config.n = n;
    config.horizon = static_cast<std::int64_t>(2 * n);
    Instance in = gen_laminar_tight(rng, config, Rat(1, 2));
    bench::require(in.is_laminar(), "generator produced non-laminar input");
    std::int64_t m = std::max<std::int64_t>(
        1, optimal_migratory_machines(in));
    double mlogm = static_cast<double>(m) *
                   std::max(1.0, std::log2(static_cast<double>(m)));
    auto budget = static_cast<std::size_t>(8.0 * mlogm) + 1;
    LaminarRun run = schedule_laminar(in, budget, Rat(1, 2), Rat(3, 2));
    ValidateOptions options;
    options.require_non_migratory = true;
    auto audit = validate(in, run.schedule, options);
    bench::require(audit.ok, "laminar schedule invalid: " + audit.summary());
    total_failures += run.assignment_failures;

    FitPolicy baseline(FitRule::kFirstFit);
    SimRun ff = simulate(baseline, in);

    table.add_row({std::to_string(n), std::to_string(m),
                   std::to_string(budget),
                   std::to_string(run.machines_total), Table::fmt(mlogm, 1),
                   Table::fmt(static_cast<double>(run.machines_total) / mlogm,
                              3),
                   std::to_string(run.assignment_failures),
                   std::to_string(ff.machines_used)});
  }
  table.print(std::cout);
  ctx.table("laminar budget algorithm vs m*log2(m)", table);
  ctx.check("budget failures at the theorem budget",
            std::to_string(total_failures), "0", total_failures == 0);
  std::cout << "\nShape check: machines used stay bounded by a constant "
               "times m*log2(m) as n grows\n(Theorem 9), with zero "
               "assignment failures at the theorem budget.\n";
  return 0;
} catch (const minmach::CliError& error) {
  return minmach::bench::usage_error(error);
}
