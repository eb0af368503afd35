// E11 -- Theorem 13 (quoted from [4]): EDF on m/(1-alpha)^2 machines
// schedules every instance of alpha-loose jobs. The sweep measures the
// MINIMAL machine budget EDF actually needs and compares it to the bound.
#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_common.hpp"
#include "minmach/adversary/edf_lb.hpp"
#include "minmach/algos/edf.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/cli.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace minmach;
  Cli cli(argc, argv);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 11));
  const std::int64_t trials = cli.get_int("trials", 4);
  const std::int64_t threads_request = bench::threads_flag(cli);
  bench::Run ctx(cli, "E11: EDF on alpha-loose instances (Theorem 13)",
                 "EDF is feasible on ceil(m/(1-alpha)^2) machines for "
                 "alpha-loose instances");
  cli.check_unknown();
  ctx.config("seed", static_cast<std::int64_t>(seed));
  ctx.config("trials", trials);

  const Rat alphas[] = {Rat(1, 4), Rat(1, 2), Rat(2, 3), Rat(3, 4)};
  const std::size_t alpha_count = std::size(alphas);

  // One task per alpha; each seeds its own Rng so rows are identical at any
  // thread count.
  struct AlphaResult {
    std::vector<std::string> row;
    int violations = 0;
    bool budget_found = true;
  };
  auto results = bench::parallel_map(
      alpha_count, bench::resolve_threads(threads_request, alpha_count),
      [&](std::size_t index) {
        const Rat& alpha = alphas[index];
        Rng rng(seed);
        GenConfig config;
        config.n = 60;
        double sum_m = 0;
        double sum_bound = 0;
        double sum_min = 0;
        AlphaResult out;
        for (std::int64_t trial = 0; trial < trials; ++trial) {
          Instance in = gen_loose(rng, config, alpha);
          std::int64_t m = std::max<std::int64_t>(
              1, optimal_migratory_machines(in));
          Rat one_minus = Rat(1) - alpha;
          std::int64_t bound =
              (Rat(m) / (one_minus * one_minus)).ceil().to_int64();
          auto factory = [](std::size_t budget) {
            return std::make_unique<EdfPolicy>(budget);
          };
          auto minimal = min_feasible_budget(
              factory, in, 1, static_cast<std::size_t>(bound) + 4);
          if (!minimal.has_value()) {
            out.budget_found = false;
            continue;
          }
          if (*minimal > static_cast<std::size_t>(bound)) ++out.violations;
          sum_m += static_cast<double>(m);
          sum_bound += static_cast<double>(bound);
          sum_min += static_cast<double>(*minimal);
        }
        double t = static_cast<double>(trials);
        out.row = {alpha.to_string(), Table::fmt(sum_m / t, 2),
                   Table::fmt(sum_bound / t, 2), Table::fmt(sum_min / t, 2),
                   Table::fmt(sum_min / sum_bound, 3),
                   std::to_string(out.violations)};
        return out;
      });

  Table table({"alpha", "m avg", "bound ceil(m/(1-a)^2) avg",
               "EDF minimal budget avg", "minimal/bound", "violations"});
  int total_violations = 0;
  for (const AlphaResult& result : results) {
    bench::require(result.budget_found,
                   "EDF infeasible even slightly above the bound");
    table.add_row(result.row);
    total_violations += result.violations;
  }
  table.print(std::cout);
  ctx.table("EDF minimal budget vs Theorem 13 bound", table);
  ctx.check("Theorem 13 budget violations", std::to_string(total_violations),
            "0", total_violations == 0);
  std::cout << "\nShape check: EDF's minimal budget tracks m and stays at "
               "or below the m/(1-alpha)^2\nbound at every alpha; the bound "
               "steepens as alpha -> 1 (tighter jobs).\n";
  return 0;
} catch (const minmach::CliError& error) {
  return minmach::bench::usage_error(error);
}
