// E5 -- Lemma 3: removing a gamma-fraction of every job's laxity from one
// side of its window raises the optimum by at most a 1/(1-gamma) factor
// (plus one): m(J^gamma) <= m(J)/(1-gamma) + 1. Both the left- and
// right-shrunk variants are measured across gamma.
#include <iostream>
#include <vector>

#include "bench/bench_common.hpp"
#include "minmach/core/transforms.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/cli.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace minmach;
  Cli cli(argc, argv);
  const std::int64_t trials = cli.get_int("trials", 6);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 5));
  const std::int64_t threads_request = bench::threads_flag(cli);
  bench::Run ctx(cli, "E5: window shrinking (Lemma 3)",
                 "m(J^gamma) <= m(J)/(1-gamma) + 1 for both one-sided shrinks");
  cli.check_unknown();
  ctx.config("trials", trials);
  ctx.config("seed", static_cast<std::int64_t>(seed));

  const Rat gammas[] = {Rat(1, 4), Rat(1, 2), Rat(2, 3), Rat(4, 5)};
  const std::size_t gamma_count = std::size(gammas);

  // One task per gamma; each seeds its own Rng so rows are identical at any
  // thread count.
  struct GammaResult {
    std::vector<std::string> row;
    int violations = 0;
  };
  auto results = bench::parallel_map(
      gamma_count, bench::resolve_threads(threads_request, gamma_count),
      [&](std::size_t index) {
        const Rat& gamma = gammas[index];
        Rng rng(seed);
        GenConfig config;
        config.n = 50;
        double sum_m = 0;
        double sum_left = 0;
        double sum_right = 0;
        double sum_bound = 0;
        GammaResult out;
        for (std::int64_t trial = 0; trial < trials; ++trial) {
          Instance in = gen_general(rng, config);
          std::int64_t m = optimal_migratory_machines(in);
          std::int64_t left = optimal_migratory_machines(
              shrink_window_left(in, gamma));
          std::int64_t right = optimal_migratory_machines(
              shrink_window_right(in, gamma));
          Rat bound = Rat(m) / (Rat(1) - gamma) + Rat(1);
          if (Rat(left) > bound || Rat(right) > bound) ++out.violations;
          sum_m += static_cast<double>(m);
          sum_left += static_cast<double>(left);
          sum_right += static_cast<double>(right);
          sum_bound += bound.to_double();
        }
        double t = static_cast<double>(trials);
        out.row = {gamma.to_string(), Table::fmt(sum_m / t, 2),
                   Table::fmt(sum_left / t, 2), Table::fmt(sum_right / t, 2),
                   Table::fmt(sum_bound / t, 2),
                   std::to_string(out.violations)};
        return out;
      });

  Table table({"gamma", "m(J) avg", "m(left) avg", "m(right) avg",
               "bound avg", "violations"});
  int total_violations = 0;
  for (const GammaResult& result : results) {
    table.add_row(result.row);
    total_violations += result.violations;
  }
  table.print(std::cout);
  ctx.table("shrunk optima vs Lemma 3 bound", table);
  ctx.check("Lemma 3 bound violations", std::to_string(total_violations), "0",
            total_violations == 0);
  std::cout << "\nShape check: the measured shrunk optima sit well below "
               "the m/(1-gamma)+1 bound at\nevery gamma, and grow as gamma "
               "-> 1 (laxity removal genuinely costs machines).\n";
  return 0;
} catch (const minmach::CliError& error) {
  return minmach::bench::usage_error(error);
}
