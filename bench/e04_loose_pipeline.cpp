// E4 -- Theorems 5/6/8: O(1)-competitive non-migratory scheduling of
// alpha-loose jobs via the speed-augmentation reduction (inflate J -> J^s,
// run the speed-s black box, replay at unit speed). The competitive ratio
// (machines / migratory OPT) must stay flat as n and m grow.
#include <iostream>
#include <vector>

#include "bench/bench_common.hpp"
#include "minmach/algos/loose.hpp"
#include "minmach/core/validate.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/cli.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace minmach;
  Cli cli(argc, argv);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 4));
  const std::int64_t threads_request = bench::threads_flag(cli);
  bench::Run ctx(cli, "E4: constant-competitive pipeline for alpha-loose jobs",
                 "for fixed alpha < 1, non-migratory online scheduling on "
                 "O(m) machines (Theorem 5); ratio flat in n and m");
  cli.check_unknown();
  ctx.config("seed", static_cast<std::int64_t>(seed));

  struct Setting {
    Rat alpha;
    Rat s;
  };
  const Setting settings[] = {
      {Rat(1, 4), Rat(2)},
      {Rat(1, 3), Rat(2)},
      {Rat(2, 5), Rat(2)},
      {Rat(1, 2), Rat(3, 2)},
  };
  const std::size_t setting_count = std::size(settings);

  // One task per (alpha, s) setting: each seeds its own Rng, so the rows it
  // returns are independent of how tasks are interleaved across threads.
  struct SettingResult {
    std::vector<std::vector<std::string>> rows;
    double worst_ratio = 0;
    std::string failure;
  };
  auto results = bench::parallel_map(
      setting_count, bench::resolve_threads(threads_request, setting_count),
      [&](std::size_t index) {
        const Setting& setting = settings[index];
        SettingResult out;
        Rng rng(seed);
        for (std::size_t n : {30u, 60u, 120u, 240u}) {
          GenConfig config;
          config.n = n;
          config.horizon = static_cast<std::int64_t>(n);  // density grows m with n
          Instance in = gen_loose(rng, config, setting.alpha);
          std::int64_t m = optimal_migratory_machines(in);
          if (m < 1) continue;
          LooseRun run = schedule_loose_jobs(in, setting.alpha, setting.s);
          ValidateOptions options;
          options.require_non_migratory = true;
          auto audit = validate(in, run.schedule, options);
          if (!audit.ok && out.failure.empty())
            out.failure = "pipeline schedule invalid: " + audit.summary();
          double ratio = static_cast<double>(run.machines_used) /
                         static_cast<double>(m);
          out.worst_ratio = std::max(out.worst_ratio, ratio);
          out.rows.push_back({setting.alpha.to_string(), setting.s.to_string(),
                              std::to_string(n), std::to_string(m),
                              std::to_string(run.machines_used),
                              Table::fmt(ratio, 3)});
        }
        return out;
      });

  Table table({"alpha", "s", "n", "m (OPT)", "pipeline machines",
               "machines/m"});
  double worst_ratio = 0;
  for (const SettingResult& result : results) {
    bench::require(result.failure.empty(), result.failure);
    for (const auto& row : result.rows) table.add_row(row);
    worst_ratio = std::max(worst_ratio, result.worst_ratio);
  }
  table.print(std::cout);
  ctx.table("pipeline machines vs OPT", table);
  std::cout << "\nworst observed competitive ratio: "
            << Table::fmt(worst_ratio, 3)
            << "  (paper: O(1), independent of n and m)\n";
  ctx.check("competitive ratio constant-like", Table::fmt(worst_ratio, 3),
            "25.000", worst_ratio <= 25.0);
  return 0;
} catch (const minmach::CliError& error) {
  return minmach::bench::usage_error(error);
}
