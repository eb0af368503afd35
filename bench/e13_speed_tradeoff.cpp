// E13 -- Theorem 7 (Chan, Lam & To, quoted in Section 4): with speed
// (1+eps)^2, a non-migratory online algorithm needs only ceil((1+1/eps)^2)
// * m machines -- a speed/machine-count trade-off. The sweep runs the
// library's speed-s black box (non-migratory EDF-FirstFit with exact
// admission) at increasing speeds on random instances and reports the
// measured machines/m against the CLT bound: more speed, fewer machines.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "minmach/algos/nonmig.hpp"
#include "minmach/core/validate.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/sim/engine.hpp"
#include "minmach/util/cli.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace minmach;
  Cli cli(argc, argv);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 13));
  const std::int64_t trials = cli.get_int("trials", 5);
  const std::int64_t threads_request = bench::threads_flag(cli);
  bench::Run ctx(cli, "E13: speed / machine trade-off (Theorem 7, "
                      "Chan-Lam-To)",
                 "speed (1+eps)^2 machines suffice at ceil((1+1/eps)^2) * m; "
                 "the machines-per-m curve falls as speed rises");
  cli.check_unknown();
  ctx.config("seed", static_cast<std::int64_t>(seed));
  ctx.config("trials", trials);

  const Rat speeds[] = {Rat(1), Rat(5, 4), Rat(3, 2), Rat(2), Rat(3)};
  const std::size_t speed_count = std::size(speeds);

  // One task per speed; each seeds its own Rng so rows are identical at any
  // thread count. The cross-speed monotonicity check runs at aggregation.
  struct SpeedResult {
    std::vector<std::string> row;
    double avg = 0;
    std::string failure;
  };
  auto results = bench::parallel_map(
      speed_count, bench::resolve_threads(threads_request, speed_count),
      [&](std::size_t index) {
        const Rat& s = speeds[index];
        Rng rng(seed);
        GenConfig config;
        config.n = 60;
        double sum_ratio = 0;
        double max_ratio = 0;
        SpeedResult out;
        for (std::int64_t trial = 0; trial < trials; ++trial) {
          Instance in = gen_general(rng, config);
          std::int64_t m = std::max<std::int64_t>(
              1, optimal_migratory_machines(in));
          FitPolicy policy(FitRule::kFirstFit);
          SimRun run = simulate(policy, in, s, /*require_no_miss=*/true);
          ValidateOptions options;
          options.require_non_migratory = true;
          options.speed = s;
          auto audit = validate(in, run.schedule, options);
          if (!audit.ok && out.failure.empty())
            out.failure = "speed-s schedule invalid: " + audit.summary();
          double ratio = static_cast<double>(run.machines_used) /
                         static_cast<double>(m);
          sum_ratio += ratio;
          max_ratio = std::max(max_ratio, ratio);
        }
        double sd = s.to_double();
        double eps = std::sqrt(sd) - 1.0;
        std::string bound =
            eps > 0 ? Table::fmt(std::ceil((1 + 1 / eps) * (1 + 1 / eps)), 0)
                    : "unbounded";
        out.avg = sum_ratio / static_cast<double>(trials);
        out.row = {s.to_string(), Table::fmt(eps, 3), bound,
                   Table::fmt(out.avg, 3), Table::fmt(max_ratio, 3)};
        return out;
      });

  Table table({"speed s", "eps = sqrt(s)-1", "CLT bound/m",
               "measured machines/m avg", "max"});
  double previous_avg = 1e18;
  bool monotone = true;
  for (const SpeedResult& result : results) {
    bench::require(result.failure.empty(), result.failure);
    table.add_row(result.row);
    if (result.avg > previous_avg + 0.25) monotone = false;
    previous_avg = result.avg;
  }
  table.print(std::cout);
  ctx.table("machines/m vs speed", table);
  ctx.check("machines/m non-increasing in speed", monotone ? "yes" : "no",
            "yes", monotone);
  std::cout << "\nShape check: the measured machines-per-m curve is "
               "non-increasing in the speed and\nsits far below the CLT "
               "worst-case bound -- the trade-off Theorem 6 plugs into.\n";
  return 0;
} catch (const minmach::CliError& error) {
  return minmach::bench::usage_error(error);
}
