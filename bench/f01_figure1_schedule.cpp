// F1 -- Figure 1: the offline 3-machine migratory schedule of the
// lower-bound instance. The adversary is played (k = 4) against FirstFit,
// the resulting instance is certified feasible on 3 machines by exact max
// flow, a concrete 3-machine schedule is materialized via McNaughton
// wrap-around, and both the offline schedule and the opponent's forced
// k-machine schedule are rendered as ASCII Gantt charts.
#include <iostream>

#include "bench/bench_common.hpp"
#include "minmach/adversary/strong_lb.hpp"
#include "minmach/core/validate.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/io/gantt.hpp"
#include "minmach/obs/trace.hpp"
#include "minmach/sim/engine.hpp"
#include "minmach/util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace minmach;
  Cli cli(argc, argv);
  const int levels = static_cast<int>(cli.get_int("levels", 4));
  // Chrome trace_event export of the offline schedule (one track per
  // machine); load the file in chrome://tracing or Perfetto.
  const std::string chrome = cli.get_string("chrome-trace", "");
  bench::Run ctx(cli, "F1: Figure 1 -- the 3-machine offline schedule of "
                      "the adversarial instance",
                 "the instance forcing any non-migratory online algorithm "
                 "to k machines has a migratory schedule on 3 machines with "
                 "idle margins");
  cli.check_unknown();
  ctx.config("levels", static_cast<std::int64_t>(levels));

  FitPolicy opponent(FitRule::kFirstFit);
  StrongLbResult result = run_strong_lower_bound(opponent, levels);
  std::cout << "instance: " << result.jobs << " jobs, critical time "
            << result.critical_time.to_string() << "\n";

  std::int64_t opt = optimal_migratory_machines(result.instance);
  ctx.check("migratory optimum <= 3", std::to_string(opt), "3", opt <= 3);
  std::cout << "certified migratory optimum: " << opt << " machines\n\n";

  Schedule offline = optimal_migratory_schedule(result.instance, 3);
  auto audit = validate(result.instance, offline);
  bench::require(audit.ok, "offline schedule failed validation");
  if (!chrome.empty()) {
    obs::save_chrome_trace(chrome, result.instance, offline,
                           "F1 offline 3-machine schedule");
    std::cout << "chrome trace written to " << chrome << "\n";
  }

  GanttOptions options;
  options.width = 110;
  options.show_legend = false;
  std::cout << "offline migratory schedule on 3 machines (Figure 1):\n"
            << render_gantt(result.instance, offline, options) << "\n";

  FitPolicy replay(FitRule::kFirstFit);
  SimRun online = simulate(replay, result.instance);
  std::cout << "the same instance forces non-migratory FirstFit onto "
            << online.machines_used << " machines:\n"
            << render_gantt(result.instance, online.schedule, options);
  std::cout << "\nmigrations offline: " << offline.migration_count()
            << "; online (non-migratory by construction): "
            << online.schedule.migration_count() << "\n";
  ctx.check("online schedule non-migratory",
            std::to_string(online.schedule.migration_count()), "0",
            online.schedule.migration_count() == 0);
  return 0;
} catch (const minmach::CliError& error) {
  return minmach::bench::usage_error(error);
}
