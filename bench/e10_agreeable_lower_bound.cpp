// E10 -- Theorem 15 / Lemma 9: no online algorithm (even migratory) can
// schedule all agreeable unit-processing instances on fewer than
// (6 - 2 sqrt(6)) m ~ 1.101 m machines. The adaptive wave adversary is run
// against EDF and LLF across a budget sweep crossing the threshold: below
// it the opponents are forced to miss (the zero-laxity threat branch fires
// once their backlog makes it unservable); with comfortable budgets they
// survive every round.
#include <iostream>

#include "bench/bench_common.hpp"
#include "minmach/adversary/agreeable_lb.hpp"
#include "minmach/algos/edf.hpp"
#include "minmach/algos/llf.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/util/cli.hpp"
#include "minmach/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace minmach;
  Cli cli(argc, argv);
  const std::int64_t m = cli.get_int("m", 16);
  const int rounds = static_cast<int>(cli.get_int("rounds", 60));
  const bool certify = cli.get_bool("certify", true);
  bench::Run ctx(cli, "E10: lower bound for agreeable instances (Theorem 15)",
                 "no online algorithm on (6 - 2*sqrt(6) - eps) m ~ 1.101 m "
                 "machines; identical processing times, agreeable waves");
  cli.check_unknown();
  ctx.config("m", m);
  ctx.config("rounds", static_cast<std::int64_t>(rounds));
  ctx.config("certify", certify ? "true" : "false");

  Table table({"opponent", "budget", "budget/m", "rounds survived",
               "threat fired", "missed", "OPT <= m"});
  struct BudgetCase {
    std::int64_t budget;
  };
  for (const char* kind : {"EDF", "LLF"}) {
    for (std::int64_t budget :
         {m, m + m / 16, m + m / 8, m + m / 4, m + m / 2, 2 * m}) {
      AgreeableLbParams params;
      params.m = m;
      params.alpha = Rat(1, 4);
      params.max_rounds = rounds;
      params.opponent_budget = budget;

      AgreeableLbResult result;
      if (std::string(kind) == "EDF") {
        EdfPolicy policy(static_cast<std::size_t>(budget));
        result = run_agreeable_lower_bound(policy, params);
      } else {
        LlfPolicy policy(static_cast<std::size_t>(budget), Rat(1, 8));
        result = run_agreeable_lower_bound(policy, params);
      }

      std::string opt_ok = "-";
      if (certify && result.jobs <= 600) {
        std::int64_t opt = optimal_migratory_machines(result.instance);
        bench::require(opt <= m, "adversary instance needs > m machines");
        opt_ok = "yes (" + std::to_string(opt) + ")";
      }
      table.add_row({kind, std::to_string(budget),
                     Table::fmt(static_cast<double>(budget) /
                                static_cast<double>(m), 3),
                     std::to_string(result.rounds_survived),
                     result.threat_released ? "yes" : "no",
                     result.missed ? "YES" : "no", opt_ok});
    }
  }
  table.print(std::cout);
  ctx.table("wave adversary vs EDF/LLF across budgets", table);
  std::cout << "\nShape check: at budget/m ~ 1.0 every opponent is forced "
               "to miss within a few waves;\nthe survival boundary sits "
               "near the paper's 1.101 threshold, and the released\n"
               "instances stay feasible on m machines (agreeable, unit "
               "jobs).\n";
  return 0;
} catch (const minmach::CliError& error) {
  return minmach::bench::usage_error(error);
}
