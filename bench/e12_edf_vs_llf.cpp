// E12 -- the Section 1 baselines (Phillips et al.): LLF is O(log Delta)-
// competitive while EDF has an Omega(Delta) lower bound. On the Dhall
// gadget family (Delta lights with an earlier deadline + one near-zero-
// laxity heavy; migratory OPT = 2 for every Delta), EDF's minimal feasible
// budget grows linearly in Delta while LLF's stays constant.
#include <iostream>

#include "bench/bench_common.hpp"
#include "minmach/adversary/edf_lb.hpp"
#include "minmach/algos/edf.hpp"
#include "minmach/algos/llf.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/util/cli.hpp"
#include "minmach/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace minmach;
  Cli cli(argc, argv);
  const std::int64_t max_delta = cli.get_int("max-delta", 64);
  bench::Run ctx(cli, "E12: EDF vs LLF as Delta grows (Phillips et al. "
                      "baselines)",
                 "EDF requires Omega(Delta) * OPT machines on some "
                 "instances; LLF stays polylog (O(log Delta))");
  cli.check_unknown();
  ctx.config("max-delta", max_delta);

  auto edf_factory = [](std::size_t budget) {
    return std::make_unique<EdfPolicy>(budget);
  };
  auto llf_factory = [](std::size_t budget) {
    return std::make_unique<LlfPolicy>(budget, Rat(1, 64));
  };

  Table table({"Delta", "OPT", "EDF minimal budget", "LLF minimal budget",
               "EDF/OPT", "LLF/OPT"});
  std::size_t previous_edf = 0;
  std::size_t last_llf = 0;
  for (std::int64_t delta = 4; delta <= max_delta; delta *= 2) {
    Instance in = gen_dhall(delta);
    std::int64_t opt = optimal_migratory_machines(in);
    bench::require(opt == 2, "Dhall gadget OPT must be 2");
    auto edf = min_feasible_budget(edf_factory, in, 1,
                                   static_cast<std::size_t>(delta) + 2);
    auto llf = min_feasible_budget(llf_factory, in, 1, 16);
    bench::require(edf.has_value(), "EDF search range too small");
    bench::require(llf.has_value(), "LLF should be feasible with few machines");
    bench::require(*edf >= previous_edf, "EDF budget should not shrink");
    previous_edf = *edf;
    last_llf = *llf;
    table.add_row({std::to_string(delta), std::to_string(opt),
                   std::to_string(*edf), std::to_string(*llf),
                   Table::fmt(static_cast<double>(*edf) / 2.0, 1),
                   Table::fmt(static_cast<double>(*llf) / 2.0, 1)});
  }
  table.print(std::cout);
  ctx.table("minimal feasible budgets on the Dhall gadget", table);
  ctx.check("EDF budget exceeds LLF budget at max Delta",
            std::to_string(previous_edf), "> " + std::to_string(last_llf),
            previous_edf > last_llf);
  std::cout << "\nShape check: EDF's column scales ~linearly with Delta "
               "(the Omega(Delta) failure mode);\nLLF's stays flat -- the "
               "contrast motivating laxity-aware scheduling in Section 1.\n";
  return 0;
} catch (const minmach::CliError& error) {
  return minmach::bench::usage_error(error);
}
