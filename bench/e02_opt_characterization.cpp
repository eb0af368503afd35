// E2 -- Theorem 1: the load characterization of the migratory optimum.
//
// On every enumerable instance, the exact flow optimum must EQUAL the
// maximum of ceil(C(S,I)/|I|) over unions of elementary segments; on larger
// instances the single-interval bound must stay a valid lower bound. Both
// directions of the theorem are exercised across instance families.
#include <iostream>

#include "bench/bench_common.hpp"
#include "minmach/core/contribution.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/cli.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace minmach;
  Cli cli(argc, argv);
  const std::int64_t trials = bench::positive_count_flag(cli, "trials", 40, 0);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  bench::Run ctx(cli, "E2: Theorem 1 -- optimum = max interval-union load",
                 "m = max_I ceil(C(S,I)/|I|), attained by some finite union I");
  cli.check_unknown();
  ctx.config("trials", trials);
  ctx.config("seed", static_cast<std::int64_t>(seed));

  struct Family {
    const char* name;
    Instance (*generate)(Rng&, const GenConfig&);
  };
  const Family families[] = {
      {"general", gen_general},
      {"agreeable", gen_agreeable},
      {"laminar", gen_laminar},
      {"unit", gen_unit},
  };

  Table table({"family", "trials", "exact matches", "single-int tight",
               "max opt seen"});
  for (const Family& family : families) {
    Rng rng(seed);
    GenConfig config;
    config.n = 6;  // <= 11 elementary segments: exhaustive search is exact
    config.horizon = 12;
    config.max_window = 8;
    config.denominator = 2;
    std::int64_t matches = 0;
    std::int64_t single_tight = 0;
    std::int64_t max_opt = 0;
    for (std::int64_t i = 0; i < trials; ++i) {
      Instance in = family.generate(rng, config);
      std::int64_t opt = optimal_migratory_machines(in);
      auto exhaustive = load_bound_exhaustive(in, 20);
      bench::require(exhaustive.has_value(), "instance too large for E2");
      bench::require(exhaustive->machines == opt,
                     "Theorem 1 equality failed on " + in.to_string());
      ++matches;
      LoadBound single = load_bound_single_interval(in);
      bench::require(single.machines <= opt,
                     "single-interval bound exceeded the optimum");
      if (single.machines == opt) ++single_tight;
      max_opt = std::max(max_opt, opt);
    }
    table.add_row({family.name, std::to_string(trials),
                   std::to_string(matches), std::to_string(single_tight),
                   std::to_string(max_opt)});
  }
  table.print(std::cout);
  ctx.table("Theorem 1 equality per family", table);

  // Larger instances: single-interval lower bound validity.
  Rng rng(seed + 1);
  GenConfig big;
  big.n = 80;
  std::int64_t valid = 0;
  const std::int64_t big_trials = 10;
  for (std::int64_t i = 0; i < big_trials; ++i) {
    Instance in = gen_general(rng, big);
    std::int64_t opt = optimal_migratory_machines(in);
    LoadBound single = load_bound_single_interval(in);
    bench::require(single.machines <= opt, "lower bound violated at n=80");
    ++valid;
  }
  ctx.check("single-interval load bound valid at n=80", std::to_string(valid),
            std::to_string(big_trials), valid == big_trials);
  std::cout << "\nlarge-instance check (n=80): single-interval load bound <= "
               "flow OPT in " << valid << "/" << big_trials << " trials\n"
            << "Theorem 1 equality held in every enumerable trial above.\n";
  return 0;
} catch (const minmach::CliError& error) {
  return minmach::bench::usage_error(error);
}
