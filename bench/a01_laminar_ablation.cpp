// A1 (ablation) -- the design choices of Section 5:
//  (a) budget ablation: sweep the laminar machine budget m' downward; at
//      small budgets assignments fail, and every failure yields a §5.2
//      witness set whose measured (mu, beta) meets Lemma 7's (m', 1/m') --
//      via Theorem 10 that certifies m = Omega(m'/log m'), i.e. failures
//      only happen when the budget really is too small;
//  (b) greedy ablation: the paper notes that greedily assigning to the
//      innermost candidate with the "necessary criterion" only (no m'-way
//      sub-budget split) fails; the table compares failure onset of the
//      greedy rule vs the balanced scheme at equal budgets;
//  (c) the guess-and-double wrapper (§2's "optimum may be assumed known"):
//      machines used and final guess without knowing m.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench/bench_common.hpp"
#include "minmach/algos/laminar.hpp"
#include "minmach/core/validate.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/cli.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace minmach;
  Cli cli(argc, argv);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 21));
  // Duplicating each window `copies` times keeps the instance laminar while
  // multiplying the load -- the knob that pushes m high enough for a rich
  // failure curve.
  const int copies = static_cast<int>(cli.get_int("copies", 4));
  bench::Run ctx(cli, "A1: laminar design ablations (budget split, greedy "
                      "rule, doubling)",
                 "failures at budget m' witness (m',1/m')-critical pairs "
                 "(Lemma 7); failures vanish at the Theorem 9 budget");
  cli.check_unknown();
  ctx.config("seed", static_cast<std::int64_t>(seed));
  ctx.config("copies", static_cast<std::int64_t>(copies));

  Rng rng(seed);
  GenConfig config;
  config.n = 300;
  config.horizon = 400;
  config.denominator = 4;
  Instance base = gen_laminar_tight(rng, config, Rat(1, 2));
  Instance in;
  for (const Job& j : base.jobs())
    for (int k = 0; k < copies; ++k) in.add_job(j);
  in.sort_canonical();
  bench::require(in.is_laminar(), "duplication broke laminarity");
  std::int64_t m = optimal_migratory_machines(in);
  std::cout << "instance: " << in.size() << " tight laminar jobs ("
            << copies << " copies per window), m = " << m << "\n\n";

  Table table({"budget m'", "balanced fails", "witness mu", "mu >= m'",
               "witness beta", "beta >= 1/m'", "greedy fails"});
  for (std::size_t budget : {2u, 3u, 4u, 6u, 8u, 12u, 16u, 24u, 32u}) {
    LaminarPolicy balanced(budget);
    SimRun run = simulate(balanced, in, Rat(1), /*require_no_miss=*/true);
    (void)run;
    GreedyLaminarPolicy greedy(budget);
    SimRun greedy_run = simulate(greedy, in, Rat(1), true);
    (void)greedy_run;

    std::string mu = "-";
    std::string mu_ok = "-";
    std::string beta = "-";
    std::string beta_ok = "-";
    if (balanced.failure_witness()) {
      CriticalPairStats stats =
          evaluate_critical_pair(*balanced.failure_witness());
      mu = std::to_string(stats.coverage);
      mu_ok = stats.coverage >= budget ? "yes" : "NO";
      beta = Table::fmt(stats.beta.to_double(), 3);
      beta_ok = stats.beta >= Rat(1, static_cast<std::int64_t>(budget))
                    ? "yes"
                    : "NO";
      bench::require(stats.coverage >= budget,
                     "witness coverage below m' (Lemma 7)");
      bench::require(stats.beta >= Rat(1, static_cast<std::int64_t>(budget)),
                     "witness beta below 1/m' (Lemma 7)");
    }
    table.add_row({std::to_string(budget),
                   std::to_string(balanced.assignment_failures()), mu, mu_ok,
                   beta, beta_ok,
                   std::to_string(greedy.assignment_failures())});
  }
  table.print(std::cout);
  ctx.table("budget sweep: balanced vs greedy failures", table);

  // Theorem budget: zero failures.
  auto theorem_budget = static_cast<std::size_t>(
      8.0 * static_cast<double>(m) *
      std::max(1.0, std::log2(static_cast<double>(m)))) + 1;
  LaminarPolicy at_theorem(theorem_budget);
  SimRun run = simulate(at_theorem, in, Rat(1), true);
  (void)run;
  ctx.check("failures at the Theorem 9 budget",
            std::to_string(at_theorem.assignment_failures()), "0",
            at_theorem.assignment_failures() == 0);
  std::cout << "\nTheorem 9 budget m' = " << theorem_budget << ": "
            << at_theorem.assignment_failures() << " failures\n";

  // Guess-and-double wrapper.
  AdaptiveLaminarPolicy adaptive(4.0);
  SimRun adaptive_run = simulate(adaptive, in, Rat(1), true);
  ValidateOptions options;
  options.require_non_migratory = true;
  auto audit = validate(in, adaptive_run.schedule, options);
  bench::require(audit.ok, "adaptive schedule invalid");
  std::cout << "guess-and-double (no knowledge of m): "
            << adaptive_run.machines_used << " machines, final guess "
            << adaptive.current_guess() << " (true m = " << m << "), "
            << adaptive.epochs() << " epochs\n"
            << "\nShape check: failures decay to zero well before the "
               "Theorem 9 budget, and every\nfailure's witness is "
               "(m',1/m')-critical exactly as Lemma 7 states. On this "
               "random\nfamily the greedy rule happens to stop failing "
               "even earlier -- the paper's point\nis that greedy fails on "
               "WORST-CASE instances ([10, Thm 2.13]) where the balanced\n"
               "split provably cannot (Theorem 9 has no greedy analogue).\n";
  return 0;
} catch (const minmach::CliError& error) {
  return minmach::bench::usage_error(error);
}
