// B1 -- bound tier: the certified OPT sandwich (DESIGN.md section 14) in
// front of the exact max-flow oracle, on the workloads the tier was built
// for. Every oracle here is a never-edited batch oracle, so it consults the
// sandwich; FeasibilityOracle::probe() gives the network's own verdict for
// comparison.
//
// Three phases:
//
//   strong-lb family : every recursion level of the Theorem 3 adversary,
//       k = 2..levels, as level-slice sub-instances, each queried for OPT
//       once. Enforced: >= 70% of the queries are answered with zero
//       network probes (the sandwich pinches, so OPT costs no network
//       build), and the sandwich is computed exactly once per query.
//   shrink sweep     : the Lemma 3 window-shrink body (4 gamma points,
//       base + left-shrunk image per point) over a mixed base set: the
//       complete k-level adversary game per k = 2..levels (rational
//       windows, the paper's own hard instances) plus --trials random
//       general instances of --sweep-n jobs (integer grids), so the sweep
//       crosses both oracle modes end to end. Two back-to-back passes of
//       OPT queries, timed against two passes of the least a network-only
//       search must do: probe(OPT) on a fresh oracle per query (one network
//       build and one max flow). Enforced >= 1.5x end-to-end wall at full
//       size (recorded, not enforced, at smoke sizes -- wall ratios on tiny
//       inputs measure the scheduler).
//   exactness        : for every shrink-sweep base, every left-shrunk
//       image and every level slice, and every m in [1, n], feasible(m) must
//       equal the network's probe(m), and OPT must be the least m the
//       network accepts. The sandwich is certified on
//       both sides, so any disagreement is a soundness bug, not a
//       tolerance.
//
// bounds.* tallies are execution-class, so --report bytes do not depend on
// what the tier answers. Writes --out (BENCH_bounds.json).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "minmach/adversary/strong_lb.hpp"
#include "minmach/core/transforms.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/obs/json.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/table.hpp"

namespace {

using namespace minmach;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Adversary-game instances, k = 2..levels: every level slice plus the
// complete game per k (the shrink sweep's rational-mode bases).
struct AdversaryFamilies {
  std::vector<Instance> slices;
  std::vector<Instance> full_games;
};

AdversaryFamilies adversary_families(int levels) {
  AdversaryFamilies out;
  for (int k = 2; k <= levels; ++k) {
    FitPolicy policy(FitRule::kFirstFit, /*seed=*/123);
    StrongLbResult result = run_strong_lower_bound(policy, k);
    for (const StrongLbLevelSlice& slice : result.level_slices)
      out.slices.push_back(slice_instance(result, slice));
    out.full_games.push_back(result.instance);
  }
  return out;
}

struct TierMeasurement {
  std::uint64_t probes = 0;          // network probes actually executed
  std::uint64_t zero_probe = 0;      // queries answered without a probe
  std::uint64_t pinched = 0;         // bounds.pinched registry delta
  std::uint64_t computed = 0;        // bounds.computed registry delta
  double wall_ms = 0.0;
};

// Queries every instance's OPT once, sequentially.
TierMeasurement run_tier(const std::vector<Instance>& family) {
  obs::Registry& registry = obs::Registry::global();
  obs::drain_hot_tallies();
  const std::uint64_t pinched0 = registry.counter("bounds.pinched").value();
  const std::uint64_t computed0 = registry.counter("bounds.computed").value();

  TierMeasurement out;
  const Clock::time_point start = Clock::now();
  for (const Instance& instance : family) {
    FeasibilityOracle oracle(instance);
    (void)oracle.optimal_machines();
    out.probes += oracle.probes_executed();
    if (oracle.probes_executed() == 0) ++out.zero_probe;
  }
  out.wall_ms = ms_since(start);
  obs::drain_hot_tallies();
  out.pinched = registry.counter("bounds.pinched").value() - pinched0;
  out.computed = registry.counter("bounds.computed").value() - computed0;
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  const int levels = static_cast<int>(cli.get_int("levels", 6));
  const std::size_t sweep_n =
      static_cast<std::size_t>(cli.get_int("sweep-n", 48));
  const int trials = static_cast<int>(cli.get_int("trials", 3));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 9));
  const std::string out_path = cli.get_string("out", "BENCH_bounds.json");
  bench::Run ctx(cli,
                 "B1: bound tier -- certified OPT sandwich vs exact oracle",
                 "a pinched sandwich answers OPT without the max flow; the "
                 "sandwich is certified, so verdicts never change");
  cli.check_unknown();
  bench::require(levels >= 2, "--levels must be >= 2");
  bench::require(trials >= 1, "--trials must be >= 1");
  ctx.config("levels", static_cast<std::int64_t>(levels));
  ctx.config("sweep-n", static_cast<std::int64_t>(sweep_n));
  ctx.config("trials", static_cast<std::int64_t>(trials));
  ctx.config("seed", static_cast<std::int64_t>(seed));

  // --- phase A: strong-lb family, queries answered without a probe -------
  AdversaryFamilies adversary = adversary_families(levels);
  const std::vector<Instance>& family = adversary.slices;
  std::size_t family_jobs = 0;
  for (const Instance& instance : family) family_jobs += instance.size();
  const TierMeasurement tier = run_tier(family);

  Table family_table(
      {"queries", "0-probe queries", "probes", "pinched", "wall ms"});
  family_table.add_row({std::to_string(family.size()),
                        std::to_string(tier.zero_probe),
                        std::to_string(tier.probes),
                        std::to_string(tier.pinched),
                        Table::fmt(tier.wall_ms, 2)});
  family_table.print(std::cout);
  ctx.table("strong-lb family (" + std::to_string(family.size()) +
                " level slices, " + std::to_string(family_jobs) + " jobs)",
            family_table);

  const double zero_probe_share =
      family.empty() ? 0.0
                     : static_cast<double>(tier.zero_probe) /
                           static_cast<double>(family.size());
  ctx.check("strong-lb family: >= 70% of queries answered with 0 probes",
            Table::fmt(zero_probe_share, 3), ">= 0.70",
            zero_probe_share >= 0.70);
  ctx.check("strong-lb family: sandwich computed once per query",
            std::to_string(tier.computed), std::to_string(family.size()),
            tier.computed == family.size());

  // --- phase B: window-shrink sweep end-to-end wall ----------------------
  // Mixed bases: the full adversary game per level (rational mode, where
  // network probes pay BigInt arithmetic) plus random general instances
  // (integer mode, SIMD grid).
  Rng rng(seed);
  GenConfig config;
  config.n = sweep_n;
  std::vector<Instance> bases = adversary.full_games;
  bases.reserve(bases.size() + static_cast<std::size_t>(trials));
  for (int trial = 0; trial < trials; ++trial)
    bases.push_back(gen_general(rng, config));
  const std::vector<Rat> gammas = {Rat(1, 4), Rat(1, 2), Rat(2, 3),
                                   Rat(4, 5)};
  // Per gamma point, the base instance and its left-shrunk image.
  std::vector<Instance> shrunk;
  std::vector<Instance> queries;
  for (const Rat& gamma : gammas) {
    for (const Instance& base : bases) {
      shrunk.push_back(shrink_window_left(base, gamma));
      queries.push_back(base);
      queries.push_back(shrunk.back());
    }
  }

  const int passes = 2;
  std::vector<std::int64_t> opts;
  Clock::time_point start = Clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    std::vector<std::int64_t> pass_opts;
    pass_opts.reserve(queries.size());
    for (const Instance& query : queries)
      pass_opts.push_back(FeasibilityOracle(query).optimal_machines());
    bench::require(pass == 0 || pass_opts == opts,
                   "shrink sweep: passes disagree");
    opts = std::move(pass_opts);
  }
  const double sweep_tier_ms = ms_since(start);
  start = Clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < queries.size(); ++i)
      bench::require(FeasibilityOracle(queries[i]).probe(opts[i]),
                     "shrink sweep: the network rejects the tier's OPT");
  }
  const double sweep_network_ms = ms_since(start);

  const double sweep_speedup =
      sweep_network_ms / std::max(1e-9, sweep_tier_ms);
  Table sweep_table({"search", "passes", "wall ms"});
  sweep_table.add_row({"OPT (bound tier)", std::to_string(passes),
                       Table::fmt(sweep_tier_ms, 2)});
  sweep_table.add_row({"probe(OPT) only", std::to_string(passes),
                       Table::fmt(sweep_network_ms, 2)});
  sweep_table.print(std::cout);
  ctx.table("window-shrink sweep (4 gammas x " + std::to_string(bases.size()) +
                " bases: " + std::to_string(adversary.full_games.size()) +
                " adversary games + " + std::to_string(trials) +
                " general n=" + std::to_string(sweep_n) + ")",
            sweep_table);
  // Wall ratios on sub-millisecond smoke inputs measure the scheduler, not
  // the tier; the threshold binds only at full sweep size.
  const bool full_size = sweep_n >= 32 && levels >= 6;
  ctx.check(full_size
                ? "shrink sweep: e2e wall speedup >= 1.5x over probe(OPT)"
                : "shrink sweep: e2e wall speedup (recorded, smoke size)",
            Table::fmt(sweep_speedup, 2), full_size ? ">= 1.5" : "> 0",
            full_size ? sweep_speedup >= 1.5 : sweep_speedup > 0.0);

  // --- phase C: verdict-for-verdict exactness vs the network -------------
  // Every verdict the tier hands out -- short-circuited, pinched, or
  // probed inside the bracket -- must equal the network's own, m by m, and
  // OPT must be the least machine count the network accepts. The sweep's
  // bases and every shrunk image are checked here, so an OPT the tier gets
  // wrong in phase B cannot pass on phase B's one-sided probe alone.
  std::vector<Instance> exact_set = bases;
  exact_set.insert(exact_set.end(), shrunk.begin(), shrunk.end());
  exact_set.insert(exact_set.end(), family.begin(), family.end());
  std::uint64_t probes_compared = 0;
  const std::uint64_t skipped0 =
      obs::Registry::global().counter("bounds.probes_skipped").value();
  for (const Instance& instance : exact_set) {
    FeasibilityOracle tier_oracle(instance);
    FeasibilityOracle network(instance);
    const std::int64_t n = static_cast<std::int64_t>(instance.size());
    std::int64_t least_accepted = 0;
    for (std::int64_t m = 1; m <= n; ++m) {
      const bool verdict = network.probe(m);
      bench::require(tier_oracle.feasible(m) == verdict,
                     "exactness: feasible(" + std::to_string(m) +
                         ") diverges from the network's probe");
      if (verdict && least_accepted == 0) least_accepted = m;
      ++probes_compared;
    }
    bench::require(tier_oracle.optimal_machines() == least_accepted,
                   "exactness: OPT diverges from the network");
  }
  obs::drain_hot_tallies();
  const std::uint64_t probes_skipped =
      obs::Registry::global().counter("bounds.probes_skipped").value() -
      skipped0;
  ctx.check("exactness: verdict-for-verdict equal to the network's probe",
            std::to_string(probes_compared) + " probes", "all equal", true);

  // Machine-readable record (wall times included, so this file is NOT
  // byte-deterministic -- unlike --report).
  std::ofstream os(out_path);
  bench::require(static_cast<bool>(os), "cannot open " + out_path);
  obs::JsonWriter json(os);
  json.begin_object();
  bench::write_bench_stamp(json);
  json.key("experiment").value("b01_bound_tier");
  json.key("seed").value(static_cast<std::int64_t>(seed));
  json.key("strong_lb_family").begin_object();
  json.key("levels").value(static_cast<std::int64_t>(levels));
  json.key("slices").value(static_cast<std::int64_t>(family.size()));
  json.key("jobs").value(static_cast<std::int64_t>(family_jobs));
  json.key("probes").value(tier.probes);
  json.key("zero_probe_share").value(zero_probe_share);
  // Keyed by their registry counter names.
  json.key("bounds.pinched").value(tier.pinched);
  json.key("bounds.probes_skipped").value(probes_skipped);
  json.key("wall_ms").value(tier.wall_ms);
  json.end_object();
  json.key("shrink_sweep").begin_object();
  json.key("gammas").value(static_cast<std::int64_t>(gammas.size()));
  json.key("adversary_bases")
      .value(static_cast<std::int64_t>(adversary.full_games.size()));
  json.key("trials").value(static_cast<std::int64_t>(trials));
  json.key("n").value(static_cast<std::int64_t>(sweep_n));
  json.key("passes").value(static_cast<std::int64_t>(passes));
  json.key("wall_tier_ms").value(sweep_tier_ms);
  json.key("wall_network_ms").value(sweep_network_ms);
  json.key("speedup").value(sweep_speedup);
  json.key("threshold_enforced").value(full_size);
  json.end_object();
  json.key("exactness").begin_object();
  json.key("instances").value(static_cast<std::int64_t>(exact_set.size()));
  json.key("probes_compared").value(probes_compared);
  json.end_object();
  json.end_object();
  os << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
} catch (const minmach::CliError& error) {
  return minmach::bench::usage_error(error);
}
