// B1 -- bound tier: the certified OPT sandwich (DESIGN.md section 14) in
// front of the exact max-flow oracle, A/B'd via the global bounds gate on
// the workloads the tier was built for.
//
// Three phases, each cross-checked for exact result equality:
//
//   strong-lb family : every recursion level of the Theorem 3 adversary,
//       k = 2..levels, as level-slice sub-instances (the q01 family).
//       Each slice's OPT is queried with the bound tier off and on, cache
//       off in both modes so every probe is a real max-flow. Enforced:
//       >= 70% of executed network probes eliminated with the tier on --
//       the sandwich must pinch (lo == hi) on most slices, answering OPT
//       with zero probes and no network build.
//   shrink sweep     : the Lemma 3 window-shrink body (4 gamma points,
//       base + left-shrunk image per point) over a mixed base set: the
//       complete k-level adversary game per k = 2..levels (rational
//       windows, the paper's own hard instances) plus --trials random
//       general instances of --sweep-n jobs (integer grids), so the sweep
//       crosses both oracle modes end to end. Two back-to-back passes per
//       mode, cache off. Enforced >= 1.5x end-to-end wall with the tier on
//       at full size (recorded, not enforced, at smoke sizes -- wall
//       ratios on tiny inputs measure the scheduler).
//   exactness        : probe-for-probe differential against the exact
//       tier -- for every instance of both families, OPT is computed once
//       with the tier off, then for every m in [1, n] feasible(m) under
//       the tier must equal m >= OPT, and the tier's OPT must match. The
//       sandwich is certified on both sides, so any disagreement is a
//       soundness bug, not a tolerance.
//
// The phases drive the tier through set_bounds_tier_enabled themselves
// (the --bounds flag still parses; this driver A/Bs both modes in one
// run). bounds.* tallies are execution-class, so --report bytes stay
// identical whatever the tier does. Writes --out (BENCH_bounds.json).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "minmach/adversary/strong_lb.hpp"
#include "minmach/core/bounds.hpp"
#include "minmach/core/transforms.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/obs/json.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/util/opt_cache.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/table.hpp"

namespace {

using namespace minmach;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Adversary-game instances, k = 2..levels: every level slice (same family
// construction as q01, so the two benches stress the same shapes) plus the
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
  std::uint64_t probes = 0;     // network probes actually executed
  std::uint64_t pinched = 0;    // bounds.pinched registry delta
  std::uint64_t computed = 0;   // bounds.computed registry delta
  std::uint64_t checksum = 0;   // order-sensitive fold of the OPT values
  double wall_ms = 0.0;
};

// Queries every instance once, sequentially, with the bound tier gated as
// requested (cache stays off: every avoided probe here is the tier's own
// doing, not a fingerprint hit).
TierMeasurement run_tier(const std::vector<Instance>& family, bool bounds_on) {
  set_bounds_tier_enabled(bounds_on);
  obs::Registry& registry = obs::Registry::global();
  obs::drain_hot_tallies();
  const std::uint64_t pinched0 = registry.counter("bounds.pinched").value();
  const std::uint64_t computed0 = registry.counter("bounds.computed").value();

  TierMeasurement out;
  const Clock::time_point start = Clock::now();
  for (const Instance& instance : family) {
    FeasibilityOracle oracle(instance);
    const std::int64_t opt = oracle.optimal_machines();
    out.probes += oracle.probes_executed();
    out.checksum = out.checksum * 1099511628211ULL +
                   static_cast<std::uint64_t>(opt);
  }
  out.wall_ms = ms_since(start);
  obs::drain_hot_tallies();
  out.pinched = registry.counter("bounds.pinched").value() - pinched0;
  out.computed = registry.counter("bounds.computed").value() - computed0;
  set_bounds_tier_enabled(false);
  return out;
}

// One pass of the e05-style window-shrink sweep body: per gamma point, OPT
// of the base instance and of its left-shrunk image.
std::uint64_t shrink_sweep_pass(const std::vector<Instance>& bases,
                                const std::vector<Rat>& gammas) {
  std::uint64_t checksum = 0;
  for (const Rat& gamma : gammas) {
    for (const Instance& base : bases) {
      checksum = checksum * 1099511628211ULL +
                 static_cast<std::uint64_t>(
                     FeasibilityOracle(base).optimal_machines());
      checksum = checksum * 1099511628211ULL +
                 static_cast<std::uint64_t>(
                     FeasibilityOracle(shrink_window_left(base, gamma))
                         .optimal_machines());
    }
  }
  return checksum;
}

}  // namespace

int main(int argc, char** argv) {
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

  // Cache off for the whole run: the tier must earn its probe eliminations
  // itself, not through fingerprint hits.
  util::OptCache::global().configure(
      false, static_cast<std::size_t>(bench::kDefaultCacheCapacity));

  // --- phase A: strong-lb family, probes eliminated ----------------------
  AdversaryFamilies adversary = adversary_families(levels);
  const std::vector<Instance>& family = adversary.slices;
  std::size_t family_jobs = 0;
  for (const Instance& instance : family) family_jobs += instance.size();
  const TierMeasurement off = run_tier(family, /*bounds_on=*/false);
  const TierMeasurement on = run_tier(family, /*bounds_on=*/true);
  bench::require(off.checksum == on.checksum,
                 "strong-lb family: bound-tier OPT values disagree with exact");

  Table family_table({"mode", "queries", "probes", "pinched", "wall ms"});
  family_table.add_row({"bounds-off", std::to_string(family.size()),
                        std::to_string(off.probes), "-",
                        Table::fmt(off.wall_ms, 2)});
  family_table.add_row({"bounds-on", std::to_string(family.size()),
                        std::to_string(on.probes), std::to_string(on.pinched),
                        Table::fmt(on.wall_ms, 2)});
  family_table.print(std::cout);
  ctx.table("strong-lb family (" + std::to_string(family.size()) +
                " level slices, " + std::to_string(family_jobs) + " jobs)",
            family_table);

  const double eliminated_share =
      off.probes == 0
          ? 0.0
          : 1.0 - static_cast<double>(on.probes) /
                      static_cast<double>(off.probes);
  ctx.check("strong-lb family: >= 70% of probes eliminated by the sandwich",
            Table::fmt(eliminated_share, 3), ">= 0.70",
            eliminated_share >= 0.70);
  ctx.check("strong-lb family: sandwich computed once per query",
            std::to_string(on.computed), std::to_string(family.size()),
            on.computed == family.size());
  ctx.check("strong-lb family: bounds-off ran the exact tier",
            std::to_string(off.computed), "0", off.computed == 0);

  // --- phase B: window-shrink sweep end-to-end wall ----------------------
  // Mixed bases: the full adversary game per level (rational mode, where
  // exact probes pay BigInt arithmetic) plus random general instances
  // (integer mode, SIMD grid). The sweep's wall time is dominated by
  // whichever probes the tier fails to eliminate.
  Rng rng(seed);
  GenConfig config;
  config.n = sweep_n;
  std::vector<Instance> bases = adversary.full_games;
  bases.reserve(bases.size() + static_cast<std::size_t>(trials));
  for (int trial = 0; trial < trials; ++trial)
    bases.push_back(gen_general(rng, config));
  const std::vector<Rat> gammas = {Rat(1, 4), Rat(1, 2), Rat(2, 3),
                                   Rat(4, 5)};

  const int passes = 2;
  auto run_sweep = [&](bool bounds_on, double& wall_ms) {
    set_bounds_tier_enabled(bounds_on);
    std::uint64_t checksum = 0;
    const Clock::time_point start = Clock::now();
    for (int pass = 0; pass < passes; ++pass) {
      const std::uint64_t pass_sum = shrink_sweep_pass(bases, gammas);
      bench::require(pass == 0 || pass_sum == checksum,
                     "shrink sweep: passes disagree within one mode");
      checksum = pass_sum;
    }
    wall_ms = ms_since(start);
    set_bounds_tier_enabled(false);
    return checksum;
  };
  double sweep_off_ms = 0.0, sweep_on_ms = 0.0;
  const std::uint64_t sweep_off = run_sweep(/*bounds_on=*/false, sweep_off_ms);
  const std::uint64_t sweep_on = run_sweep(/*bounds_on=*/true, sweep_on_ms);
  bench::require(sweep_off == sweep_on,
                 "shrink sweep: bound-tier results disagree with exact");

  const double sweep_speedup = sweep_off_ms / std::max(1e-9, sweep_on_ms);
  Table sweep_table({"mode", "passes", "wall ms"});
  sweep_table.add_row({"bounds-off", std::to_string(passes),
                       Table::fmt(sweep_off_ms, 2)});
  sweep_table.add_row({"bounds-on", std::to_string(passes),
                       Table::fmt(sweep_on_ms, 2)});
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
                ? "shrink sweep: e2e wall speedup >= 1.5x with bound tier"
                : "shrink sweep: e2e wall speedup (recorded, smoke size)",
            Table::fmt(sweep_speedup, 2), full_size ? ">= 1.5" : "> 0",
            full_size ? sweep_speedup >= 1.5 : sweep_speedup > 0.0);

  // --- phase C: probe-for-probe exactness vs the exact tier --------------
  // Every verdict the tier hands out -- short-circuited, pinched, or
  // probed inside the bracket -- must equal the exact oracle's, m by m:
  // feasible(m) iff m >= OPT, with OPT from a tier-off run. The sandwich
  // makes this an identity, not a bound.
  std::vector<Instance> exact_set = bases;
  for (const Instance& instance : family) exact_set.push_back(instance);
  std::vector<std::int64_t> exact_opt;
  exact_opt.reserve(exact_set.size());
  set_bounds_tier_enabled(false);
  for (const Instance& instance : exact_set)
    exact_opt.push_back(FeasibilityOracle(instance).optimal_machines());
  set_bounds_tier_enabled(true);
  std::uint64_t probes_compared = 0;
  const std::uint64_t skipped0 =
      obs::Registry::global().counter("bounds.probes_skipped").value();
  for (std::size_t i = 0; i < exact_set.size(); ++i) {
    FeasibilityOracle tier(exact_set[i]);
    const std::int64_t n = static_cast<std::int64_t>(exact_set[i].size());
    for (std::int64_t m = 1; m <= n; ++m) {
      bench::require(tier.feasible(m) == (m >= exact_opt[i]),
                     "exactness: feasible(" + std::to_string(m) +
                         ") diverges from the exact tier");
      ++probes_compared;
    }
    bench::require(tier.optimal_machines() == exact_opt[i],
                   "exactness: OPT diverges from the exact tier");
  }
  obs::drain_hot_tallies();
  const std::uint64_t probes_skipped =
      obs::Registry::global().counter("bounds.probes_skipped").value() -
      skipped0;
  set_bounds_tier_enabled(false);
  ctx.check("exactness: probe-for-probe verdicts equal the exact tier",
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
  json.key("probes_off").value(off.probes);
  json.key("probes_on").value(on.probes);
  json.key("eliminated_share").value(eliminated_share);
  json.key("bounds").begin_object();
  json.key("pinched").value(on.pinched);
  json.key("probes_skipped").value(probes_skipped);
  json.end_object();
  json.key("wall_off_ms").value(off.wall_ms);
  json.key("wall_on_ms").value(on.wall_ms);
  json.end_object();
  json.key("shrink_sweep").begin_object();
  json.key("gammas").value(static_cast<std::int64_t>(gammas.size()));
  json.key("adversary_bases")
      .value(static_cast<std::int64_t>(adversary.full_games.size()));
  json.key("trials").value(static_cast<std::int64_t>(trials));
  json.key("n").value(static_cast<std::int64_t>(sweep_n));
  json.key("passes").value(static_cast<std::int64_t>(passes));
  json.key("wall_off_ms").value(sweep_off_ms);
  json.key("wall_on_ms").value(sweep_on_ms);
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
}
