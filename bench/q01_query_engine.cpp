// Q1 -- the affine-canonical OPT cache (DESIGN.md section 11) against the
// uncached oracle, on the workloads it was built for.
//
// Two phases, each cross-checked for exact result equality:
//
//   strong-lb family : every recursion level of the Theorem 3 adversary,
//       for k = 2..levels, harvested as sub-instances via the recorded
//       level slices. Run k's first subtree is an exact replay of run
//       k-1's whole tree (fresh deterministic policy), and the scaled
//       copies are affine images of their siblings -- so the canonical
//       fingerprints collide by construction. Queried --repeats times per
//       mode; enforced >= 5x fewer executed network probes with the cache
//       on, with a nonzero cache.hits tally.
//   shrink sweep     : the Lemma 3 window-shrink experiment body (4 gamma
//       points x --trials general instances, base queried once per gamma
//       point exactly as e05 does), three back-to-back passes per mode
//       without clearing the cache. Enforced >= 1.5x wall clock with the
//       cache on at full size (recorded, not enforced, at smoke sizes --
//       wall ratios on tiny inputs are scheduler noise).
//
// Every OPT is FeasibilityOracle(instance).optimal_machines(); the oracle
// consults the cache itself. The phases configure the global OptCache
// themselves (the --cache flag still parses, but this driver A/Bs both
// modes in one run). Cache tallies are execution-class, so the --report
// bytes stay identical whatever this driver does to the cache. Writes
// --out (BENCH_query.json).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "minmach/adversary/strong_lb.hpp"
#include "minmach/algos/nonmig.hpp"
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

// Every level slice of the k-level adversary games, k = 2..levels. Each run
// plays against a fresh deterministic first-fit opponent, so run k's first
// build(k-1) subtree releases byte-identical jobs to run k-1's whole game.
std::vector<Instance> strong_lb_family(int levels) {
  std::vector<Instance> out;
  for (int k = 2; k <= levels; ++k) {
    FitPolicy policy(FitRule::kFirstFit, /*seed=*/123);
    StrongLbResult result = run_strong_lower_bound(policy, k);
    for (const StrongLbLevelSlice& slice : result.level_slices)
      out.push_back(slice_instance(result, slice));
  }
  return out;
}

struct FamilyMeasurement {
  std::uint64_t probes = 0;      // network probes actually executed
  std::uint64_t cache_hits = 0;  // cache.hits registry delta
  std::uint64_t checksum = 0;    // order-sensitive fold of the OPT values
  double wall_ms = 0.0;
};

// Queries every instance `repeats` times sequentially in the given cache
// mode (reconfiguring -- and thereby clearing -- the global cache first).
FamilyMeasurement run_family(const std::vector<Instance>& family, int repeats,
                             bool cache_on, std::size_t capacity) {
  util::OptCache::global().configure(cache_on, capacity);
  obs::Registry& registry = obs::Registry::global();
  obs::drain_hot_tallies();
  const std::uint64_t hits0 = registry.counter("cache.hits").value();

  FamilyMeasurement out;
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < repeats; ++rep) {
    for (const Instance& instance : family) {
      FeasibilityOracle oracle(instance);
      const std::int64_t opt = oracle.optimal_machines();
      out.probes += oracle.probes_executed();
      out.checksum = out.checksum * 1099511628211ULL +
                     static_cast<std::uint64_t>(opt);
    }
  }
  out.wall_ms = ms_since(start);
  obs::drain_hot_tallies();
  out.cache_hits = registry.counter("cache.hits").value() - hits0;
  return out;
}

// One pass of the e05-style window-shrink sweep: per gamma point, OPT of
// the base instance and of its left-shrunk image. The repeated base queries
// are exactly what the sweep drivers do per row -- and exactly what the
// canonical cache collapses.
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
  const int repeats = static_cast<int>(cli.get_int("repeats", 3));
  const std::size_t sweep_n =
      static_cast<std::size_t>(cli.get_int("sweep-n", 48));
  const int trials = static_cast<int>(cli.get_int("trials", 3));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 9));
  const std::string out_path = cli.get_string("out", "BENCH_query.json");
  bench::Run ctx(cli, "Q1: canonical OPT cache",
                 "affine-equal subproblems are answered once");
  cli.check_unknown();
  bench::require(levels >= 2, "--levels must be >= 2");
  bench::require(repeats >= 1, "--repeats must be >= 1");
  bench::require(trials >= 1, "--trials must be >= 1");
  ctx.config("levels", static_cast<std::int64_t>(levels));
  ctx.config("repeats", static_cast<std::int64_t>(repeats));
  ctx.config("sweep-n", static_cast<std::int64_t>(sweep_n));
  ctx.config("trials", static_cast<std::int64_t>(trials));
  ctx.config("seed", static_cast<std::int64_t>(seed));

  const std::size_t capacity =
      static_cast<std::size_t>(bench::kDefaultCacheCapacity);

  // --- phase A: strong-lb family, cache off vs on -------------------------
  const std::vector<Instance> family = strong_lb_family(levels);
  std::size_t family_jobs = 0;
  for (const Instance& instance : family) family_jobs += instance.size();
  FamilyMeasurement off = run_family(family, repeats, /*cache_on=*/false,
                                     capacity);
  FamilyMeasurement on = run_family(family, repeats, /*cache_on=*/true,
                                    capacity);
  bench::require(off.checksum == on.checksum,
                 "strong-lb family: cached OPT values disagree with uncached");

  Table family_table({"mode", "queries", "probes", "cache hits", "wall ms"});
  const std::size_t query_count = family.size() * static_cast<std::size_t>(repeats);
  family_table.add_row({"cache-off", std::to_string(query_count),
                        std::to_string(off.probes),
                        std::to_string(off.cache_hits),
                        Table::fmt(off.wall_ms, 2)});
  family_table.add_row({"cache-on", std::to_string(query_count),
                        std::to_string(on.probes),
                        std::to_string(on.cache_hits),
                        Table::fmt(on.wall_ms, 2)});
  family_table.print(std::cout);
  ctx.table("strong-lb family (" + std::to_string(family.size()) +
                " level slices, " + std::to_string(family_jobs) + " jobs)",
            family_table);

  const double probe_ratio =
      static_cast<double>(off.probes) /
      static_cast<double>(std::max<std::uint64_t>(1, on.probes));
  ctx.check("strong-lb family: executed probes reduced >= 5x with cache",
            Table::fmt(probe_ratio, 2), ">= 5", probe_ratio >= 5.0);
  ctx.check("strong-lb family: canonical fingerprints collided (cache hits)",
            std::to_string(on.cache_hits), ">= 1", on.cache_hits >= 1);
  ctx.check("strong-lb family: cache-off runs uncached",
            std::to_string(off.cache_hits), "0", off.cache_hits == 0);

  // --- phase B: window-shrink sweep wall clock ----------------------------
  Rng rng(seed);
  GenConfig config;
  config.n = sweep_n;
  std::vector<Instance> bases;
  bases.reserve(static_cast<std::size_t>(trials));
  for (int trial = 0; trial < trials; ++trial)
    bases.push_back(gen_general(rng, config));
  const std::vector<Rat> gammas = {Rat(1, 4), Rat(1, 2), Rat(2, 3),
                                   Rat(4, 5)};

  // Three back-to-back passes per mode, cache never cleared between them:
  // pass one collapses the per-gamma repeat queries, the later passes are
  // what re-runs of the same sweep (parameter studies, bisection) cost.
  const int passes = 3;
  auto run_sweep = [&](bool cache_on, double& wall_ms) {
    util::OptCache::global().configure(cache_on, capacity);
    std::uint64_t checksum = 0;
    const Clock::time_point start = Clock::now();
    for (int pass = 0; pass < passes; ++pass) {
      const std::uint64_t pass_sum = shrink_sweep_pass(bases, gammas);
      bench::require(pass == 0 || pass_sum == checksum,
                     "shrink sweep: passes disagree within one mode");
      checksum = pass_sum;
    }
    wall_ms = ms_since(start);
    return checksum;
  };
  double sweep_off_ms = 0.0, sweep_on_ms = 0.0;
  const std::uint64_t sweep_off = run_sweep(/*cache_on=*/false, sweep_off_ms);
  const std::uint64_t sweep_on = run_sweep(/*cache_on=*/true, sweep_on_ms);
  bench::require(sweep_off == sweep_on,
                 "shrink sweep: cached results disagree with uncached");

  const double sweep_speedup = sweep_off_ms / std::max(1e-9, sweep_on_ms);
  Table sweep_table({"mode", "passes", "wall ms"});
  sweep_table.add_row({"cache-off", std::to_string(passes),
                       Table::fmt(sweep_off_ms, 2)});
  sweep_table.add_row({"cache-on", std::to_string(passes),
                       Table::fmt(sweep_on_ms, 2)});
  sweep_table.print(std::cout);
  ctx.table("window-shrink sweep (4 gammas x " + std::to_string(trials) +
                " instances, n=" + std::to_string(sweep_n) + ")",
            sweep_table);
  // Wall ratios on sub-millisecond smoke inputs measure the scheduler, not
  // the cache; the threshold binds only at full sweep size.
  const bool full_size = sweep_n >= 32;
  ctx.check(full_size
                ? "shrink sweep: wall speedup >= 1.5x with cache"
                : "shrink sweep: wall speedup (recorded, smoke size)",
            Table::fmt(sweep_speedup, 2), full_size ? ">= 1.5" : "> 0",
            full_size ? sweep_speedup >= 1.5 : sweep_speedup > 0.0);

  // Leave the process-wide cache the way library users find it.
  util::OptCache::global().configure(false, capacity);

  // Machine-readable record (wall times included, so this file is NOT
  // byte-deterministic -- unlike --report).
  std::ofstream os(out_path);
  bench::require(static_cast<bool>(os), "cannot open " + out_path);
  obs::JsonWriter json(os);
  json.begin_object();
  bench::write_bench_stamp(json);
  json.key("experiment").value("q01_query_engine");
  json.key("seed").value(static_cast<std::int64_t>(seed));
  json.key("strong_lb_family").begin_object();
  json.key("levels").value(static_cast<std::int64_t>(levels));
  json.key("repeats").value(static_cast<std::int64_t>(repeats));
  json.key("slices").value(static_cast<std::int64_t>(family.size()));
  json.key("jobs").value(static_cast<std::int64_t>(family_jobs));
  json.key("probes_off").value(off.probes);
  json.key("probes_on").value(on.probes);
  json.key("probe_ratio").value(probe_ratio);
  json.key("cache_hits").value(on.cache_hits);
  json.key("wall_off_ms").value(off.wall_ms);
  json.key("wall_on_ms").value(on.wall_ms);
  json.end_object();
  json.key("shrink_sweep").begin_object();
  json.key("gammas").value(static_cast<std::int64_t>(gammas.size()));
  json.key("trials").value(static_cast<std::int64_t>(trials));
  json.key("n").value(static_cast<std::int64_t>(sweep_n));
  json.key("passes").value(static_cast<std::int64_t>(passes));
  json.key("wall_off_ms").value(sweep_off_ms);
  json.key("wall_on_ms").value(sweep_on_ms);
  json.key("speedup").value(sweep_speedup);
  json.key("threshold_enforced").value(full_size);
  json.end_object();
  json.end_object();
  os << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
