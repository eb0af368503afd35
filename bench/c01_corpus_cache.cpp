// C1 -- out-of-core corpus + persistent OPT cache (DESIGN.md section 16):
// freezing the shrink-sweep + strong-lb instance mix into an mmap'd
// columnar corpus and warming the affine-canonical OPT cache across runs.
//
// Phases:
//
//   freeze / reopen  : generate the mix (the expensive part every bench run
//       pays today), freeze it with CorpusWriter, and reopen it. Enforced:
//       reopen is at least 5x cheaper than regeneration at full size, and
//       opening a 4x-larger corpus costs about the same as the 1x open
//       (zero-copy: open cost is header+directory validation, independent
//       of job count). Round-trip equality against io/serialize is checked
//       per instance, including the rational-grid instances the int64
//       columns cannot hold exactly (they take the side-table path).
//   zero-copy OPT    : a FeasibilityOracle built straight from the mapped
//       int64 columns (no Instance materialized; affine-scaled coordinates)
//       must answer the same OPT as the oracle over the original instance.
//   corpus -> svc    : SessionEngine::seed_from_corpus + one query per
//       session must reproduce the same OPTs through the dynamic-oracle
//       session path.
//   cold / warm cache: two runs of the full query mix against a scratch
//       persistent cache file -- the cold run fills it, the warm run
//       reopens it with an empty RAM cache. Enforced: the warm run executes
//       >= 5x fewer network probes, answers identical, and the disk tier
//       recorded hits.
//
// Wall-clock bars go through bench::require (stderr), never ctx.check: the
// --report must stay byte-identical across invocations -- that is exactly
// what the CI cache-persistence smoke diffs -- so only deterministic
// measurements (answer equality, probe counts against a scratch cache this
// driver resets itself) are recorded there. The run-level store.hits_disk
// tally is printed to stdout for the smoke's warm-run grep. Writes --out
// (BENCH_corpus.json).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "minmach/adversary/strong_lb.hpp"
#include "minmach/core/transforms.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/io/serialize.hpp"
#include "minmach/obs/json.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/store/corpus.hpp"
#include "minmach/store/pcache.hpp"
#include "minmach/svc/engine.hpp"
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

// The q01 strong-lb level-slice family: every recursion level of the
// Theorem 3 adversary for k = 2..levels. Affine copies by construction, so
// their fingerprints collide -- the best case for the persistent cache and
// a realistic one (recursion levels recur across runs).
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

// Minimum-of-3 zero-copy open wall (payload checksum off: the O(1) reopen
// is the property under test; verification is measured separately).
double time_open_ms(const std::string& path) {
  double best = 1e300;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    store::Corpus corpus(path, {.verify_payload = false});
    bench::require(corpus.size() > 0, "corpus unexpectedly empty: " + path);
    best = std::min(best, ms_since(start));
  }
  return best;
}

// Computes every instance's OPT once through a fresh oracle (which
// consults the OPT cache itself); probes and an order-sensitive answer
// checksum.
struct MixMeasurement {
  std::uint64_t probes = 0;
  std::uint64_t checksum = 0;
};

MixMeasurement query_mix(const std::vector<Instance>& mix) {
  MixMeasurement out;
  for (const Instance& instance : mix) {
    FeasibilityOracle oracle(instance);
    const std::int64_t opt = oracle.optimal_machines();
    out.probes += oracle.probes_executed();
    out.checksum = out.checksum * 1099511628211ULL +
                   static_cast<std::uint64_t>(opt);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  const int levels = static_cast<int>(cli.get_int("levels", 6));
  const std::size_t sweep_n =
      static_cast<std::size_t>(cli.get_int("sweep-n", 48));
  const int trials = static_cast<int>(cli.get_int("trials", 6));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 11));
  const std::string out_path = cli.get_string("out", "BENCH_corpus.json");
  bench::Run ctx(cli,
                 "C1: out-of-core corpus + persistent OPT cache",
                 "a frozen corpus reopens without regeneration and a warm "
                 "persistent cache answers repeat queries without probes");
  cli.check_unknown();
  bench::require(levels >= 2, "--levels must be >= 2");
  bench::require(trials >= 1, "--trials must be >= 1");
  ctx.config("levels", static_cast<std::int64_t>(levels));
  ctx.config("sweep-n", static_cast<std::int64_t>(sweep_n));
  ctx.config("trials", static_cast<std::int64_t>(trials));
  ctx.config("seed", static_cast<std::int64_t>(seed));

  const std::string corpus_path = ctx.corpus_path().empty()
                                      ? "c01_corpus.mmcorpus"
                                      : ctx.corpus_path();
  const std::string corpus4_path = corpus_path + ".x4.mmcorpus";
  const std::string scratch_cache = corpus_path + ".scratch.mmcache";
  const std::size_t capacity =
      static_cast<std::size_t>(bench::kDefaultCacheCapacity);
  obs::Registry& registry = obs::Registry::global();

  // --- phase A: generate the mix (what a corpus-less run pays) ------------
  const Clock::time_point gen_start = Clock::now();
  std::vector<Instance> mix = strong_lb_family(levels);
  const std::size_t slb_count = mix.size();
  Rng rng(seed);
  GenConfig config;
  config.n = sweep_n;
  const std::vector<Rat> gammas = {Rat(1, 4), Rat(1, 2), Rat(2, 3),
                                   Rat(4, 5)};
  for (int trial = 0; trial < trials; ++trial) {
    Instance base = gen_general(rng, config);
    mix.push_back(base);
    for (const Rat& gamma : gammas)
      mix.push_back(shrink_window_left(base, gamma));
  }
  const double gen_ms = ms_since(gen_start);
  std::size_t mix_jobs = 0;
  for (const Instance& instance : mix) mix_jobs += instance.size();

  // --- phase B: freeze ----------------------------------------------------
  const Clock::time_point freeze_start = Clock::now();
  store::CorpusWriter writer;
  for (const Instance& instance : mix) writer.add(instance);
  writer.write(corpus_path);
  const double freeze_ms = ms_since(freeze_start);

  // --- phase C: zero-copy reopen vs regeneration --------------------------
  const double open_ms = time_open_ms(corpus_path);
  const Clock::time_point verify_start = Clock::now();
  store::Corpus corpus(corpus_path, {.verify_payload = true});
  const double verify_ms = ms_since(verify_start);
  bench::require(corpus.size() == mix.size(), "corpus lost instances");

  std::size_t i64_instances = 0;
  std::size_t roundtrip_mismatches = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const store::InstanceView view = corpus.view(i);
    if (view.int64_grid()) ++i64_instances;
    if (to_text(view.materialize()) != to_text(mix[i]))
      ++roundtrip_mismatches;
  }
  ctx.check("corpus round-trip equals io/serialize on every instance",
            std::to_string(roundtrip_mismatches) + " mismatches", "0",
            roundtrip_mismatches == 0);

  // 4x corpus: open wall must not scale with content (zero-copy open).
  {
    store::CorpusWriter big;
    for (int copy = 0; copy < 4; ++copy)
      for (const Instance& instance : mix) big.add(instance);
    big.write(corpus4_path);
  }
  const double open4_ms = time_open_ms(corpus4_path);
  std::remove(corpus4_path.c_str());

  const bool full_size = sweep_n >= 32;
  Table corpus_table({"stage", "wall ms"});
  corpus_table.add_row({"generate mix", Table::fmt(gen_ms, 3)});
  corpus_table.add_row({"freeze corpus", Table::fmt(freeze_ms, 3)});
  corpus_table.add_row({"reopen (1x)", Table::fmt(open_ms, 3)});
  corpus_table.add_row({"reopen (4x)", Table::fmt(open4_ms, 3)});
  corpus_table.add_row({"verify payload", Table::fmt(verify_ms, 3)});
  corpus_table.print(std::cout);
  // Wall bars through require (stderr): the report must stay
  // byte-deterministic for the persistence smoke's diff.
  if (full_size) {
    bench::require(open_ms * 5.0 <= gen_ms,
                   "corpus reopen not >= 5x cheaper than regeneration "
                   "(open " + Table::fmt(open_ms, 3) + " ms, gen " +
                   Table::fmt(gen_ms, 3) + " ms)");
  }
  bench::require(open4_ms <= 10.0 * open_ms + 5.0,
                 "4x corpus open scales with content (1x " +
                 Table::fmt(open_ms, 3) + " ms, 4x " +
                 Table::fmt(open4_ms, 3) + " ms)");

  // --- phase D: zero-copy OPT off the mapped columns ----------------------
  std::vector<std::int64_t> opts(corpus.size(), 0);
  std::size_t opt_mismatches = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const store::InstanceView view = corpus.view(i);
    std::int64_t from_store;
    if (view.int64_grid()) {
      FeasibilityOracle oracle(view.columns());
      from_store = oracle.optimal_machines();
    } else {
      FeasibilityOracle oracle(view.materialize());
      from_store = oracle.optimal_machines();
    }
    FeasibilityOracle reference(mix[i]);
    opts[i] = reference.optimal_machines();
    if (from_store != opts[i]) ++opt_mismatches;
  }
  ctx.check("zero-copy column OPT equals Instance OPT (affine invariance)",
            std::to_string(opt_mismatches) + " mismatches", "0",
            opt_mismatches == 0);

  // --- phase E: corpus -> session engine ----------------------------------
  svc::SessionEngine engine;
  const std::uint64_t first_session = engine.seed_from_corpus(corpus);
  std::vector<svc::Event> queries;
  queries.reserve(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i)
    queries.push_back({svc::Event::Kind::kQuery, first_session + i, 0, {}});
  engine.ingest(queries);
  std::size_t svc_mismatches = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::vector<std::int64_t>& answers =
        engine.answers(first_session + i);
    if (answers.size() != 1 || answers[0] != opts[i]) ++svc_mismatches;
  }
  ctx.check("corpus-seeded sessions answer the direct OPTs",
            std::to_string(svc_mismatches) + " mismatches", "0",
            svc_mismatches == 0);

  Table content_table({"subset", "instances", "jobs"});
  content_table.add_row({"strong-lb slices", std::to_string(slb_count), "-"});
  content_table.add_row({"shrink sweep",
                         std::to_string(mix.size() - slb_count), "-"});
  content_table.add_row({"total (int64-grid " + std::to_string(i64_instances) +
                             ", rational " +
                             std::to_string(mix.size() - i64_instances) + ")",
                         std::to_string(mix.size()),
                         std::to_string(mix_jobs)});
  content_table.print(std::cout);
  ctx.table("corpus content", content_table);

  // Run-level persistent-store traffic so far (nonzero on a warm --cache-file
  // run; the CI smoke greps this line).
  std::cout << "persistent store hits (run-level): "
            << registry.counter("store.hits_disk").value() << "\n";

  // --- phase F: cold vs warm persistent cache on a scratch file -----------
  // The Run-level --cache-file store (if any) must not serve this phase:
  // its contents depend on previous invocations, and the cold/warm probe
  // counts below are recorded in the byte-diffed report.
  util::OptCache::global().attach_store(nullptr);
  std::remove(scratch_cache.c_str());
  std::remove((scratch_cache + ".wal").c_str());

  const std::uint64_t disk_hits_before =
      registry.counter("store.hits_disk").value();
  util::OptCache::global().configure(true, capacity);
  MixMeasurement cold;
  {
    store::PersistentCache scratch(scratch_cache);
    util::OptCache::global().attach_store(&scratch);
    cold = query_mix(mix);
    util::OptCache::global().attach_store(nullptr);
    scratch.flush();
  }
  util::OptCache::global().configure(true, capacity);  // empty RAM again
  MixMeasurement warm;
  std::uint64_t warm_disk_hits = 0;
  std::uint64_t warm_table_entries = 0;
  {
    store::PersistentCache scratch(scratch_cache);
    warm_table_entries = scratch.table_entries();
    util::OptCache::global().attach_store(&scratch);
    warm = query_mix(mix);
    util::OptCache::global().attach_store(nullptr);
    warm_disk_hits =
        registry.counter("store.hits_disk").value() - disk_hits_before;
  }
  std::remove(scratch_cache.c_str());
  std::remove((scratch_cache + ".wal").c_str());
  util::OptCache::global().configure(false, capacity);

  bench::require(cold.checksum == warm.checksum,
                 "warm-cache answers disagree with cold run");
  Table cache_table({"run", "queries", "executed probes", "disk entries"});
  cache_table.add_row({"cold", std::to_string(mix.size()),
                       std::to_string(cold.probes), "0"});
  cache_table.add_row({"warm", std::to_string(mix.size()),
                       std::to_string(warm.probes),
                       std::to_string(warm_table_entries)});
  cache_table.print(std::cout);
  ctx.table("persistent cache, scratch file", cache_table);

  const double probe_ratio =
      static_cast<double>(cold.probes) /
      static_cast<double>(std::max<std::uint64_t>(1, warm.probes));
  ctx.check("warm persistent cache: executed probes reduced >= 5x",
            Table::fmt(probe_ratio, 2), ">= 5", probe_ratio >= 5.0);
  ctx.check("warm persistent cache: disk tier recorded hits",
            std::to_string(warm_disk_hits), ">= 1", warm_disk_hits >= 1);

  // Machine-readable record (wall times included, so this file is NOT
  // byte-deterministic -- unlike --report).
  std::ofstream os(out_path);
  bench::require(static_cast<bool>(os), "cannot open " + out_path);
  obs::JsonWriter json(os);
  json.begin_object();
  bench::write_bench_stamp(json);
  json.key("experiment").value("c01_corpus_cache");
  json.key("seed").value(static_cast<std::int64_t>(seed));
  json.key("corpus").begin_object();
  json.key("instances").value(static_cast<std::uint64_t>(mix.size()));
  json.key("jobs").value(static_cast<std::uint64_t>(mix_jobs));
  json.key("int64_grid_instances")
      .value(static_cast<std::uint64_t>(i64_instances));
  json.key("mapped_bytes")
      .value(static_cast<std::uint64_t>(corpus.mapped_bytes()));
  json.key("gen_ms").value(gen_ms);
  json.key("freeze_ms").value(freeze_ms);
  json.key("open_ms").value(open_ms);
  json.key("open4_ms").value(open4_ms);
  json.key("verify_ms").value(verify_ms);
  json.key("open_vs_gen_ratio").value(gen_ms / std::max(1e-9, open_ms));
  json.end_object();
  json.key("persistent_cache").begin_object();
  json.key("probes_cold").value(cold.probes);
  json.key("probes_warm").value(warm.probes);
  json.key("probe_ratio").value(probe_ratio);
  json.key("table_entries").value(warm_table_entries);
  json.end_object();
  json.key("store").begin_object();
  json.key("hits_disk").value(warm_disk_hits);
  json.end_object();
  json.end_object();
  os << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
} catch (const minmach::CliError& error) {
  return minmach::bench::usage_error(error);
}
