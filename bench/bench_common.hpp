// Shared scaffolding for the experiment drivers: a uniform header block, a
// hard-failure helper (a violated invariant makes the binary exit non-zero
// so CI catches regressions in the reproduced results), a deterministic
// parallel-map used by the embarrassingly-parallel sweep drivers, and the
// Run wrapper that plumbs --report=FILE / --trace=FILE through every driver.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <cstdio>
#include <fstream>

#include "minmach/core/bounds.hpp"
#include "minmach/obs/histogram.hpp"
#include "minmach/obs/json.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/obs/profile.hpp"
#include "minmach/obs/report.hpp"
#include "minmach/obs/trace.hpp"
#include "minmach/store/pcache.hpp"
#include "minmach/util/cli.hpp"
#include "minmach/util/opt_cache.hpp"
#include "minmach/util/parallel.hpp"
#include "minmach/util/simd.hpp"
#include "minmach/util/table.hpp"

namespace minmach::bench {

inline void print_header(const std::string& experiment,
                         const std::string& paper_claim) {
  std::cout << "================================================================\n"
            << experiment << "\n"
            << "paper claim: " << paper_claim << "\n"
            << "================================================================\n";
}

inline void require(bool condition, const std::string& message) {
  if (!condition) {
    // Flush results first so the diagnostic lands after any partial table,
    // and stdout (which the determinism harness captures) stays clean.
    std::cout.flush();
    std::cerr << "EXPERIMENT INVARIANT VIOLATED: " << message << "\n";
    std::exit(1);
  }
}

// Default entry budget for --cache-capacity (~3 MB of verdicts).
inline constexpr std::int64_t kDefaultCacheCapacity = 1 << 16;

// Shared validation for the {on,off} driver flags (--cache, --profile,
// --bounds): returns true for "on", and exits 2 with the uniform
// diagnostic on anything else -- one implementation instead of a
// copy-pasted check per flag.
inline bool parse_onoff(Cli& cli, const std::string& flag, bool default_on) {
  const std::string value = cli.get_string(flag, default_on ? "on" : "off");
  if (value != "on" && value != "off") {
    std::cerr << "error: --" << flag << " must be 'on' or 'off' (got '"
              << value << "')\n";
    std::exit(2);
  }
  return value == "on";
}

// Shared validation for path-valued driver flags (--corpus, --cache-file):
// absent returns "" (the feature stays off); given, the path must be
// non-empty and land in a writable location -- probed by opening for
// append, removing the file again if the probe itself created it --
// anything else exits 2 with the uniform diagnostic. Probing up front turns
// "cache written to an unwritable path" from a silent no-op at the end of a
// long run into an immediate CLI error.
inline std::string path_flag(Cli& cli, const std::string& flag) {
  if (!cli.was_given(flag)) return "";
  const std::string path = cli.get_string(flag, "");
  if (path.empty()) {
    std::cerr << "error: --" << flag
              << " requires a non-empty file path (omit the flag to disable)\n";
    std::exit(2);
  }
  const bool existed = std::ifstream(path).good();
  std::FILE* probe = std::fopen(path.c_str(), "ab");
  if (probe == nullptr) {
    std::cerr << "error: --" << flag << " path '" << path
              << "' is not writable\n";
    std::exit(2);
  }
  std::fclose(probe);
  if (!existed) std::remove(path.c_str());
  return path;
}

// Version tag for the BENCH_*.json artifacts the drivers emit. perfdiff
// refuses artifacts without it (schema drift would otherwise surface as
// spurious "regressions" when a metric is renamed).
inline constexpr std::string_view kBenchJsonSchema = "bench-json-v1";

// Build-time git revision, injected by CMake (-DMINMACH_GIT_REV=...);
// "unknown" outside a git checkout (e.g. tarball builds).
#ifndef MINMACH_GIT_REV
#define MINMACH_GIT_REV "unknown"
#endif

// Stamps a BENCH_*.json artifact with its schema version and the producing
// revision. Call immediately after the top-level begin_object() so the
// stamp leads the document.
inline void write_bench_stamp(obs::JsonWriter& json) {
  json.key("schema").value(kBenchJsonSchema);
  json.key("git_rev").value(std::string_view(MINMACH_GIT_REV));
}

// Per-driver run context. Reads the common --report / --trace flags (so
// every driver accepts them uniformly), installs the global trace sink for
// the run's lifetime, prints the standard header, and -- on finish() or
// destruction -- writes the machine-readable run report: config, result
// tables, measured-vs-bound checks, and a metrics snapshot. The report
// excludes wall-clock timings and reproducibility-neutral flags (--threads,
// --report, --trace, --cache, --cache-capacity, --simd, --bounds), so its
// bytes are identical at any thread count, with the OPT cache on or off,
// under any SIMD dispatch mode, and with the bound tier on or off
// (cache/SIMD/bounds state only moves execution-class metrics, which
// snapshots segregate).
//
// Also reads --cache {on,off} / --cache-capacity N and configures the
// global affine-canonical OPT cache accordingly, so every driver can A/B
// the query engine. Default off: the committed smoke baselines record the
// probes and flow work of the uncached oracle, and q01 measures the cache
// against the uncached run, so caching is strictly opt-in per run.
//
// Also reads --simd {auto,avx2,scalar} and sets the global kernel dispatch
// mode (util::simd::set_mode, DESIGN.md §12). Default auto: use the AVX2
// kernels whenever the binary compiled them and the CPU has them. avx2
// insists (clear error when unavailable, so an A/B run never silently
// measures the fallback); scalar forces the portable path for differential
// runs. Results are bit-identical across modes -- the flag only moves wall
// clock and execution-class metrics.
//
// Also reads --bounds {on,off} (default off) and sets the global bound-tier
// gate (set_bounds_tier_enabled, DESIGN.md §14). Off keeps every driver
// measuring the exact oracle alone -- the certified sandwich would answer
// most probes for free, moving the committed baselines' probe counts and
// collapsing q01's cache A/B; b01_bound_tier turns it on explicitly. OPT
// values and verdicts are identical either way.
//
// Also reads --profile {on,off} (default off) and arms the span profiler +
// latency histograms (DESIGN.md §13) for the run. Profiling only ADDS the
// report's "profile"/"latency" sections (and the optional
// --profile-chrome=FILE trace); every other report byte is unchanged, so a
// profiled run diffs clean against an un-profiled one outside those
// sections. Like --threads/--cache/--simd, the flag is excluded from the
// report config.
//
// Also reads the persistence knobs (DESIGN.md §16), both default off and
// both reproducibility-neutral (persistence moves only wall clock and
// store.*/cache.* execution-class metrics, never answers, so reports stay
// byte-identical): --corpus=FILE names an instance-corpus path the driver
// may freeze/reopen (exposed via corpus_path(); drivers without corpus
// support simply ignore it), and --cache-file=FILE attaches a
// store::PersistentCache as the OPT cache's disk tier for the run --
// implying --cache on -- with a compacting flush on finish(). A
// version-mismatched or corrupt cache file is refused at startup (exit 2).
class Run {
 public:
  Run(Cli& cli, std::string experiment, std::string paper_claim) {
    report_path_ = cli.get_string("report", "");
    std::string trace_path = cli.get_string("trace", "");
    if (!trace_path.empty()) {
      sink_ = std::make_unique<obs::TraceSink>(trace_path);
      obs::TraceSink::set_global(sink_.get());
    }
    const bool cache_on = parse_onoff(cli, "cache", false);
    const std::int64_t cache_capacity =
        cli.get_int("cache-capacity", kDefaultCacheCapacity);
    if (cache_capacity <= 0) {
      std::cerr << "error: --cache-capacity must be a positive entry budget "
                   "(omit the flag for the default "
                << kDefaultCacheCapacity << ")\n";
      std::exit(2);
    }
    util::OptCache::global().configure(
        cache_on, static_cast<std::size_t>(cache_capacity));
    const std::string simd_flag = cli.get_string("simd", "auto");
    util::simd::Mode simd_mode;
    if (!util::simd::parse_mode(simd_flag, &simd_mode)) {
      std::cerr << "error: --simd must be 'auto', 'avx2', or 'scalar' (got '"
                << simd_flag << "')\n";
      std::exit(2);
    }
    if (simd_mode == util::simd::Mode::kAvx2 && !util::simd::supported()) {
      std::cerr << "error: --simd avx2 requested but AVX2 kernels are "
                   "unavailable ("
                << (util::simd::compiled_avx2()
                        ? "CPU lacks AVX2"
                        : "binary built without them, MINMACH_SIMD=scalar")
                << "); use 'auto' or 'scalar'\n";
      std::exit(2);
    }
    util::simd::set_mode(simd_mode);
    // Bound tier (--bounds, DESIGN.md §14): default OFF in the drivers --
    // the library default is on, but the committed baselines, q01's cache
    // probe-ratio check and m01's edge-visit cost model all measure the
    // exact tier, which a sandwich that answers probes for free would
    // collapse. b01_bound_tier A/Bs the tier explicitly.
    set_bounds_tier_enabled(parse_onoff(cli, "bounds", false));
    corpus_path_ = path_flag(cli, "corpus");
    const std::string cache_file = path_flag(cli, "cache-file");
    if (!cache_file.empty()) {
      try {
        cache_store_ = std::make_unique<store::PersistentCache>(cache_file);
      } catch (const std::exception& error) {
        std::cerr << "error: --cache-file: " << error.what() << "\n";
        std::exit(2);
      }
      // A disk tier with no RAM tier in front would never be consulted:
      // --cache-file implies --cache on.
      if (!cache_on)
        util::OptCache::global().configure(
            true, static_cast<std::size_t>(cache_capacity));
      util::OptCache::global().attach_store(cache_store_.get());
    }
    profiling_ = parse_onoff(cli, "profile", false);
    profile_chrome_path_ = cli.get_string("profile-chrome", "");
    obs::Registry::global().reset();
    obs::LatencyRegistry::global().reset();
    obs::set_profiling(profiling_);
    print_header(experiment, paper_claim);
    report_.experiment = std::move(experiment);
    report_.claim = std::move(paper_claim);
  }

  ~Run() { finish(); }
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  void config(const std::string& key, const std::string& value) {
    report_.config.emplace_back(key, value);
  }
  void config(const std::string& key, std::int64_t value) {
    config(key, std::to_string(value));
  }
  void config(const std::string& key, double value) {
    config(key, Table::fmt(value, 6));
  }

  void table(const std::string& title, const Table& table) {
    report_.tables.push_back({title, table.header(), table.rows()});
  }

  // Records a measured-vs-bound row in the report AND enforces it like
  // require(): a failed check exits non-zero after the report is written.
  void check(const std::string& name, const std::string& measured,
             const std::string& bound, bool ok) {
    report_.checks.push_back({name, measured, bound, ok});
    if (!ok) {
      finish();
      require(false, name + " (measured " + measured + ", bound " + bound + ")");
    }
  }

  // The --corpus path, or "" when the flag was absent. Drivers with corpus
  // support read/freeze their instance set there.
  [[nodiscard]] const std::string& corpus_path() const { return corpus_path_; }

  // Idempotent: detaches and compacts the persistent cache tier (if any),
  // drains hot tallies, snapshots the registry, writes the report if
  // --report was given, and uninstalls the trace sink.
  void finish() {
    if (finished_) return;
    finished_ = true;
    if (cache_store_) {
      // Detach before flushing so no concurrent lookup can race the
      // compaction, and flush before the snapshot so the cache_flush span
      // and final store.* tallies land in the report's metrics.
      util::OptCache::global().attach_store(nullptr);
      try {
        cache_store_->flush();
      } catch (const std::exception& error) {
        std::cerr << "warning: persistent cache flush failed: "
                  << error.what() << "\n";
      }
      cache_store_.reset();
    }
    report_.metrics = obs::Registry::global().snapshot();
    report_.profiled = profiling_;
    if (profiling_) {
      report_.latencies = obs::LatencyRegistry::global().summaries();
      obs::set_profiling(false);
    }
    if (!report_path_.empty()) obs::save_report(report_path_, report_);
    if (profiling_ && !profile_chrome_path_.empty())
      obs::save_profile_chrome_trace(profile_chrome_path_, report_.metrics);
    if (sink_) {
      obs::TraceSink::set_global(nullptr);
      sink_.reset();
    }
  }

 private:
  obs::RunReport report_;
  std::string report_path_;
  std::string profile_chrome_path_;
  std::string corpus_path_;
  std::unique_ptr<obs::TraceSink> sink_;
  std::unique_ptr<store::PersistentCache> cache_store_;
  bool profiling_ = false;
  bool finished_ = false;
};

// Reads the common --threads flag. Absent (or any negative value) means
// "use all hardware threads" (resolved by resolve_threads below). An
// explicit --threads 0 is rejected with a clear CLI error: the old
// behaviour silently mapped it to "all cores", which made typos like
// `--threads 0x4` (parsed as 0) indistinguishable from the default.
inline std::int64_t threads_flag(Cli& cli) {
  std::int64_t requested = cli.get_int("threads", -1);
  if (requested == 0 && cli.was_given("threads")) {
    std::cerr << "error: --threads must be a positive worker count "
                 "(omit the flag to use all "
              << std::max(1u, std::thread::hardware_concurrency())
              << " hardware threads)\n";
    std::exit(2);
  }
  return requested;
}

// The deterministic work-stealing scheduler lives in the library now
// (util/parallel.hpp) so svc/ can shard sessions across it; these aliases
// keep the drivers' and tests' bench:: spelling working unchanged.
using util::Chunking;
using util::ScheduleStats;
using util::WorkerLoad;
using util::parallel_map;
using util::parallel_map_scheduled;
using util::resolve_threads;

// Shared validation for count-valued driver flags (--sessions, --events,
// m01's --levels/--sweep-n/--trials): absent takes the default; a value
// below `minimum` exits 2 with the uniform diagnostic, mirroring
// --threads/--cache-capacity.
inline std::int64_t positive_count_flag(Cli& cli, const std::string& flag,
                                        std::int64_t default_value,
                                        std::int64_t minimum = 1) {
  const std::int64_t value = cli.get_int(flag, default_value);
  if (value < minimum) {
    std::cerr << "error: --" << flag << " must be a count >= " << minimum
              << " (omit the flag for the default " << default_value << ")\n";
    std::exit(2);
  }
  return value;
}

}  // namespace minmach::bench
