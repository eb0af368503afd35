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

#include "minmach/obs/histogram.hpp"
#include "minmach/obs/json.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/obs/profile.hpp"
#include "minmach/obs/report.hpp"
#include "minmach/obs/trace.hpp"
#include "minmach/util/cli.hpp"
#include "minmach/util/parallel.hpp"
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

// Every driver's main is a function-try-block whose one handler is
//   catch (const CliError& error) { return bench::usage_error(error); }
// so a malformed command line (unknown flag, bad number, bare value flag)
// prints `error: <message>` and exits 2, like the flag checks below, while
// any other exception still aborts.
inline int usage_error(const CliError& error) {
  std::cout.flush();
  std::cerr << "error: " << error.what() << "\n";
  return 2;
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
// --report, --trace), so its bytes are identical at any thread count and
// with or without the AVX2 kernels (SIMD dispatch only moves
// execution-class metrics, which snapshots segregate).
//
// Also reads --profile {on,off} (default off) and arms the span profiler +
// latency histograms (DESIGN.md §13) for the run. Profiling only ADDS the
// report's "profile"/"latency" sections (and the optional
// --profile-chrome=FILE trace); every other report byte is unchanged, so a
// profiled run diffs clean against an un-profiled one outside those
// sections. Like --threads, the flag is excluded from the report config.
class Run {
 public:
  Run(Cli& cli, std::string experiment, std::string paper_claim) {
    report_path_ = cli.get_string("report", "");
    std::string trace_path = cli.get_string("trace", "");
    if (!trace_path.empty()) {
      sink_ = std::make_unique<obs::TraceSink>(trace_path);
      obs::TraceSink::set_global(sink_.get());
    }
    const std::string profile = cli.get_string("profile", "off");
    if (profile != "on" && profile != "off") {
      std::cerr << "error: --profile must be 'on' or 'off' (got '" << profile
                << "')\n";
      std::exit(2);
    }
    profiling_ = profile == "on";
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

  // Idempotent: drains hot tallies, snapshots the registry, writes the
  // report if --report was given, and uninstalls the trace sink.
  void finish() {
    if (finished_) return;
    finished_ = true;
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
  std::unique_ptr<obs::TraceSink> sink_;
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
using util::ScheduleStats;
using util::WorkerLoad;
using util::parallel_map;
using util::parallel_map_scheduled;
using util::resolve_threads;

// Shared validation for count-valued driver flags (--sessions, --events,
// m01's --levels/--sweep-n/--trials): absent takes the default; a value
// below `minimum` exits 2 with the uniform diagnostic, mirroring
// --threads.
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
