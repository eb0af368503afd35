// Noise-aware bench-regression detection (DESIGN.md §13): the library
// behind the perfdiff CLI and its tests.
//
// perfdiff compares two BENCH_*.json artifacts (one baseline, one
// candidate) metric by metric. The central problem is that those artifacts
// mix metrics with very different noise profiles, so a single threshold
// either drowns CI in wall-clock flake or waves real regressions through.
// Metrics are therefore CLASSIFIED by name:
//
//  * TIME (leaf ends in _ms/_ns, or google-benchmark's real_time/cpu_time):
//    wall clock. Compared as median-of-repeats against a generous relative
//    tolerance, with an absolute floor below which both sides are treated
//    as noise (sub-millisecond timings on shared CI runners are not
//    comparable at any tolerance).
//  * COUNT (probes, bfs passes, edge visits, allocations, ...): exact and
//    deterministic per revision, but legitimately shifted a little by
//    galloping boundary effects; compared against a tight
//    relative tolerance plus a small absolute slack.
//  * IDENTITY (opt, load_lb, machines, n, seed, booleans): results. Any
//    difference is a correctness regression, never noise.
//  * HIGHER-BETTER (speedups, ratios, hit rates): regression when the
//    candidate falls below baseline / count_tol.
//  * IGNORE: everything else (labels, git_rev, google-benchmark machine
//    context, ...).
//
// Artifacts must carry the "bench-json-v1" stamp (top-level "schema", or
// "context.schema" for google-benchmark output); refusing unstamped files
// keeps schema drift from masquerading as a clean comparison.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace minmach::tools {

inline constexpr const char* kBenchJsonSchema = "bench-json-v1";

enum class MetricClass { kTime, kCount, kIdentity, kHigherBetter, kIgnore };

// Classifies a flattened metric label (see Artifact) by its leaf name.
[[nodiscard]] MetricClass classify_metric(const std::string& label);

// Human-readable class name ("time", "count", ...), for reports.
[[nodiscard]] const char* metric_class_name(MetricClass cls);

// One parsed artifact, flattened to label -> samples. Repeated labels
// (array-of-numbers members, repeated rows with the same key) accumulate
// samples; comparisons run on the median, which is what makes the TIME
// class robust to a single slow repeat.
//
// Flattening: object members join with '.', array elements of objects are
// keyed by their identifying members ("name" if present, else every string
// member plus an integer "n") as "rows[n=500].opt_ms", so a metric's label
// is stable under row reordering and row insertion.
struct Artifact {
  std::string schema;   // "" when unstamped
  std::string git_rev;  // "" when unstamped
  std::map<std::string, std::vector<double>> metrics;
  std::set<std::string> bool_labels;  // labels whose samples are booleans
};

// Parses a BENCH_*.json document. Throws std::runtime_error (prefixed with
// `origin`) on malformed JSON.
[[nodiscard]] Artifact parse_artifact(const std::string& text,
                                      const std::string& origin);

// Reads and parses a file; throws std::runtime_error on I/O failure.
[[nodiscard]] Artifact load_artifact(const std::string& path);

// Median of a non-empty sample vector (average of the two middles for even
// sizes).
[[nodiscard]] double median(std::vector<double> samples);

struct Thresholds {
  double time_tol = 1.5;     // TIME: candidate <= baseline * time_tol
  double count_tol = 1.10;   // COUNT: candidate <= baseline * count_tol + slack
  double count_slack = 2.0;  // COUNT: absolute headroom for tiny counts
  double min_time_ms = 0.5;  // TIME: both sides below => noise, skipped
  bool check_time = true;
  bool check_count = true;
  bool check_identity = true;
  bool check_higher = true;
};

struct Finding {
  std::string label;
  MetricClass cls = MetricClass::kIgnore;
  double baseline = 0.0;   // median
  double candidate = 0.0;  // median
  std::string detail;      // one-line explanation with the violated bound
};

struct DiffResult {
  std::vector<Finding> regressions;
  std::size_t compared = 0;     // labels checked against a threshold
  std::size_t skipped = 0;      // ignored class, disabled class, or noise floor
  std::size_t missing = 0;      // labels present in only one artifact
};

// Compares candidate against baseline. Pure: no I/O, no process exit.
[[nodiscard]] DiffResult diff_artifacts(const Artifact& baseline,
                                        const Artifact& candidate,
                                        const Thresholds& thresholds);

}  // namespace minmach::tools
