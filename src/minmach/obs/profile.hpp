// Hierarchical span profiler (DESIGN.md §13). Answers "where does OPT wall
// time go" across the pipeline phases -- canonicalize -> cache lookup ->
// oracle build -> sweep bound -> probe -> Dinic BFS/DFS --
// with an overhead budget of one relaxed atomic load per would-be span when
// profiling is off (the default), so instrumented hot paths stay within the
// <= 2% bar the tallies layer set.
//
// Design:
//  * A span is a scoped RAII timer (`ProfileSpan`) named by a string
//    literal. Spans nest lexically; each thread keeps its own span TREE
//    (nodes keyed by name under their parent), so a span's cost is two
//    steady_clock reads plus a short child-list scan -- no allocation on
//    the steady state, no locks.
//  * Draining folds a thread's tree into the global Registry as two metric
//    families per node path (components joined with '/'):
//      - counter  "profile.<path>.calls"  -- deterministic span counts.
//        The profile. prefix is execution-class (obs::is_exec_metric), so
//        counts are exact and thread-count/comparison-stable but excluded
//        from the deterministic report sections by default.
//      - timing   "profile.<path>.ns"     -- wall time, summed inclusive of
//        children. Timing histograms land in Snapshot::timings, which the
//        deterministic serialization already excludes.
//    drain_hot_tallies() calls profile_drain_thread(), so every place that
//    already drains arithmetic tallies (parallel_map workers,
//    Registry::snapshot) drains spans for free.
//  * Attribution (profile_attribution) and the Chrome exporter
//    (save_profile_chrome_trace) are pure functions of a Snapshot: the
//    span tree is reconstructed from the flat "profile.*" names, so any
//    consumer of a report can recompute phase shares.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace minmach::obs {

struct Snapshot;

// Process-wide enable flag. Off by default; bench::Run flips it for
// --profile on. Reading is a single relaxed atomic load.
void set_profiling(bool enabled) noexcept;
[[nodiscard]] bool profiling_enabled() noexcept;

namespace profile_detail {
// Opens a span named `name` under the calling thread's current span and
// returns its node index (the token ProfileSpan::~ProfileSpan passes back).
[[nodiscard]] std::int32_t enter(const char* name);
// Closes the span `token`, crediting `elapsed_ns` to its node.
void exit(std::int32_t token, std::int64_t elapsed_ns) noexcept;
}  // namespace profile_detail

// Folds the calling thread's span tree into the Registry and zeroes the
// recorded calls/durations (tree structure is kept, so steady-state drains
// allocate nothing). No-op when the thread recorded no spans.
void profile_drain_thread();

// Zeroes the calling thread's span tree without publishing it (test
// isolation; Registry::reset() calls this).
void profile_reset_thread() noexcept;

// Scoped span. When profiling is off the constructor is one relaxed load
// and the destructor one branch. Spans must be destroyed in LIFO order per
// thread (automatic with block scoping).
class ProfileSpan {
 public:
  explicit ProfileSpan(const char* name) noexcept {
    if (!profiling_enabled()) return;
    token_ = profile_detail::enter(name);
    start_ = std::chrono::steady_clock::now();
  }
  ~ProfileSpan() {
    if (token_ < 0) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    profile_detail::exit(
        token_,
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  }
  ProfileSpan(const ProfileSpan&) = delete;
  ProfileSpan& operator=(const ProfileSpan&) = delete;

 private:
  std::int32_t token_ = -1;
  std::chrono::steady_clock::time_point start_{};
};

// One row of the perf-attribution table reconstructed from a snapshot.
struct ProfileSpanRow {
  std::string path;        // '/'-joined span names, e.g. "opt_search/probe"
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;  // inclusive of child spans
  double share = 0.0;         // total_ns / sum of root-span totals
};

// Extracts the span rows from a snapshot's "profile.<path>.calls" counters
// and "profile.<path>.ns" timings, sorted by path. Shares are relative to
// the sum over root-level spans (paths without '/'); zero when no root
// span recorded time.
[[nodiscard]] std::vector<ProfileSpanRow> profile_attribution(
    const Snapshot& snapshot);

// Writes the aggregated span tree as a Chrome trace_event JSON document of
// nested "X" duration events (a synthetic stacked timeline: children start
// at their parent's timestamp, siblings laid end to end), loadable in
// Perfetto / chrome://tracing next to the schedule exporter's output.
void write_profile_chrome_trace(std::ostream& os, const Snapshot& snapshot);
void save_profile_chrome_trace(const std::string& path,
                               const Snapshot& snapshot);

}  // namespace minmach::obs
