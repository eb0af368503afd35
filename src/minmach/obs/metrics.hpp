// Metrics registry for the minmach substrates, simulator, and experiment
// drivers.
//
// Two tiers, mirroring the two-tier arithmetic it instruments:
//
//  * Hot-path tallies (`HotTallies`): a plain thread-local POD of uint64
//    fields for the per-operation counters inside BigInt/Rat. An increment
//    of a thread-local word is the cheapest instrumentation possible; with
//    the CMake option MINMACH_OBS=OFF the MINMACH_OBS_TALLY macro compiles
//    to nothing, so the arithmetic kernels carry zero overhead.
//    `drain_hot_tallies()` folds the calling thread's tallies into the
//    registry; bench::parallel_map drains each worker before it exits, and
//    Registry::snapshot() drains the calling thread, so totals are complete
//    whenever a snapshot is taken from the main thread.
//
//  * Registered metrics (`Counter`, `Gauge`, `Histogram`, `ScopedTimer`):
//    named objects in a global `Registry`, updated with relaxed atomics at
//    event granularity (per oracle probe, per simulator event -- never per
//    arithmetic op). All aggregation is commutative (sums, min/max), so a
//    parallel sweep produces the same snapshot at any thread count; that
//    determinism is enforced by tests and by the --report byte-diff in
//    tests/check_driver_determinism.cmake.
//
// Snapshots separate wall-clock timing histograms (ScopedTimer) from the
// deterministic metrics: `Snapshot::to_json()` omits timings unless asked,
// so run reports stay byte-identical across runs and thread counts.
//
// Snapshots also separate EXECUTION-CLASS metrics (see is_exec_metric):
// counters that describe how the work was executed -- oracle probes, flow
// passes, arithmetic/memory tallies, SIMD lane usage -- rather than what
// was computed. A bound-tier sandwich (DESIGN.md §14) answers a probe
// without the max flow and the arithmetic inside it, and the AVX2 sweep
// kernel counts lanes that a build or CPU without AVX2 never runs (§12), so
// these totals legitimately depend on whether an oracle consulted the
// sandwich (never-edited oracles do, edited ones probe) and on the
// platform; they live in `Snapshot::exec_counters` / `exec_histograms` and
// are excluded from to_json() by default, keeping run reports
// byte-identical across both. Semantic metrics (adversary.*, sim.*, ...) remain in the
// deterministic sections and are still thread-count-invariant.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#ifndef MINMACH_OBS_ENABLED
#define MINMACH_OBS_ENABLED 1
#endif

namespace minmach::obs {

// ---- hot-path tallies --------------------------------------------------

// One field per hot counter; drain_hot_tallies() maps each field to the
// registry counter named in the comment.
struct HotTallies {
  std::uint64_t bigint_promotions = 0;  // "bigint.promotions": results left the small tier
  std::uint64_t bigint_slow_ops = 0;    // "bigint.slow_ops": limb-path arithmetic calls
  std::uint64_t rat_fast_ops = 0;       // "rat.fast_ops": int64 fast-path successes
  std::uint64_t rat_slow_ops = 0;       // "rat.slow_ops": BigInt fallback operations
  // Memory-substrate counters (DESIGN.md §10). All three count *logical*
  // per-value events, never physical arena chunk growth: chunk counts
  // depend on how tasks land on threads, while these are functions of the
  // workload alone, so merged reports stay byte-identical at any --threads.
  std::uint64_t bigint_spill = 0;  // "mem.bigint_spill": limb stores that outgrew the inline buffer
  std::uint64_t arena_bytes = 0;   // "mem.arena_bytes": bytes requested from arena scratch
  // "mem.heap_allocs": substrate heap allocations. BigInt spills are the
  // only ones, so it equals "mem.bigint_spill"; kept because perfbench
  // reports it as util.heap_allocs.
  std::uint64_t heap_allocs = 0;
  // SIMD kernel layer (DESIGN.md §12). Execution-class like the rest:
  // dispatch mode moves them, results never.
  std::uint64_t simd_lanes_used = 0;     // "simd.lanes_used": elements processed by vector lanes
  std::uint64_t simd_scalar_spills = 0;  // "simd.scalar_spills": kernel calls that fell back (overflow guard / non-small input)
};

// Accessor for the calling thread's tallies. A function-local
// constant-initialized thread_local (rather than a namespace-scope extern
// one) deliberately: the extern form is reached through the compiler's TLS
// wrapper function, which GCC 12's UBSan flags as a possibly-null member
// access once the tally sites are inlined into other translation units
// (seen under the sanitize preset from util/arena.hpp). The inline
// accessor's local is a plain COMDAT TLS symbol -- no wrapper, one object
// program-wide.
inline HotTallies& hot_tallies() noexcept {
  static thread_local HotTallies tallies;
  return tallies;
}

// Adds the calling thread's tallies to the registry counters and zeroes
// them. Must run on every thread that did instrumented arithmetic before
// its numbers are expected in a snapshot (worker threads: before exit).
void drain_hot_tallies();

#if MINMACH_OBS_ENABLED
#define MINMACH_OBS_TALLY(field) (++::minmach::obs::hot_tallies().field)
#define MINMACH_OBS_TALLY_ADD(field, delta) \
  (::minmach::obs::hot_tallies().field += (delta))
#else
// `delta` is still evaluated, so an argument keeps its side effects and
// its operands stay used.
#define MINMACH_OBS_TALLY(field) ((void)0)
#define MINMACH_OBS_TALLY_ADD(field, delta) ((void)(delta))
#endif

// ---- registered metrics ------------------------------------------------

class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-writer-wins level plus a monotone max. Use only from one logical
// writer at a time (e.g. the recursion depth of a single adversary game);
// concurrent set() calls would make the level nondeterministic.
class Gauge {
 public:
  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
    update_max(value);
  }
  void add(std::int64_t delta) {
    update_max(value_.fetch_add(delta, std::memory_order_relaxed) + delta);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t max_value() const {
    return max_.load(std::memory_order_relaxed);
  }
  void reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void update_max(std::int64_t candidate) {
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !max_.compare_exchange_weak(seen, candidate,
                                       std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

struct HistogramData {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;  // meaningful only when count > 0
  std::int64_t max = 0;
  // log2 bucket index (bit_width of the clamped-to->=0 sample) -> count.
  std::map<int, std::uint64_t> bins;

  friend bool operator==(const HistogramData&, const HistogramData&) = default;
};

// Log2-bucketed histogram of non-negative integer samples (negative samples
// clamp to 0). Buckets, count, and sum merge by addition; min/max by
// min/max -- all commutative, so parallel observation is deterministic.
class Histogram {
 public:
  // timing = true marks a wall-clock-duration histogram (ScopedTimer);
  // such histograms are segregated into the snapshot's `timings` section
  // and excluded from deterministic serialization.
  explicit Histogram(bool timing = false) : timing_(timing) {}

  void observe(std::int64_t sample);
  [[nodiscard]] bool is_timing() const { return timing_; }
  [[nodiscard]] HistogramData data() const;
  void reset();

 private:
  static constexpr int kBuckets = 65;  // bit_width of a uint64 sample: 0..64

  bool timing_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{INT64_MAX};  // sentinel until first sample
  std::atomic<std::int64_t> max_{0};
  std::atomic<std::uint64_t> bins_[kBuckets] = {};
};

// Records the elapsed wall time in nanoseconds into a timing histogram on
// destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    auto elapsed = std::chrono::steady_clock::now() - start_;
    sink_.observe(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& sink_;
  std::chrono::steady_clock::time_point start_;
};

// ---- snapshots ---------------------------------------------------------

// True for metrics describing HOW work was executed (probe counts, flow
// passes, arithmetic and memory tallies, SIMD lane usage, profiler spans,
// latency histograms, bound-tier and dynamic-edit tallies): name prefixes
// oracle. / flow. / bigint. / rat. / mem. / simd. / profile. / hist. /
// bounds. / dyn.. Snapshots segregate these (see file comment) because the
// platform's SIMD support and the bound tier move them.
// Classification is by name, not by a flag at registration, so a counter
// read via Registry::counter("mem.x") in a bench lands in the same class
// as one drained from hot tallies.
[[nodiscard]] bool is_exec_metric(std::string_view name);

struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;      // current value
  std::map<std::string, std::int64_t> gauge_maxes; // high-water marks
  std::map<std::string, HistogramData> histograms; // deterministic
  std::map<std::string, HistogramData> timings;    // wall clock, excluded by default
  // Execution-class metrics (is_exec_metric): exact but mode dependent,
  // excluded from to_json() by default.
  std::map<std::string, std::uint64_t> exec_counters;
  std::map<std::string, HistogramData> exec_histograms;

  // Metric deltas since `baseline`: counters/histograms subtract, gauges
  // keep this snapshot's values. Missing-in-baseline entries pass through.
  [[nodiscard]] Snapshot diff(const Snapshot& baseline) const;

  // Deterministic serialization (std::map key order, integer values);
  // timings only when include_timings, execution-class sections only when
  // include_exec.
  [[nodiscard]] std::string to_json(bool include_timings = false,
                                    bool include_exec = false) const;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

class Registry {
 public:
  // Process-wide registry every instrumented component reports into.
  static Registry& global();

  // Named lookup; creates on first use. References stay valid for the
  // registry's lifetime (reset() zeroes values, it never deletes metrics).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  Histogram& timing(const std::string& name);

  // Drains the calling thread's hot tallies, then copies every metric.
  [[nodiscard]] Snapshot snapshot();

  // Zeroes every registered metric and the calling thread's hot tallies
  // (for test isolation). Other threads' undrained tallies are untouched.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace minmach::obs
