#include "minmach/obs/metrics.hpp"

#include <bit>
#include <sstream>

#include "minmach/obs/json.hpp"
#include "minmach/obs/profile.hpp"

namespace minmach::obs {

void drain_hot_tallies() {
  // Piggyback the span-profiler drain on every tally drain point
  // (parallel_map workers, Registry::snapshot), so a
  // profiled parallel run folds every thread's span tree exactly once.
  profile_drain_thread();
  HotTallies& t = hot_tallies();
  if (t.bigint_promotions == 0 && t.bigint_slow_ops == 0 &&
      t.rat_fast_ops == 0 && t.rat_slow_ops == 0 && t.bigint_spill == 0 &&
      t.arena_bytes == 0 && t.heap_allocs == 0 && t.simd_lanes_used == 0 &&
      t.simd_scalar_spills == 0)
    return;
  Registry& registry = Registry::global();
  registry.counter("bigint.promotions").add(t.bigint_promotions);
  registry.counter("bigint.slow_ops").add(t.bigint_slow_ops);
  registry.counter("rat.fast_ops").add(t.rat_fast_ops);
  registry.counter("rat.slow_ops").add(t.rat_slow_ops);
  registry.counter("mem.bigint_spill").add(t.bigint_spill);
  registry.counter("mem.arena_bytes").add(t.arena_bytes);
  registry.counter("mem.heap_allocs").add(t.heap_allocs);
  registry.counter("simd.lanes_used").add(t.simd_lanes_used);
  registry.counter("simd.scalar_spills").add(t.simd_scalar_spills);
  t = HotTallies{};
}

void Histogram::observe(std::int64_t sample) {
  if (sample < 0) sample = 0;
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
  // min_ starts at the INT64_MAX sentinel (see reset()), so a plain
  // monotone CAS loop is race-free for the first sample too.
  std::int64_t seen = min_.load(std::memory_order_relaxed);
  while (sample < seen && !min_.compare_exchange_weak(
                              seen, sample, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (sample > seen && !max_.compare_exchange_weak(
                              seen, sample, std::memory_order_relaxed)) {
  }
  int bucket = std::bit_width(static_cast<std::uint64_t>(sample));
  bins_[bucket].fetch_add(1, std::memory_order_relaxed);
}

HistogramData Histogram::data() const {
  HistogramData out;
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  out.min = out.count == 0 ? 0 : min_.load(std::memory_order_relaxed);
  out.max = max_.load(std::memory_order_relaxed);
  for (int b = 0; b < kBuckets; ++b) {
    std::uint64_t n = bins_[b].load(std::memory_order_relaxed);
    if (n != 0) out.bins[b] = n;
  }
  return out;
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(INT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (int b = 0; b < kBuckets; ++b) bins_[b].store(0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(/*timing=*/false);
  return *slot;
}

Histogram& Registry::timing(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(/*timing=*/true);
  return *slot;
}

bool is_exec_metric(std::string_view name) {
  static constexpr std::string_view kPrefixes[] = {
      "oracle.", "flow.", "cache.", "bigint.", "rat.", "mem.", "simd.",
      "profile.", "hist.", "bounds.", "dyn.", "store."};
  for (std::string_view prefix : kPrefixes) {
    if (name.substr(0, prefix.size()) == prefix) return true;
  }
  return false;
}

Snapshot Registry::snapshot() {
  drain_hot_tallies();
  Snapshot out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    (is_exec_metric(name) ? out.exec_counters : out.counters)[name] =
        counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    out.gauges[name] = gauge->value();
    out.gauge_maxes[name] = gauge->max_value();
  }
  for (const auto& [name, histogram] : histograms_) {
    auto& sink = histogram->is_timing()
                     ? out.timings
                     : (is_exec_metric(name) ? out.exec_histograms
                                             : out.histograms);
    sink[name] = histogram->data();
  }
  return out;
}

void Registry::reset() {
  hot_tallies() = HotTallies{};
  profile_reset_thread();
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

namespace {

HistogramData diff_histogram(const HistogramData& current,
                             const HistogramData& baseline) {
  HistogramData out;
  out.count = current.count - baseline.count;
  out.sum = current.sum - baseline.sum;
  // min/max do not subtract; keep the current extrema (they still bound the
  // diffed samples when the baseline is a prefix of the same run).
  out.min = current.min;
  out.max = current.max;
  out.bins = current.bins;
  for (const auto& [bucket, n] : baseline.bins) {
    auto it = out.bins.find(bucket);
    if (it == out.bins.end()) continue;
    it->second -= n;
    if (it->second == 0) out.bins.erase(it);
  }
  return out;
}

void write_histograms(JsonWriter& writer,
                      const std::map<std::string, HistogramData>& histograms) {
  writer.begin_object();
  for (const auto& [name, data] : histograms) {
    writer.key(name).begin_object();
    writer.key("count").value(data.count);
    writer.key("sum").value(data.sum);
    writer.key("min").value(data.min);
    writer.key("max").value(data.max);
    writer.key("bins").begin_object();
    for (const auto& [bucket, n] : data.bins) {
      writer.key(std::to_string(bucket)).value(n);
    }
    writer.end_object();
    writer.end_object();
  }
  writer.end_object();
}

}  // namespace

Snapshot Snapshot::diff(const Snapshot& baseline) const {
  Snapshot out = *this;
  for (auto& [name, value] : out.counters) {
    auto it = baseline.counters.find(name);
    if (it != baseline.counters.end()) value -= it->second;
  }
  for (auto& [name, value] : out.exec_counters) {
    auto it = baseline.exec_counters.find(name);
    if (it != baseline.exec_counters.end()) value -= it->second;
  }
  for (auto& [name, data] : out.histograms) {
    auto it = baseline.histograms.find(name);
    if (it != baseline.histograms.end()) data = diff_histogram(data, it->second);
  }
  for (auto& [name, data] : out.exec_histograms) {
    auto it = baseline.exec_histograms.find(name);
    if (it != baseline.exec_histograms.end())
      data = diff_histogram(data, it->second);
  }
  for (auto& [name, data] : out.timings) {
    auto it = baseline.timings.find(name);
    if (it != baseline.timings.end()) data = diff_histogram(data, it->second);
  }
  return out;
}

std::string Snapshot::to_json(bool include_timings, bool include_exec) const {
  std::ostringstream os;
  JsonWriter writer(os);
  writer.begin_object();
  writer.key("counters").begin_object();
  for (const auto& [name, value] : counters) writer.key(name).value(value);
  writer.end_object();
  writer.key("gauges").begin_object();
  for (const auto& [name, value] : gauges) {
    writer.key(name).begin_object();
    writer.key("value").value(value);
    auto it = gauge_maxes.find(name);
    writer.key("max").value(it == gauge_maxes.end() ? value : it->second);
    writer.end_object();
  }
  writer.end_object();
  writer.key("histograms");
  write_histograms(writer, histograms);
  if (include_exec) {
    writer.key("exec_counters").begin_object();
    for (const auto& [name, value] : exec_counters)
      writer.key(name).value(value);
    writer.end_object();
    writer.key("exec_histograms");
    write_histograms(writer, exec_histograms);
  }
  if (include_timings) {
    writer.key("timings");
    write_histograms(writer, timings);
  }
  writer.end_object();
  return os.str();
}

}  // namespace minmach::obs
