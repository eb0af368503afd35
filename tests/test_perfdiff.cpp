// Tests for the noise-aware bench-regression core (tools/perfdiff_core):
// metric classification by leaf name, artifact flattening with stable row
// keys, schema stamp extraction, and the per-class threshold logic of
// diff_artifacts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tools/perfdiff_core.hpp"

namespace minmach::tools {
namespace {

Artifact parse(const std::string& text) {
  return parse_artifact(text, "test");
}

TEST(PerfdiffClassify, ByLeafName) {
  EXPECT_EQ(classify_metric("rows[n=500].fast_wall_ms"), MetricClass::kTime);
  EXPECT_EQ(classify_metric("probe_ns"), MetricClass::kTime);
  EXPECT_EQ(classify_metric("benchmarks[bigint_add/64].real_time"),
            MetricClass::kTime);
  EXPECT_EQ(classify_metric("cpu_time"), MetricClass::kTime);
  EXPECT_EQ(classify_metric("rows[family=unit-wide,n=250].opt"),
            MetricClass::kIdentity);
  EXPECT_EQ(classify_metric("load_lb"), MetricClass::kIdentity);
  EXPECT_EQ(classify_metric("machines"), MetricClass::kIdentity);
  EXPECT_EQ(classify_metric("config.seed"), MetricClass::kIdentity);
  EXPECT_EQ(classify_metric("checks_ok"), MetricClass::kIdentity);
  EXPECT_EQ(classify_metric("rows[n=250].wall_speedup"),
            MetricClass::kHigherBetter);
  EXPECT_EQ(classify_metric("edge_visit_ratio"), MetricClass::kHigherBetter);
  EXPECT_EQ(classify_metric("rat_fast_hit_rate"), MetricClass::kHigherBetter);
  // Bound-tier effectiveness counters beat the "probes" count marker: work
  // avoided is higher-better, so a drop in pinches/skips is a regression.
  EXPECT_EQ(classify_metric("strong_lb_family.bounds.pinched"),
            MetricClass::kHigherBetter);
  EXPECT_EQ(classify_metric("strong_lb_family.bounds.probes_skipped"),
            MetricClass::kHigherBetter);
  // Dynamic-oracle repair counters: avoided rebuilds are work saved
  // (higher-better, beating the "builds" count marker); patched edges are
  // plain splice work (count).
  EXPECT_EQ(classify_metric("insert_heavy.dyn.rebuilds_avoided"),
            MetricClass::kHigherBetter);
  EXPECT_EQ(classify_metric("insert_heavy.dyn.edges_patched"),
            MetricClass::kCount);
  // No higher-better rule claims the other dyn.* counters or a plain hit
  // tally: they stay counts.
  EXPECT_EQ(classify_metric("insert_heavy.dyn.rebuilds"), MetricClass::kCount);
  EXPECT_EQ(classify_metric("insert_heavy.dyn.drained_paths"),
            MetricClass::kCount);
  EXPECT_EQ(classify_metric("oracle.memo_hits"), MetricClass::kCount);
  EXPECT_EQ(classify_metric("rows[n=250].fast_edge_visits"),
            MetricClass::kCount);
  EXPECT_EQ(classify_metric("fast_probes"), MetricClass::kCount);
  EXPECT_EQ(classify_metric("dinic.bfs_passes"), MetricClass::kCount);
  EXPECT_EQ(classify_metric("mem.arena_bytes"), MetricClass::kCount);
  EXPECT_EQ(classify_metric("context.num_cpus"), MetricClass::kIgnore);
  EXPECT_EQ(classify_metric("context.mhz_per_cpu"), MetricClass::kIgnore);
  EXPECT_EQ(classify_metric("some_label"), MetricClass::kIgnore);
  // The leaf is the part after the last top-level '.': dots inside row
  // keys must not split the label.
  EXPECT_EQ(classify_metric("rows[name=v1.2].opt"), MetricClass::kIdentity);
  EXPECT_EQ(metric_class_name(MetricClass::kHigherBetter),
            std::string("higher-better"));
}

TEST(PerfdiffParse, FlattensRowsWithStableKeys) {
  const Artifact artifact = parse(R"({
    "schema": "bench-json-v1",
    "git_rev": "abc1234",
    "experiment": "o01",
    "rows": [
      {"family": "unit-wide", "n": 250, "opt": 5, "fast_wall_ms": 1.5},
      {"family": "unit-wide", "n": 500, "opt": 9, "fast_wall_ms": 4.0}
    ],
    "repeats_ms": [1.0, 2.0, 3.0],
    "feasible": true
  })");
  EXPECT_EQ(artifact.schema, kBenchJsonSchema);
  EXPECT_EQ(artifact.git_rev, "abc1234");
  ASSERT_EQ(artifact.metrics.count("rows[family=unit-wide,n=250].opt"), 1u);
  EXPECT_EQ(artifact.metrics.at("rows[family=unit-wide,n=250].opt"),
            (std::vector<double>{5.0}));
  ASSERT_EQ(artifact.metrics.count("rows[family=unit-wide,n=500].fast_wall_ms"),
            1u);
  // Scalar arrays accumulate as repeats under one label.
  EXPECT_EQ(artifact.metrics.at("repeats_ms"),
            (std::vector<double>{1.0, 2.0, 3.0}));
  // Booleans become 0/1 samples and are remembered as booleans.
  EXPECT_EQ(artifact.metrics.at("feasible"), (std::vector<double>{1.0}));
  EXPECT_EQ(artifact.bool_labels.count("feasible"), 1u);
  // Strings are labels, not metrics.
  EXPECT_EQ(artifact.metrics.count("experiment"), 0u);
  EXPECT_EQ(artifact.metrics.count("schema"), 0u);
}

TEST(PerfdiffParse, SchemaFromGoogleBenchmarkContext) {
  const Artifact artifact = parse(R"({
    "context": {"schema": "bench-json-v1", "git_rev": "abc1234",
                "num_cpus": 8},
    "benchmarks": [
      {"name": "bigint_add/64", "real_time": 120.0, "cpu_time": 119.0,
       "iterations": 1000}
    ]
  })");
  EXPECT_EQ(artifact.schema, kBenchJsonSchema);
  EXPECT_EQ(artifact.git_rev, "abc1234");
  ASSERT_EQ(artifact.metrics.count("benchmarks[bigint_add/64].real_time"), 1u);
  const Artifact unstamped = parse(R"({"rows": []})");
  EXPECT_EQ(unstamped.schema, "");
}

TEST(PerfdiffParse, MalformedJsonThrowsWithOrigin) {
  try {
    (void)parse_artifact("{nope", "BENCH_x.json");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("BENCH_x.json"),
              std::string::npos);
  }
}

TEST(Perfdiff, MedianOfRepeats) {
  EXPECT_EQ(median({3.0}), 3.0);
  EXPECT_EQ(median({9.0, 1.0, 5.0}), 5.0);   // odd: middle
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);  // even: mean of middles
  EXPECT_EQ(median({}), 0.0);
}

TEST(PerfdiffDiff, IdenticalArtifactsHaveNoRegressions) {
  const std::string text = R"({
    "schema": "bench-json-v1",
    "rows": [{"n": 250, "opt": 5, "fast_probes": 3, "fast_wall_ms": 2.0,
              "wall_speedup": 3.5}]
  })";
  const DiffResult result =
      diff_artifacts(parse(text), parse(text), Thresholds{});
  EXPECT_TRUE(result.regressions.empty());
  // opt + fast_probes + fast_wall_ms + wall_speedup + the row's own "n".
  EXPECT_EQ(result.compared, 5u);
  EXPECT_EQ(result.missing, 0u);
}

TEST(PerfdiffDiff, CountToleranceAndSlack) {
  const auto base = parse(R"({"rows": [{"n": 1, "fast_probes": 100}]})");
  Thresholds t;  // count_tol 1.10, slack 2
  // 112 = 100 * 1.10 + 2: at the bound, not over it.
  auto ok = parse(R"({"rows": [{"n": 1, "fast_probes": 112}]})");
  EXPECT_TRUE(diff_artifacts(base, ok, t).regressions.empty());
  auto bad = parse(R"({"rows": [{"n": 1, "fast_probes": 113}]})");
  const DiffResult result = diff_artifacts(base, bad, t);
  ASSERT_EQ(result.regressions.size(), 1u);
  EXPECT_EQ(result.regressions[0].label, "rows[n=1].fast_probes");
  EXPECT_EQ(result.regressions[0].cls, MetricClass::kCount);
  EXPECT_NE(result.regressions[0].detail.find("work grew"),
            std::string::npos);
  // Slack keeps tiny counts from flagging on +1 boundary effects.
  const auto tiny = parse(R"({"probes": 1})");
  const auto tiny_plus = parse(R"({"probes": 3})");
  EXPECT_TRUE(diff_artifacts(tiny, tiny_plus, t).regressions.empty());
}

TEST(PerfdiffDiff, IdentityIsExact) {
  const auto base = parse(R"({"rows": [{"n": 1, "opt": 5}], "all_ok": true})");
  const auto same = parse(R"({"rows": [{"n": 1, "opt": 5}], "all_ok": true})");
  EXPECT_TRUE(diff_artifacts(base, same, Thresholds{}).regressions.empty());
  const auto changed =
      parse(R"({"rows": [{"n": 1, "opt": 6}], "all_ok": true})");
  DiffResult result = diff_artifacts(base, changed, Thresholds{});
  ASSERT_EQ(result.regressions.size(), 1u);
  EXPECT_EQ(result.regressions[0].cls, MetricClass::kIdentity);
  // Identity is symmetric: an "improvement" in opt is also a regression
  // (the result changed).
  const auto lower = parse(R"({"rows": [{"n": 1, "opt": 4}], "all_ok": true})");
  EXPECT_EQ(diff_artifacts(base, lower, Thresholds{}).regressions.size(), 1u);
  // Booleans are identity even without a recognized leaf name.
  const auto flipped =
      parse(R"({"rows": [{"n": 1, "opt": 5}], "all_ok": false})");
  result = diff_artifacts(base, flipped, Thresholds{});
  ASSERT_EQ(result.regressions.size(), 1u);
  EXPECT_EQ(result.regressions[0].label, "all_ok");
  EXPECT_EQ(result.regressions[0].cls, MetricClass::kIdentity);
}

TEST(PerfdiffDiff, TimeUsesMedianToleranceAndNoiseFloor) {
  Thresholds t;  // time_tol 1.5, min_time_ms 0.5
  // Median of repeats: one slow outlier on either side must not decide.
  const auto base = parse(R"({"wall_ms": [2.0, 2.1, 50.0]})");
  const auto ok = parse(R"({"wall_ms": [2.9, 3.0, 3.1]})");
  EXPECT_TRUE(diff_artifacts(base, ok, t).regressions.empty());  // 3.0 <= 2.1*1.5
  const auto bad = parse(R"({"wall_ms": [3.2, 3.3, 3.4]})");
  const DiffResult result = diff_artifacts(base, bad, t);
  ASSERT_EQ(result.regressions.size(), 1u);
  EXPECT_EQ(result.regressions[0].cls, MetricClass::kTime);
  // Sub-floor timings are noise on both sides: skipped, never compared.
  const auto fast = parse(R"({"wall_ms": 0.01})");
  const auto fast10x = parse(R"({"wall_ms": 0.4})");
  const DiffResult noise = diff_artifacts(fast, fast10x, t);
  EXPECT_TRUE(noise.regressions.empty());
  EXPECT_EQ(noise.compared, 0u);
  EXPECT_EQ(noise.skipped, 1u);
  // _ns leaves get the floor in nanoseconds (0.5 ms = 5e5 ns).
  const auto ns_fast = parse(R"({"probe_ns": 1000})");
  const auto ns_fast10x = parse(R"({"probe_ns": 10000})");
  EXPECT_EQ(diff_artifacts(ns_fast, ns_fast10x, t).compared, 0u);
  const auto ns_slow = parse(R"({"probe_ns": 2000000})");
  const auto ns_slower = parse(R"({"probe_ns": 4000000})");
  EXPECT_EQ(diff_artifacts(ns_slow, ns_slower, t).regressions.size(), 1u);
}

TEST(PerfdiffDiff, HigherBetterTripsOnDrop) {
  Thresholds t;  // drop bound: candidate < baseline / count_tol
  const auto base = parse(R"({"rows": [{"n": 1, "wall_speedup": 3.0}]})");
  const auto ok = parse(R"({"rows": [{"n": 1, "wall_speedup": 2.8}]})");
  EXPECT_TRUE(diff_artifacts(base, ok, t).regressions.empty());
  const auto bad = parse(R"({"rows": [{"n": 1, "wall_speedup": 2.0}]})");
  const DiffResult result = diff_artifacts(base, bad, t);
  ASSERT_EQ(result.regressions.size(), 1u);
  EXPECT_EQ(result.regressions[0].cls, MetricClass::kHigherBetter);
  // A higher speedup is an improvement, never a regression.
  const auto better = parse(R"({"rows": [{"n": 1, "wall_speedup": 9.0}]})");
  EXPECT_TRUE(diff_artifacts(base, better, t).regressions.empty());
}

TEST(PerfdiffDiff, DisabledClassesAndMissingLabels) {
  const auto base =
      parse(R"({"wall_ms": 100.0, "probes": 10, "only_base_visits": 1})");
  const auto cand =
      parse(R"({"wall_ms": 900.0, "probes": 100, "only_cand_visits": 1})");
  Thresholds counts_only;
  counts_only.check_time = false;
  counts_only.check_higher = false;
  const DiffResult result = diff_artifacts(base, cand, counts_only);
  // The 9x time regression is skipped (class disabled); the count trips.
  ASSERT_EQ(result.regressions.size(), 1u);
  EXPECT_EQ(result.regressions[0].label, "probes");
  EXPECT_EQ(result.missing, 2u);  // one label on each side
}

}  // namespace
}  // namespace minmach::tools
