#include "tools/perfdiff_core.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "minmach/obs/json.hpp"

namespace minmach::tools {

namespace {

// Leaf name of a flattened label: the part after the last '.' that is not
// inside a [...] row key.
std::string leaf_of(const std::string& label) {
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < label.size(); ++i) {
    if (label[i] == '[') ++depth;
    else if (label[i] == ']') --depth;
    else if (label[i] == '.' && depth == 0) start = i + 1;
  }
  return label.substr(start);
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

// ---- flattening --------------------------------------------------------

// Identifying key for an array element that is an object: "name" wins, else
// every string member as k=v plus an integer "n", joined with ','. Empty
// when the object has no identifying members (caller falls back to index).
std::string row_key(const obs::JsonValue& row) {
  if (const obs::JsonValue* name = row.find("name");
      name && name->is_string()) {
    return name->text;
  }
  std::string key;
  for (const auto& [k, v] : row.members) {
    if (v.is_string()) {
      if (!key.empty()) key += ',';
      key += k + "=" + v.text;
    } else if (k == "n" && v.is_number()) {
      if (!key.empty()) key += ',';
      key += "n=" + v.literal;
    }
  }
  return key;
}

void flatten(const std::string& prefix, const obs::JsonValue& value,
             Artifact& out) {
  switch (value.kind) {
    case obs::JsonValue::Kind::kObject:
      for (const auto& [k, v] : value.members) {
        flatten(prefix.empty() ? k : prefix + "." + k, v, out);
      }
      break;
    case obs::JsonValue::Kind::kArray:
      for (std::size_t i = 0; i < value.items.size(); ++i) {
        const obs::JsonValue& item = value.items[i];
        if (item.is_object()) {
          std::string key = row_key(item);
          if (key.empty()) key = std::to_string(i);
          flatten(prefix + "[" + key + "]", item, out);
        } else {
          // Array of scalars: repeats of one metric, accumulated under the
          // array's own label so comparisons see the whole sample set.
          flatten(prefix, item, out);
        }
      }
      break;
    case obs::JsonValue::Kind::kNumber:
      out.metrics[prefix].push_back(value.number);
      break;
    case obs::JsonValue::Kind::kBool:
      out.metrics[prefix].push_back(value.boolean ? 1.0 : 0.0);
      out.bool_labels.insert(prefix);
      break;
    case obs::JsonValue::Kind::kString:
    case obs::JsonValue::Kind::kNull:
      break;  // labels were consumed by row_key; strings are not metrics
  }
}

std::string fmt_value(double v) {
  char buffer[64];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(v));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  }
  return buffer;
}

}  // namespace

MetricClass classify_metric(const std::string& label) {
  // google-benchmark's context block is machine description (num_cpus,
  // mhz_per_cpu, caches, ...), not measurement.
  if (label.compare(0, 8, "context.") == 0) return MetricClass::kIgnore;
  const std::string leaf = leaf_of(label);
  if (ends_with(leaf, "_ms") || ends_with(leaf, "_ns") ||
      leaf == "real_time" || leaf == "cpu_time") {
    return MetricClass::kTime;
  }
  if (leaf == "opt" || leaf == "load_lb" || leaf == "machines" ||
      leaf == "n" || leaf == "seed" || leaf == "feasible" ||
      leaf == "levels" || ends_with(leaf, "_ok")) {
    return MetricClass::kIdentity;
  }
  if (contains(leaf, "speedup") || ends_with(leaf, "_ratio") ||
      contains(leaf, "hit_rate") || contains(leaf, "share")) {
    return MetricClass::kHigherBetter;
  }
  // Bound-tier effectiveness counters: pinched sandwiches and probes the
  // sandwich short-circuited measure work AVOIDED, so a drop is a
  // regression. Checked before the count markers -- "probes" would
  // otherwise classify bounds.probes_skipped as a plain count.
  if (contains(label, "bounds.") &&
      (leaf == "pinched" || leaf == "probes_skipped")) {
    return MetricClass::kHigherBetter;
  }
  // Dynamic-oracle repair effectiveness: every avoided rebuild is a cold
  // Horn-network construction the warm splice path saved, so fewer is a
  // regression. Checked before the count markers -- "builds" would
  // otherwise classify dyn.rebuilds_avoided as a plain count.
  if (contains(label, "dyn.") && leaf == "rebuilds_avoided") {
    return MetricClass::kHigherBetter;
  }
  static constexpr const char* kCountMarkers[] = {
      "probes",  "passes", "paths",  "edges",      "visits",   "rounds",
      "steals",  "allocs", "ops",    "spills",     "promotions",
      "count",   "builds", "hits",   "misses",     "segments", "retired",
      "iterations", "repetitions", "bytes", "lanes"};
  for (const char* marker : kCountMarkers) {
    if (contains(leaf, marker)) return MetricClass::kCount;
  }
  return MetricClass::kIgnore;
}

const char* metric_class_name(MetricClass cls) {
  switch (cls) {
    case MetricClass::kTime: return "time";
    case MetricClass::kCount: return "count";
    case MetricClass::kIdentity: return "identity";
    case MetricClass::kHigherBetter: return "higher-better";
    case MetricClass::kIgnore: return "ignore";
  }
  return "?";
}

Artifact parse_artifact(const std::string& text, const std::string& origin) {
  obs::JsonValue root;
  try {
    root = obs::parse_json(text);
  } catch (const std::exception& error) {
    throw std::runtime_error(origin + ": " + error.what());
  }
  Artifact out;
  if (const obs::JsonValue* schema = root.find("schema");
      schema && schema->is_string()) {
    out.schema = schema->text;
  }
  if (const obs::JsonValue* rev = root.find("git_rev");
      rev && rev->is_string()) {
    out.git_rev = rev->text;
  }
  // google-benchmark artifacts stamp through AddCustomContext.
  if (const obs::JsonValue* context = root.find("context");
      context && context->is_object()) {
    if (const obs::JsonValue* schema = context->find("schema");
        out.schema.empty() && schema && schema->is_string()) {
      out.schema = schema->text;
    }
    if (const obs::JsonValue* rev = context->find("git_rev");
        out.git_rev.empty() && rev && rev->is_string()) {
      out.git_rev = rev->text;
    }
  }
  flatten("", root, out);
  return out;
}

Artifact load_artifact(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("perfdiff: cannot open " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return parse_artifact(buffer.str(), path);
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

DiffResult diff_artifacts(const Artifact& baseline, const Artifact& candidate,
                          const Thresholds& thresholds) {
  DiffResult out;
  for (const auto& [label, base_samples] : baseline.metrics) {
    const auto it = candidate.metrics.find(label);
    if (it == candidate.metrics.end()) {
      ++out.missing;
      continue;
    }
    MetricClass cls = classify_metric(label);
    // Booleans are results regardless of name.
    if (cls == MetricClass::kIgnore && baseline.bool_labels.count(label))
      cls = MetricClass::kIdentity;
    const bool enabled =
        (cls == MetricClass::kTime && thresholds.check_time) ||
        (cls == MetricClass::kCount && thresholds.check_count) ||
        (cls == MetricClass::kIdentity && thresholds.check_identity) ||
        (cls == MetricClass::kHigherBetter && thresholds.check_higher);
    if (!enabled) {
      ++out.skipped;
      continue;
    }
    const double b = median(base_samples);
    const double c = median(it->second);
    Finding finding{label, cls, b, c, ""};
    switch (cls) {
      case MetricClass::kTime: {
        // _ns metrics get the same floor expressed in nanoseconds;
        // google-benchmark's real_time/cpu_time default to ns too.
        const std::string leaf = leaf_of(label);
        const double floor = ends_with(leaf, "_ms")
                                 ? thresholds.min_time_ms
                                 : thresholds.min_time_ms * 1e6;
        if (b < floor && c < floor) {
          ++out.skipped;  // both below the noise floor: not comparable
          continue;
        }
        ++out.compared;
        if (c > b * thresholds.time_tol) {
          finding.detail = "slower: " + fmt_value(c) + " > " + fmt_value(b) +
                           " * " + fmt_value(thresholds.time_tol);
          out.regressions.push_back(std::move(finding));
        }
        break;
      }
      case MetricClass::kCount:
        ++out.compared;
        if (c > b * thresholds.count_tol + thresholds.count_slack) {
          finding.detail = "work grew: " + fmt_value(c) + " > " +
                           fmt_value(b) + " * " +
                           fmt_value(thresholds.count_tol) + " + " +
                           fmt_value(thresholds.count_slack);
          out.regressions.push_back(std::move(finding));
        }
        break;
      case MetricClass::kIdentity:
        ++out.compared;
        if (b != c) {
          finding.detail =
              "result changed: " + fmt_value(c) + " != " + fmt_value(b);
          out.regressions.push_back(std::move(finding));
        }
        break;
      case MetricClass::kHigherBetter:
        ++out.compared;
        if (c < b / thresholds.count_tol) {
          finding.detail = "dropped: " + fmt_value(c) + " < " + fmt_value(b) +
                           " / " + fmt_value(thresholds.count_tol);
          out.regressions.push_back(std::move(finding));
        }
        break;
      case MetricClass::kIgnore:
        ++out.skipped;
        break;
    }
  }
  for (const auto& [label, samples] : candidate.metrics) {
    if (!baseline.metrics.count(label)) ++out.missing;
  }
  return out;
}

}  // namespace minmach::tools
