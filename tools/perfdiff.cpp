// perfdiff: noise-aware regression gate over BENCH_*.json artifacts
// (DESIGN.md §13).
//
//   perfdiff --baseline=FILE --candidate=FILE [--candidate=FILE ...]
//            [--time-tol=1.5] [--count-tol=1.10] [--count-slack=2]
//            [--min-time-ms=0.5] [--classes=time,count,identity,higher]
//
// Exit status: 0 = no regressions, 1 = at least one regression,
// 2 = usage error / unreadable artifact / missing bench-json-v1 stamp.
// CI runs it with --classes=count,identity against committed baselines:
// counts are deterministic per revision so they gate exactly, while wall
// clock is left to same-machine comparisons.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "minmach/util/cli.hpp"
#include "tools/perfdiff_core.hpp"

namespace {

using minmach::tools::Artifact;
using minmach::tools::DiffResult;
using minmach::tools::Thresholds;

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "error: " << message << "\n"
            << "usage: perfdiff --baseline=FILE --candidate=FILE\n"
            << "         [--time-tol=1.5] [--count-tol=1.10]\n"
            << "         [--count-slack=2] [--min-time-ms=0.5]\n"
            << "         [--classes=time,count,identity,higher]\n";
  std::exit(2);
}

Artifact load_checked(const std::string& path) {
  Artifact artifact;
  try {
    artifact = minmach::tools::load_artifact(path);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    std::exit(2);
  }
  if (artifact.schema != minmach::tools::kBenchJsonSchema) {
    std::cerr << "error: " << path << ": missing or wrong schema stamp "
              << "(want \"" << minmach::tools::kBenchJsonSchema << "\", got \""
              << artifact.schema << "\"); re-generate the artifact with a "
              << "current bench binary\n";
    std::exit(2);
  }
  return artifact;
}

}  // namespace

int main(int argc, char** argv) try {
  minmach::Cli cli(argc, argv);
  const std::string baseline_path = cli.get_string("baseline", "");
  const std::string candidate_path = cli.get_string("candidate", "");
  Thresholds thresholds;
  thresholds.time_tol = cli.get_double("time-tol", thresholds.time_tol);
  thresholds.count_tol = cli.get_double("count-tol", thresholds.count_tol);
  thresholds.count_slack =
      cli.get_double("count-slack", thresholds.count_slack);
  thresholds.min_time_ms =
      cli.get_double("min-time-ms", thresholds.min_time_ms);
  const std::string classes =
      cli.get_string("classes", "time,count,identity,higher");
  cli.check_unknown();
  if (baseline_path.empty() || candidate_path.empty())
    usage_error("--baseline and --candidate are both required");
  if (thresholds.time_tol < 1.0 || thresholds.count_tol < 1.0)
    usage_error("--time-tol and --count-tol must be >= 1.0");

  thresholds.check_time = false;
  thresholds.check_count = false;
  thresholds.check_identity = false;
  thresholds.check_higher = false;
  std::stringstream class_list(classes);
  std::string cls;
  while (std::getline(class_list, cls, ',')) {
    if (cls == "time") thresholds.check_time = true;
    else if (cls == "count") thresholds.check_count = true;
    else if (cls == "identity") thresholds.check_identity = true;
    else if (cls == "higher") thresholds.check_higher = true;
    else if (!cls.empty())
      usage_error("unknown metric class '" + cls +
                  "' (want time, count, identity, higher)");
  }
  // An empty list would compare nothing and pass vacuously.
  if (!thresholds.check_time && !thresholds.check_count &&
      !thresholds.check_identity && !thresholds.check_higher)
    usage_error("--classes names no metric class (got '" + classes + "')");

  const Artifact baseline = load_checked(baseline_path);
  const Artifact candidate = load_checked(candidate_path);
  const DiffResult result =
      minmach::tools::diff_artifacts(baseline, candidate, thresholds);

  std::cout << "perfdiff: " << baseline_path << " (rev "
            << (baseline.git_rev.empty() ? "?" : baseline.git_rev) << ") vs "
            << candidate_path << " (rev "
            << (candidate.git_rev.empty() ? "?" : candidate.git_rev) << ")\n"
            << "  compared " << result.compared << " metrics, skipped "
            << result.skipped << ", only-one-side " << result.missing << "\n";
  for (const minmach::tools::Finding& finding : result.regressions) {
    std::cout << "  REGRESSION [" << metric_class_name(finding.cls) << "] "
              << finding.label << ": " << finding.detail << "\n";
  }
  if (result.regressions.empty()) {
    std::cout << "  OK: no regressions\n";
    return 0;
  }
  std::cout << "  " << result.regressions.size() << " regression(s)\n";
  return 1;
} catch (const minmach::CliError& error) {
  // A malformed command line (a bare token, an unknown flag, a number that
  // does not parse) from Cli's constructor or any getter.
  usage_error(error.what());
}
