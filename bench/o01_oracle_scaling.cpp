// O1 -- oracle scaling: the production oracle's Horn network
// (segment-tree-compressed, warm-started probes) as n grows.
//
// Sweeps n over --sizes. Per instance it times the production OPT query
// (which the certified bound sandwich may answer without any probe), then,
// on a fresh oracle, one probe(OPT): one network build and one max flow,
// the least a network search must do. The probe's wall time
// (probe_wall_ms -- not fast_wall_ms, which in the committed top-level
// BENCH_oracle.json timed a whole OPT search), flow.edge_visits and
// warm/cold probe counts are the network-scaling rows in --out
// (BENCH_oracle.json). The edge-visit and probe counts are
// deterministic per revision, so the CI perfdiff sentinel gates them
// against the committed smoke baseline. The committed top-level
// BENCH_oracle.json also keeps the measured ratios against the
// pre-compression dense oracle, which no longer exists in the tree.
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench/bench_common.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/obs/json.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/util/cli.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/table.hpp"

namespace {

struct Measurement {
  std::int64_t opt = 0;
  double opt_wall_ms = 0.0;        // production OPT query
  std::uint64_t opt_probes = 0;
  double probe_wall_ms = 0.0;      // probe(OPT) on a fresh oracle
  std::uint64_t edge_visits = 0;
  std::uint64_t probes = 0;
  std::uint64_t warm_probes = 0;
  std::uint64_t cold_probes = 0;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The production OPT query, then one probe(OPT) on a fresh oracle with the
// flow/oracle counter deltas attributed to it.
Measurement measure(const minmach::Instance& instance) {
  using Clock = std::chrono::steady_clock;
  Measurement out;
  Clock::time_point start = Clock::now();
  {
    minmach::FeasibilityOracle oracle(instance);
    out.opt = oracle.optimal_machines();
    out.opt_probes = oracle.probes_executed();
  }
  out.opt_wall_ms = ms_since(start);

  minmach::obs::Registry& registry = minmach::obs::Registry::global();
  minmach::obs::drain_hot_tallies();
  const std::uint64_t edges0 = registry.counter("flow.edge_visits").value();
  const std::uint64_t probes0 = registry.counter("oracle.probes").value();
  const std::uint64_t warm0 = registry.counter("oracle.warm_probes").value();
  const std::uint64_t cold0 = registry.counter("oracle.cold_probes").value();
  start = Clock::now();
  {
    minmach::FeasibilityOracle oracle(instance);
    minmach::bench::require(oracle.probe(out.opt),
                            "the network rejects the oracle's OPT");
  }
  out.probe_wall_ms = ms_since(start);
  minmach::obs::drain_hot_tallies();
  out.edge_visits = registry.counter("flow.edge_visits").value() - edges0;
  out.probes = registry.counter("oracle.probes").value() - probes0;
  out.warm_probes = registry.counter("oracle.warm_probes").value() - warm0;
  out.cold_probes = registry.counter("oracle.cold_probes").value() - cold0;
  return out;
}

std::vector<std::int64_t> parse_sizes(const std::string& csv) {
  std::vector<std::int64_t> out;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) out.push_back(std::stoll(token));
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace minmach;
  Cli cli(argc, argv);
  const std::string sizes_csv =
      cli.get_string("sizes", "250,500,1000,2000,4000");
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string out_path = cli.get_string("out", "BENCH_oracle.json");
  bench::Run ctx(cli,
                 "O1: oracle scaling -- compressed network + warm probes",
                 "OPT oracle in O(n log S) edges and ~one max-flow total");
  cli.check_unknown();
  const std::vector<std::int64_t> sizes = parse_sizes(sizes_csv);
  ctx.config("sizes", sizes_csv);
  ctx.config("seed", static_cast<std::int64_t>(seed));

  struct Row {
    std::string family;
    std::int64_t n = 0;
    Measurement fast;
  };
  std::vector<Row> rows;

  struct Family {
    const char* name;
    Instance (*generate)(Rng&, const GenConfig&);
    GenConfig (*config)(std::int64_t n);
  };
  const Family families[] = {
      // Unit jobs on an integer grid with windows as wide as the horizon:
      // every leaf is uncapped, so each job covers its ~S/2 in-window
      // segments with O(log S) tree edges, and the load keeps OPT ~ 8.
      {"unit-wide", gen_unit,
       [](std::int64_t n) {
         const std::int64_t horizon = std::max<std::int64_t>(4, n / 8);
         return GenConfig{static_cast<std::size_t>(n), horizon, horizon, 1};
       }},
      // General jobs with p_j a random fraction of a narrow window: most
      // in-window segments are shorter than p_j, so the compressed network
      // degrades toward dense direct edges (the warm start and sweep bound
      // still apply).
      {"general", gen_general,
       [](std::int64_t n) {
         return GenConfig{static_cast<std::size_t>(n), 2 * n,
                          std::max<std::int64_t>(8, n / 8), 2};
       }},
  };

  Table table({"family", "n", "opt", "OPT ms", "OPT probes", "probe(OPT) ms",
               "edges", "warm/cold"});
  for (const Family& family : families) {
    for (std::int64_t n : sizes) {
      const GenConfig config = family.config(n);
      Rng rng(seed + static_cast<std::uint64_t>(n));
      const Instance instance = family.generate(rng, config);

      Row row;
      row.family = family.name;
      row.n = n;
      row.fast = measure(instance);
      rows.push_back(row);
      table.add_row({row.family, std::to_string(row.n),
                     std::to_string(row.fast.opt),
                     Table::fmt(row.fast.opt_wall_ms, 2),
                     std::to_string(row.fast.opt_probes),
                     Table::fmt(row.fast.probe_wall_ms, 2),
                     std::to_string(row.fast.edge_visits),
                     std::to_string(row.fast.warm_probes) + "/" +
                         std::to_string(row.fast.cold_probes)});
    }
  }
  table.print(std::cout);
  ctx.table("oracle scaling", table);

  // Machine-readable record (wall times included, so this file is NOT
  // byte-deterministic -- unlike --report).
  std::ofstream os(out_path);
  bench::require(static_cast<bool>(os), "cannot open " + out_path);
  obs::JsonWriter json(os);
  json.begin_object();
  bench::write_bench_stamp(json);
  json.key("experiment").value("o01_oracle_scaling");
  json.key("seed").value(static_cast<std::int64_t>(seed));
  json.key("rows").begin_array();
  for (const Row& row : rows) {
    json.begin_object();
    json.key("family").value(row.family);
    json.key("n").value(row.n);
    json.key("opt").value(row.fast.opt);
    json.key("production_wall_ms").value(row.fast.opt_wall_ms);
    json.key("production_probes").value(row.fast.opt_probes);
    json.key("probe_wall_ms").value(row.fast.probe_wall_ms);
    json.key("fast_edge_visits").value(row.fast.edge_visits);
    json.key("fast_probes").value(row.fast.probes);
    json.key("warm_probes").value(row.fast.warm_probes);
    json.key("cold_probes").value(row.fast.cold_probes);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
} catch (const minmach::CliError& error) {
  return minmach::bench::usage_error(error);
}
