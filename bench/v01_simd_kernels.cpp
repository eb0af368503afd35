// V1 -- the SIMD kernel layer (DESIGN.md §12): the int64 load-sweep kernel
// with AVX2 lanes and its portable scalar twin against the generic
// __int128 sweep it restates (the wall-clock counterpart of the SweepSimd
// differential tests). Every witness is checked equal to the generic
// sweep's before its timing is reported.
//
// Acceptance (enforced in-bench like m01/b01): at the largest row with
// n >= 2000 the AVX2 kernel must be >= 2x faster than the generic sweep.
// Rows land in --out (BENCH_simd.json, wall times included so NOT
// byte-deterministic). On a machine without AVX2 (or a MINMACH_SIMD=scalar
// build) the avx2 column is skipped and no bar is enforced -- the scalar
// rows still validate.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench/bench_common.hpp"
#include "minmach/core/load_sweep.hpp"
#include "minmach/core/load_sweep_simd.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/obs/json.hpp"
#include "minmach/util/cli.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/simd.hpp"
#include "minmach/util/table.hpp"

namespace {

using namespace minmach;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::vector<std::int64_t> parse_sizes(const std::string& csv) {
  std::vector<std::int64_t> out;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) out.push_back(std::stoll(token));
  return out;
}

// Best-of-`reps` wall time of fn() (min absorbs scheduler noise on shared
// boxes; every repetition's result is still checked by the caller).
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    fn();
    best = std::min(best, ms_since(start));
  }
  return best;
}

// Int64 views of a small-integer instance (the sweep kernel's input form).
struct IntInstance {
  std::vector<std::int64_t> release, deadline, processing, points;
};

IntInstance narrow(const Instance& instance) {
  IntInstance out;
  const std::size_t n = instance.size();
  std::vector<Rat> release(n), deadline(n), processing(n);
  for (std::size_t j = 0; j < n; ++j) {
    release[j] = instance.job(j).release;
    deadline[j] = instance.job(j).deadline;
    processing[j] = instance.job(j).processing;
  }
  const std::vector<Rat> points = instance.event_points();
  out.release.resize(n);
  out.deadline.resize(n);
  out.processing.resize(n);
  out.points.resize(points.size());
  bench::require(
      rat_batch::to_i64(release.data(), n, out.release.data(), INT64_MAX) &&
          rat_batch::to_i64(deadline.data(), n, out.deadline.data(),
                            INT64_MAX) &&
          rat_batch::to_i64(processing.data(), n, out.processing.data(),
                            INT64_MAX) &&
          rat_batch::to_i64(points.data(), points.size(), out.points.data(),
                            INT64_MAX),
      "generated instance is not small-integer");
  return out;
}

bool same_witness(const SweepWitness& a, const SweepWitness& b) {
  return a.machines == b.machines && a.lo == b.lo && a.hi == b.hi;
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  const std::string sizes_csv = cli.get_string("sizes", "500,1000,2000,4000");
  const std::int64_t reps = cli.get_int("reps", 3);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string out_path = cli.get_string("out", "BENCH_simd.json");
  bench::Run ctx(cli, "V1: AVX2 load-sweep kernel vs the generic sweep",
                 "bit-identical witnesses, >= 2x wall over the generic sweep");
  cli.check_unknown();
  const std::vector<std::int64_t> sizes = parse_sizes(sizes_csv);
  const bool avx2 = util::simd::supported();
  ctx.config("sizes", sizes_csv);
  ctx.config("reps", reps);
  ctx.config("seed", static_cast<std::int64_t>(seed));
  ctx.config("avx2_available", avx2 ? "yes" : "no");
  if (!avx2)
    std::cout << "note: AVX2 kernels unavailable (CPU or build); scalar "
                 "rows only, no speedup bar enforced\n";

  struct MicroRow {
    std::string kernel;
    std::int64_t n = 0;
    double scalar_ms = 0.0;
    double simd_ms = 0.0;  // 0 when AVX2 is unavailable
  };
  std::vector<MicroRow> micro;

  // int64 load sweep (scalar twin vs AVX2 lanes) and the generic __int128
  // sweep as the reference; all three witnesses must agree exactly.
  for (std::int64_t n : sizes) {
    const std::int64_t horizon = std::max<std::int64_t>(4, n / 8);
    Rng rng(seed + static_cast<std::uint64_t>(n));
    const Instance instance = gen_unit(
        rng, GenConfig{static_cast<std::size_t>(n), horizon, horizon, 1});
    const IntInstance ints = narrow(instance);

    std::vector<__int128> wide_r(ints.release.begin(), ints.release.end());
    std::vector<__int128> wide_d(ints.deadline.begin(), ints.deadline.end());
    std::vector<__int128> wide_p(ints.processing.begin(),
                                 ints.processing.end());
    std::vector<__int128> wide_pts(ints.points.begin(), ints.points.end());
    // The generic __int128 sweep is the reference; the restructured int64
    // scalar twin is reported as its own row (the compaction restructure
    // alone, no lanes).
    SweepWitness generic;
    auto ceil_div = [](const __int128& c, const __int128& len) {
      return static_cast<std::int64_t>((c + len - 1) / len);
    };
    MicroRow row{"load_sweep", n, 0.0, 0.0};
    row.scalar_ms = best_of(static_cast<int>(reps), [&] {
      generic =
          sweep_load_bound<__int128>(wide_r, wide_d, wide_p, wide_pts, ceil_div);
    });
    MicroRow twin{"load_sweep_i64twin", n, 0.0, 0.0};
    SweepWitness scalar_w, simd_w;
    twin.scalar_ms = best_of(static_cast<int>(reps), [&] {
      scalar_w = sweep_load_bound_i64(ints.release, ints.deadline,
                                      ints.processing, ints.points,
                                      /*left_stride=*/1, /*use_avx2=*/false);
    });
    bench::require(same_witness(scalar_w, generic),
                   "scalar i64 sweep disagrees with the generic sweep");
    if (avx2) {
      row.simd_ms = best_of(static_cast<int>(reps), [&] {
        simd_w = sweep_load_bound_i64(ints.release, ints.deadline,
                                      ints.processing, ints.points,
                                      /*left_stride=*/1, /*use_avx2=*/true);
      });
      bench::require(same_witness(simd_w, generic),
                     "avx2 sweep disagrees with the generic sweep");
      twin.simd_ms = row.simd_ms;
    }
    micro.push_back(row);
    micro.push_back(twin);
  }

  Table micro_table({"kernel", "n", "scalar ms", "simd ms", "speedup"});
  for (const MicroRow& row : micro) {
    const double speedup =
        row.simd_ms > 0.0 ? row.scalar_ms / row.simd_ms : 0.0;
    micro_table.add_row({row.kernel, std::to_string(row.n),
                         Table::fmt(row.scalar_ms, 3),
                         row.simd_ms > 0.0 ? Table::fmt(row.simd_ms, 3) : "-",
                         row.simd_ms > 0.0 ? Table::fmt(speedup, 2) : "-"});
  }
  micro_table.print(std::cout);
  ctx.table("microkernels", micro_table);

  // Acceptance: >= 2x for the sweep kernel at the largest row with
  // n >= 2000 (smaller sizes are dominated by fixed costs and are
  // smoke-only).
  if (avx2) {
    const MicroRow* sweep_largest = nullptr;
    for (const MicroRow& row : micro) {
      if (row.kernel == "load_sweep" && row.simd_ms > 0.0 && row.n >= 2000 &&
          (!sweep_largest || row.n > sweep_largest->n))
        sweep_largest = &row;
    }
    if (sweep_largest) {
      const double speedup = sweep_largest->scalar_ms /
                             std::max(1e-9, sweep_largest->simd_ms);
      ctx.check("load_sweep kernel: avx2 speedup >= 2 at n=" +
                    std::to_string(sweep_largest->n),
                Table::fmt(speedup, 2), ">= 2", speedup >= 2.0);
    }
  }

  std::ofstream os(out_path);
  bench::require(static_cast<bool>(os), "cannot open " + out_path);
  obs::JsonWriter json(os);
  json.begin_object();
  bench::write_bench_stamp(json);
  json.key("experiment").value("v01_simd_kernels");
  json.key("seed").value(static_cast<std::int64_t>(seed));
  json.key("avx2_available").value(avx2);
  json.key("microkernels").begin_array();
  for (const MicroRow& row : micro) {
    json.begin_object();
    json.key("kernel").value(row.kernel);
    json.key("n").value(row.n);
    json.key("scalar_ms").value(row.scalar_ms);
    if (row.simd_ms > 0.0) {
      json.key("simd_ms").value(row.simd_ms);
      json.key("speedup").value(row.scalar_ms / row.simd_ms);
    }
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
