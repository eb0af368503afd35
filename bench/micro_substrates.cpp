// Substrate micro-benchmarks (google-benchmark): exact arithmetic, the
// max-flow feasibility oracle, the single-machine admission test, and the
// end-to-end online simulator. These are the primitives every experiment
// above is built on; tracking their throughput keeps the experiment
// runtimes predictable.
#include <benchmark/benchmark.h>

#include "minmach/algos/nonmig.hpp"
#include "minmach/algos/single_machine.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/sim/engine.hpp"
#include "minmach/util/bigint.hpp"
#include "minmach/util/rng.hpp"

namespace {

using namespace minmach;

// Small-tier fast paths: operands fit int64, so these stay entirely on the
// inline representation (no allocation). The ISSUE acceptance bar is >= 5x
// over the seed's always-limb implementation.
void BM_BigIntSmallAdd(benchmark::State& state) {
  Rng rng(11);
  std::vector<BigInt> values;
  for (int i = 0; i < 64; ++i)
    values.emplace_back(rng.uniform_int(-1000000, 1000000));
  for (auto _ : state) {
    BigInt sum(0);
    for (const auto& v : values) sum += v;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BigIntSmallAdd);

void BM_BigIntSmallMultiply(benchmark::State& state) {
  BigInt a(123456789);
  BigInt b(987654321);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigIntSmallMultiply);

void BM_RatSmallAdd(benchmark::State& state) {
  Rng rng(12);
  std::vector<Rat> values;
  for (int i = 0; i < 64; ++i)
    values.emplace_back(rng.uniform_int(-1000, 1000),
                        rng.uniform_int(1, 997));
  for (auto _ : state) {
    Rat sum(0);
    for (const auto& v : values) sum += v;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_RatSmallAdd);

void BM_RatSmallMultiply(benchmark::State& state) {
  Rng rng(13);
  std::vector<Rat> values;
  for (int i = 0; i < 64; ++i)
    values.emplace_back(rng.uniform_int(1, 1000), rng.uniform_int(1, 997));
  for (auto _ : state) {
    Rat product(1);
    for (const auto& v : values) {
      product *= v;
      if (product > Rat(1000000)) product = Rat(1, 1000000);
    }
    benchmark::DoNotOptimize(product);
  }
}
BENCHMARK(BM_RatSmallMultiply);

void BM_BigIntMultiply(benchmark::State& state) {
  Rng rng(1);
  BigInt a(1);
  BigInt b(1);
  const auto limbs = static_cast<int>(state.range(0));
  for (int i = 0; i < limbs; ++i) {
    a = a * BigInt(0x100000000ll) + BigInt(rng.uniform_int(1, 0xffffffffll));
    b = b * BigInt(0x100000000ll) + BigInt(rng.uniform_int(1, 0xffffffffll));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigIntMultiply)->Arg(4)->Arg(16)->Arg(64);

void BM_BigIntDivMod(benchmark::State& state) {
  Rng rng(2);
  BigInt a(1);
  BigInt b(1);
  const auto limbs = static_cast<int>(state.range(0));
  for (int i = 0; i < 2 * limbs; ++i)
    a = a * BigInt(0x100000000ll) + BigInt(rng.uniform_int(1, 0xffffffffll));
  for (int i = 0; i < limbs; ++i)
    b = b * BigInt(0x100000000ll) + BigInt(rng.uniform_int(1, 0xffffffffll));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::div_mod(a, b));
  }
}
BENCHMARK(BM_BigIntDivMod)->Arg(4)->Arg(16)->Arg(64);

void BM_RatArithmetic(benchmark::State& state) {
  Rng rng(3);
  std::vector<Rat> values;
  for (int i = 0; i < 64; ++i)
    values.emplace_back(rng.uniform_int(-1000, 1000),
                        rng.uniform_int(1, 997));
  for (auto _ : state) {
    Rat sum(0);
    for (const auto& v : values) sum += v;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_RatArithmetic);

void BM_FlowOptimalMachines(benchmark::State& state) {
  Rng rng(4);
  GenConfig config;
  config.n = static_cast<std::size_t>(state.range(0));
  Instance in = gen_general(rng, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimal_migratory_machines(in));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FlowOptimalMachines)->Arg(20)->Arg(40)->Arg(80)->Complexity();

// The pre-oracle strategy: every probe of the binary search rebuilds the
// Horn network from scratch via the one-shot feasible_migratory entry
// point. Kept as the baseline the incremental FeasibilityOracle (used by
// BM_FlowOptimalMachines above) is measured against; the acceptance bar is
// >= 2x on the full OPT search.
void BM_FlowOptimalMachinesRebuild(benchmark::State& state) {
  Rng rng(4);
  GenConfig config;
  config.n = static_cast<std::size_t>(state.range(0));
  Instance in = gen_general(rng, config);
  const auto n = static_cast<std::int64_t>(in.jobs().size());
  for (auto _ : state) {
    std::int64_t lo = 1;
    std::int64_t hi = n;
    while (lo < hi) {
      std::int64_t mid = lo + (hi - lo) / 2;
      if (feasible_migratory(in, mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    benchmark::DoNotOptimize(lo);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FlowOptimalMachinesRebuild)
    ->Arg(20)
    ->Arg(40)
    ->Arg(80)
    ->Complexity();

void BM_SingleMachineAdmission(benchmark::State& state) {
  Rng rng(5);
  GenConfig config;
  config.n = static_cast<std::size_t>(state.range(0));
  Instance in = gen_general(rng, config);
  std::vector<MachineCommitment> commitments;
  for (const Job& j : in.jobs())
    commitments.push_back({j.release, j.deadline, j.processing});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        edf_feasible_single_machine(commitments, Rat(0)));
  }
}
BENCHMARK(BM_SingleMachineAdmission)->Arg(16)->Arg(64);

// ---- observability substrates ------------------------------------------
//
// The overhead contract of the obs layer (ISSUE acceptance: <= 2% on
// BM_RatSmallAdd when compiled out) is measured by building the obs-off
// preset (MINMACH_OBS=OFF) and comparing BM_RatSmallAdd across the two
// trees; scripts append the comparison as "obs_overhead" to
// BENCH_substrates.json. The benches below isolate the primitives.

// The hot-path tally itself: one thread-local uint64 increment when
// MINMACH_OBS=ON, nothing at all when OFF (the loop then measures pure
// loop overhead -- the two builds quantify the macro's cost exactly).
void BM_ObsTallyIncrement(benchmark::State& state) {
  for (auto _ : state) {
    MINMACH_OBS_TALLY(rat_fast_ops);
    benchmark::DoNotOptimize(&obs::hot_tallies());
  }
  obs::hot_tallies() = {};
}
BENCHMARK(BM_ObsTallyIncrement);

// Event-granularity metrics: a relaxed atomic add through a cached
// reference (how the oracle/simulator instrumentation uses the registry).
void BM_ObsRegistryCounterAdd(benchmark::State& state) {
  obs::Counter& counter =
      obs::Registry::global().counter("bench.obs.counter");
  for (auto _ : state) {
    counter.add();
    benchmark::DoNotOptimize(counter.value());
  }
  counter.reset();
}
BENCHMARK(BM_ObsRegistryCounterAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Histogram& hist =
      obs::Registry::global().histogram("bench.obs.hist");
  std::int64_t sample = 0;
  for (auto _ : state) {
    hist.observe(sample++ & 0xfff);
  }
  hist.reset();
}
BENCHMARK(BM_ObsHistogramObserve);

// Snapshot cost with a realistically sized registry (drivers snapshot once
// per run, so this only needs to be cheap, not free).
void BM_ObsSnapshot(benchmark::State& state) {
  obs::Registry& registry = obs::Registry::global();
  for (int i = 0; i < 32; ++i) {
    registry.counter("bench.snap.c" + std::to_string(i)).add(i);
    registry.histogram("bench.snap.h" + std::to_string(i)).observe(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.snapshot());
  }
  registry.reset();
}
BENCHMARK(BM_ObsSnapshot);

void BM_SimulatorFirstFit(benchmark::State& state) {
  Rng rng(6);
  GenConfig config;
  config.n = static_cast<std::size_t>(state.range(0));
  Instance in = gen_general(rng, config);
  for (auto _ : state) {
    FitPolicy policy(FitRule::kFirstFit);
    SimRun run = simulate(policy, in);
    benchmark::DoNotOptimize(run.machines_used);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SimulatorFirstFit)->Arg(25)->Arg(50)->Arg(100)->Complexity();

}  // namespace

// Expanded BENCHMARK_MAIN() with the bench-json-v1 stamp: google-benchmark
// puts custom context into the JSON artifact's "context" object, which
// perfdiff reads as context.schema / context.git_rev (same gate as the
// top-level stamp on the driver artifacts).
int main(int argc, char** argv) {
  char arg0_default[] = "benchmark";
  char* args_default = arg0_default;
  if (!argv) {
    argc = 1;
    argv = &args_default;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("schema", "bench-json-v1");
#ifdef MINMACH_GIT_REV
  benchmark::AddCustomContext("git_rev", MINMACH_GIT_REV);
#else
  benchmark::AddCustomContext("git_rev", "unknown");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
