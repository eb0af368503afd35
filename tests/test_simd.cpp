// Differential tests for the SIMD/bit-parallel kernel layer (DESIGN.md
// §12). The int64 sweep kernel must be BYTE-IDENTICAL to the generic
// __int128 sweep through both of its policies (AVX2 lanes and the scalar
// twin) on random inputs, guard-boundary values and overflow-spill cases.
// The bitmap-BFS Dinic, the int64 event-point sort and the oracle built on
// them are checked against references that share no code with them: a
// dense Edmonds-Karp, a plain Rat sort and the dense Horn network
// (reference_horn.hpp). Runs under the sanitize preset too: the AVX2
// translation unit is plain C++ to ASan/UBSan, so lane logic gets swept.
//
// On a machine without AVX2 (or a MINMACH_SIMD=scalar build) the
// avx2-vs-generic comparisons skip; the scalar-vs-generic ones still run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "minmach/core/instance.hpp"
#include "minmach/core/load_sweep.hpp"
#include "minmach/core/load_sweep_simd.hpp"
#include "minmach/flow/dinic.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/rational.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/simd.hpp"
#include "reference_horn.hpp"

namespace minmach {
namespace {

constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();

bool have_avx2() { return util::simd::supported(); }

// ------------------------------------------------------------- load sweep

struct IntInstance {
  std::vector<std::int64_t> release, deadline, processing, points;

  void add(std::int64_t r, std::int64_t d, std::int64_t p) {
    release.push_back(r);
    deadline.push_back(d);
    processing.push_back(p);
  }
  void finalize_points() {
    points = release;
    points.insert(points.end(), deadline.begin(), deadline.end());
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());
  }
};

SweepWitness sweep_generic(const IntInstance& in, std::size_t stride) {
  std::vector<__int128> r(in.release.begin(), in.release.end());
  std::vector<__int128> d(in.deadline.begin(), in.deadline.end());
  std::vector<__int128> p(in.processing.begin(), in.processing.end());
  std::vector<__int128> pts(in.points.begin(), in.points.end());
  return sweep_load_bound<__int128>(
      r, d, p, pts,
      [](const __int128& c, const __int128& len) {
        return static_cast<std::int64_t>((c + len - 1) / len);
      },
      stride);
}

void expect_sweeps_match(const IntInstance& in, std::size_t stride) {
  const SweepWitness generic = sweep_generic(in, stride);
  const SweepWitness scalar =
      sweep_load_bound_i64(in.release, in.deadline, in.processing, in.points,
                           stride, /*use_avx2=*/false);
  EXPECT_EQ(scalar.machines, generic.machines);
  EXPECT_EQ(scalar.lo, generic.lo);
  EXPECT_EQ(scalar.hi, generic.hi);
  if (have_avx2()) {
    const SweepWitness simd =
        sweep_load_bound_i64(in.release, in.deadline, in.processing,
                             in.points, stride, /*use_avx2=*/true);
    EXPECT_EQ(simd.machines, generic.machines);
    EXPECT_EQ(simd.lo, generic.lo);
    EXPECT_EQ(simd.hi, generic.hi);
  }
}

IntInstance random_instance(Rng& rng, std::size_t jobs, std::int64_t span) {
  IntInstance in;
  for (std::size_t j = 0; j < jobs; ++j) {
    const std::int64_t r = rng.uniform_int(0, span - 1);
    const std::int64_t d = r + rng.uniform_int(1, span - r);
    const std::int64_t p = rng.uniform_int(1, d - r);
    in.add(r, d, p);
  }
  in.finalize_points();
  return in;
}

TEST(SweepSimd, RandomDifferential) {
  Rng rng(21);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t jobs = static_cast<std::size_t>(rng.uniform_int(1, 60));
    const std::int64_t span = rng.uniform_int(2, 200);
    IntInstance in = random_instance(rng, jobs, span);
    for (std::size_t stride : {std::size_t{1}, std::size_t{3},
                               std::size_t{256}})
      expect_sweeps_match(in, stride);
  }
}

TEST(SweepSimd, DenseCollidingEndpoints) {
  // Many jobs sharing event points: admission batches aggregate several
  // jobs between grid points, the case the stream compaction must get
  // exactly right.
  Rng rng(22);
  for (int trial = 0; trial < 20; ++trial) {
    IntInstance in;
    const std::size_t jobs = 40;
    for (std::size_t j = 0; j < jobs; ++j) {
      const std::int64_t r = rng.uniform_int(0, 4);
      const std::int64_t d = r + rng.uniform_int(1, 5);
      in.add(r, d, rng.uniform_int(1, d - r));
    }
    in.finalize_points();
    expect_sweeps_match(in, 1);
  }
}

TEST(SweepSimd, GuardBoundaryValues) {
  // Points at the +-2^30 guard boundary: still inside the int64 kernel's
  // contract, so all paths must agree (and not overflow).
  constexpr std::int64_t kB = std::int64_t{1} << 30;
  IntInstance in;
  in.add(-kB, kB, (std::int64_t{1} << 29) - 7);
  in.add(-kB, -kB + 100, 60);
  in.add(kB - 50, kB, 49);
  in.add(-3, 5, 8);
  in.finalize_points();
  expect_sweeps_match(in, 1);
}

TEST(SweepSimd, OverflowSpillsToGeneric) {
  // Beyond the kernel guard (|points| > 2^30): sweep_load_bound_i64 must
  // spill to the generic __int128 sweep and still return its exact result.
  constexpr std::int64_t kBig = std::int64_t{1} << 40;
  IntInstance in;
  in.add(-kBig, kBig, kBig);
  in.add(0, kBig, kBig / 2);
  in.add(-kBig, 0, 3);
  in.finalize_points();
  expect_sweeps_match(in, 1);

  // Total work beyond 2^29 with small points: the other guard axis.
  IntInstance heavy;
  heavy.add(0, 10, 9);
  heavy.processing[0] = (std::int64_t{1} << 29);
  heavy.deadline[0] = (std::int64_t{1} << 29) + 1;
  heavy.add(1, 7, 3);
  heavy.finalize_points();
  expect_sweeps_match(heavy, 1);
}

TEST(SweepSimd, EmptyAndDegenerate) {
  IntInstance empty;
  empty.finalize_points();
  expect_sweeps_match(empty, 1);

  IntInstance single;
  single.add(0, 4, 4);  // zero laxity
  single.finalize_points();
  expect_sweeps_match(single, 1);
  expect_sweeps_match(single, 9);  // stride beyond the endpoint count
}

// ------------------------------------------------------------------ Dinic

TEST(DinicSimd, BitmapLevelsRouteIdenticalFlow) {
  Rng rng(31);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t layers = static_cast<std::size_t>(rng.uniform_int(2, 5));
    const std::size_t width = static_cast<std::size_t>(rng.uniform_int(2, 9));
    const std::size_t nodes = layers * width + 2;
    const std::size_t source = nodes - 2, sink = nodes - 1;
    // The SAME edges go into the Dinic graph and into the reference's
    // capacity matrix (the layered shape has no parallel edges).
    struct Arc {
      std::size_t from, to, handle;
      long long cap;
    };
    Dinic<long long> graph(nodes);
    std::vector<std::vector<Rat>> residual(nodes,
                                           std::vector<Rat>(nodes, Rat(0)));
    std::vector<Arc> arcs;
    auto add = [&](std::size_t from, std::size_t to, long long cap) {
      arcs.push_back({from, to, graph.add_edge(from, to, cap), cap});
      residual[from][to] = Rat(cap);
    };
    for (std::size_t i = 0; i < width; ++i)
      add(source, i, rng.uniform_int(1, 20));
    for (std::size_t layer = 0; layer + 1 < layers; ++layer)
      for (std::size_t i = 0; i < width; ++i)
        for (std::size_t j = 0; j < width; ++j)
          if (rng.uniform_int(0, 2) != 0)
            add(layer * width + i, (layer + 1) * width + j,
                rng.uniform_int(1, 9));
    for (std::size_t i = 0; i < width; ++i)
      add((layers - 1) * width + i, sink, rng.uniform_int(1, 20));

    const long long flow = graph.max_flow(source, sink);
    EXPECT_EQ(Rat(flow),
              reference::detail::edmonds_karp(residual, source, sink));
    // The routed flow is a valid flow: within every edge's capacity and
    // conserved at every inner node.
    std::vector<long long> net(nodes, 0);
    for (const Arc& arc : arcs) {
      const long long routed = graph.flow_on(arc.handle);
      EXPECT_GE(routed, 0) << arc.from << "->" << arc.to;
      EXPECT_LE(routed, arc.cap) << arc.from << "->" << arc.to;
      net[arc.from] -= routed;
      net[arc.to] += routed;
    }
    for (std::size_t v = 0; v < nodes; ++v) {
      if (v == source || v == sink) continue;
      EXPECT_EQ(net[v], 0) << "node " << v;
    }
    EXPECT_EQ(net[sink], flow);
  }
}

TEST(DinicSimd, DisconnectedSinkAndReuse) {
  // Sink unreachable: the bitmap BFS must drain its frontier and report
  // no flow, and a later add_edge must invalidate the CSR mirror.
  Dinic<long long> graph(4);
  graph.add_edge(0, 1, 5);
  EXPECT_EQ(graph.max_flow(0, 3), 0);
  graph.add_edge(1, 3, 2);  // now a path exists; CSR must rebuild
  EXPECT_EQ(graph.max_flow(0, 3), 2);
  graph.reset_flow();
  EXPECT_EQ(graph.max_flow(0, 3), 2);
}

// ---------------------------------------------------------------- batches

TEST(RatBatch, ToI64) {
  std::vector<Rat> values = {Rat(0), Rat(-17), Rat(42), Rat(kI64Max)};
  std::vector<std::int64_t> out(values.size());
  EXPECT_TRUE(
      rat_batch::to_i64(values.data(), values.size(), out.data(), kI64Max));
  EXPECT_EQ(out[1], -17);
  EXPECT_EQ(out[3], kI64Max);
  // A fractional lane or a lane beyond max_abs declines the whole batch.
  values[1] = Rat(1, 2);
  EXPECT_FALSE(
      rat_batch::to_i64(values.data(), values.size(), out.data(), kI64Max));
  values[1] = Rat(-17);
  EXPECT_FALSE(
      rat_batch::to_i64(values.data(), values.size(), out.data(), 41));
}

// ------------------------------------------------------------- end to end

TEST(OracleSimd, EventPointsIdenticalAcrossModes) {
  Rng rng(51);
  for (int trial = 0; trial < 10; ++trial) {
    Instance instance =
        gen_general(rng, GenConfig{30, 200, 40, 2});
    if (trial % 2 == 1) {
      // Mix in fractional endpoints: the int64 key sort must decline and
      // fall back to the Rat sort.
      instance.add_job(Job{Rat(1, 3), Rat(19, 2), Rat(2)});
    }
    std::vector<Rat> expected;
    for (const Job& job : instance.jobs()) {
      expected.push_back(job.release);
      expected.push_back(job.deadline);
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    EXPECT_EQ(instance.event_points(), expected);
  }
}

TEST(OracleSimd, OptIdenticalAcrossModes) {
  Rng rng(52);
  std::vector<Instance> cases;
  cases.push_back(gen_unit(rng, GenConfig{120, 15, 15, 1}));
  cases.push_back(gen_general(rng, GenConfig{80, 160, 20, 2}));
  {
    // Fractional instance: the small-grid fast path must decline and the
    // rational network answers.
    Instance frac;
    frac.add_job(Job{Rat(0), Rat(3, 2), Rat(1, 2)});
    frac.add_job(Job{Rat(1, 3), Rat(2), Rat(1)});
    frac.add_job(Job{Rat(1, 2), Rat(5, 2), Rat(4, 3)});
    cases.push_back(frac);
  }
  for (const Instance& instance : cases) {
    const std::int64_t opt = reference::horn_optimal_machines(instance);
    FeasibilityOracle oracle(instance);
    EXPECT_EQ(oracle.optimal_machines(), opt) << "n=" << instance.size();
    EXPECT_LE(oracle.load_lower_bound(), opt) << "n=" << instance.size();
  }
}

}  // namespace
}  // namespace minmach
