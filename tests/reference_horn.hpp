// Test-only reference for migratory feasibility and OPT: Horn's network in
// its plain dense form, solved the slow, obvious way. Nodes are the source,
// one node per job, one per elementary segment between consecutive event
// points, and the sink. Edges: source -> job j (capacity p_j), job j ->
// every segment inside [r_j, d_j) (capacity |segment|), segment -> sink
// (capacity m * |segment|). The instance is feasible on m machines iff the
// max flow equals the total work. The max flow is Edmonds-Karp (BFS
// shortest augmenting paths) on a residual adjacency matrix over exact
// rationals, and OPT is a linear scan m = 1, 2, ...
//
// It shares no code with src/minmach/flow: no segment tree, no warm starts,
// no load bounds, no integer grid, no caches, no Dinic. Only the Instance,
// Job and Rat value types come from the library.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "minmach/core/instance.hpp"

namespace minmach::reference {

namespace detail {

// Max flow from `source` to `sink`; `residual` holds the capacities on
// entry and the residual capacities on return.
inline Rat edmonds_karp(std::vector<std::vector<Rat>>& residual,
                        std::size_t source, std::size_t sink) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const std::size_t nodes = residual.size();
  std::vector<std::size_t> parent(nodes);
  std::vector<std::size_t> queue;
  Rat total(0);
  for (;;) {
    parent.assign(nodes, kNone);
    parent[source] = source;
    queue.assign(1, source);
    for (std::size_t head = 0; head < queue.size() && parent[sink] == kNone;
         ++head) {
      const std::size_t u = queue[head];
      for (std::size_t v = 0; v < nodes; ++v) {
        if (parent[v] == kNone && residual[u][v].is_positive()) {
          parent[v] = u;
          queue.push_back(v);
        }
      }
    }
    if (parent[sink] == kNone) return total;
    Rat bottleneck = residual[parent[sink]][sink];
    for (std::size_t v = sink; v != source; v = parent[v])
      if (residual[parent[v]][v] < bottleneck)
        bottleneck = residual[parent[v]][v];
    for (std::size_t v = sink; v != source; v = parent[v]) {
      residual[parent[v]][v] -= bottleneck;
      residual[v][parent[v]] += bottleneck;
    }
    total += bottleneck;
  }
}

}  // namespace detail

// True iff the jobs admit a preemptive migratory schedule on `machines`
// unit-speed machines. Empty instances fit on any machine count.
inline bool horn_feasible(const Instance& instance, std::int64_t machines) {
  if (instance.empty()) return true;
  if (machines <= 0) return false;
  std::vector<Rat> points;
  for (const Job& job : instance.jobs()) {
    points.push_back(job.release);
    points.push_back(job.deadline);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  const std::size_t n = instance.size();
  const std::size_t segments = points.size() - 1;
  const std::size_t source = 0;
  const std::size_t sink = n + segments + 1;
  std::vector<std::vector<Rat>> residual(sink + 1,
                                         std::vector<Rat>(sink + 1, Rat(0)));
  Rat total_work(0);
  for (std::size_t j = 0; j < n; ++j) {
    const Job& job = instance.job(static_cast<JobId>(j));
    total_work += job.processing;
    residual[source][1 + j] = job.processing;
    for (std::size_t k = 0; k < segments; ++k) {
      if (job.release <= points[k] && points[k + 1] <= job.deadline)
        residual[1 + j][1 + n + k] = points[k + 1] - points[k];
    }
  }
  for (std::size_t k = 0; k < segments; ++k)
    residual[1 + n + k][sink] = Rat(machines) * (points[k + 1] - points[k]);
  return detail::edmonds_karp(residual, source, sink) == total_work;
}

// Exact migratory OPT by linear scan; 0 for the empty instance. Throws
// std::invalid_argument when some job has p <= 0 or p > d - r.
inline std::int64_t horn_optimal_machines(const Instance& instance) {
  for (const Job& job : instance.jobs()) {
    if (!job.processing.is_positive() ||
        job.deadline - job.release < job.processing)
      throw std::invalid_argument("horn_optimal_machines: malformed job");
  }
  std::int64_t machines = 0;
  while (!horn_feasible(instance, machines)) ++machines;
  return machines;
}

}  // namespace minmach::reference
