// Dinic's max-flow over an arbitrary ordered capacity type. The scheduling
// feasibility network (Horn 1974) uses exact rational capacities so that
// adversarially constructed instances (whose denominators are unbounded, see
// DESIGN.md §2) are certified exactly; unit tests also instantiate the
// template with long long.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "minmach/obs/profile.hpp"
#include "minmach/util/bitset.hpp"
#include "minmach/util/simd.hpp"

namespace minmach {

// Work counters for one Dinic instance, accumulated across max_flow calls.
// The feasibility oracle folds these into the metrics registry ("flow.*")
// after each probe.
struct DinicStats {
  std::uint64_t bfs_passes = 0;        // level graphs built
  std::uint64_t augmenting_paths = 0;  // successful source->sink pushes
  std::uint64_t edge_visits = 0;       // residual edges scanned (BFS + DFS)
};

template <typename Cap>
class Dinic {
 public:
  explicit Dinic(std::size_t node_count)
      : adjacency_(node_count), level_(node_count), next_edge_(node_count) {}

  [[nodiscard]] std::size_t node_count() const { return adjacency_.size(); }

  // Rebuilds to an empty network over `node_count` nodes, recycling the
  // surviving per-node adjacency vectors and the edge/level/iter storage
  // of the previous build (DESIGN.md §10): an oracle that reconstructs its
  // network keeps the old allocations instead of churning. Counters reset,
  // matching a freshly constructed Dinic.
  void reinit(std::size_t node_count) {
    const std::size_t keep = std::min(node_count, adjacency_.size());
    for (std::size_t i = 0; i < keep; ++i) adjacency_[i].clear();
    adjacency_.resize(node_count);
    edges_.clear();
    initial_.clear();
    level_.resize(node_count);
    next_edge_.resize(node_count);
    stats_ = DinicStats{};
    accel_mode_ = -1;
    csr_valid_ = false;
  }

  // Level-graph kernel selection: -1 follows the global SIMD dispatch
  // (util::simd::active(), re-read on every pass; the default after
  // construction and reinit, which the feasibility oracle keeps), 0 forces
  // the scalar queue, 1 forces the bit-parallel frontier -- the kernel
  // differentials and bench/v01 pin it to compare the two.
  void set_level_kernel(int mode) { accel_mode_ = mode; }

  // Appends an isolated node and returns its id. Existing edges, routed
  // flow, and handles stay valid -- only the CSR mirror is invalidated --
  // so the dynamic oracle can grow the network between max_flow() calls
  // (new leaf after a segment split, new job node on insert).
  std::size_t add_node() {
    adjacency_.emplace_back();
    level_.push_back(-1);
    next_edge_.push_back(0);
    csr_valid_ = false;
    return adjacency_.size() - 1;
  }

  // Returns a handle usable with flow_on() after max_flow().
  std::size_t add_edge(std::size_t from, std::size_t to, Cap capacity) {
    if (from >= node_count() || to >= node_count())
      throw std::out_of_range("Dinic: node out of range");
    std::size_t handle = edges_.size();
    edges_.push_back({to, capacity});
    edges_.push_back({from, Cap(0)});
    initial_.push_back(std::move(capacity));
    initial_.push_back(Cap(0));
    adjacency_[from].push_back(handle);
    adjacency_[to].push_back(handle + 1);
    csr_valid_ = false;
    return handle;
  }

  // Discards all routed flow, restoring every edge to its initial capacity.
  // Together with set_capacity() this lets one network answer a whole
  // binary search (only capacities change between probes) instead of being
  // rebuilt per probe.
  void reset_flow() {
    for (std::size_t i = 0; i < edges_.size(); ++i)
      edges_[i].capacity = initial_[i];
  }

  // Replaces the capacity of the edge returned by add_edge. Any flow on the
  // edge is discarded, so call reset_flow() before re-running max_flow().
  void set_capacity(std::size_t handle, Cap capacity) {
    edges_[handle].capacity = capacity;
    edges_[handle + 1].capacity = Cap(0);
    initial_[handle] = std::move(capacity);
    initial_[handle + 1] = Cap(0);
  }

  // Grows the capacity of the edge returned by add_edge by `delta` (>= 0)
  // WITHOUT touching the flow already routed through it: the forward
  // residual widens, the reverse residual (= routed flow) is preserved.
  // This is the warm-start primitive: if every capacity change since the
  // last max_flow() was an increase, the routed flow is still feasible and
  // max_flow() resumes from it, so only the newly admitted flow costs work.
  void increase_capacity(std::size_t handle, const Cap& delta) {
    edges_[handle].capacity += delta;
    initial_[handle] += delta;
  }

  // Removes `amount` (>= 0, <= flow_on(handle)) of routed flow from the
  // edge returned by add_edge: the forward residual widens back, the
  // reverse residual (= routed flow) shrinks. Flow conservation at the
  // endpoints is the CALLER's contract -- the dynamic oracle drains whole
  // source->job->leaf->sink triples, cancelling the same amount on all
  // three edges of a path, so every intermediate node stays balanced and
  // the remaining flow is again a valid (smaller) flow that max_flow()
  // can resume from.
  void cancel_flow(std::size_t handle, const Cap& amount) {
    edges_[handle].capacity += amount;
    edges_[handle ^ 1].capacity -= amount;
  }

  // Head node of the edge returned by add_edge (handle ^ 1 gives the tail,
  // via the reverse twin). Lets callers that only kept handles recover the
  // topology, e.g. the dynamic oracle mapping a job->leaf edge back to the
  // leaf's position.
  [[nodiscard]] std::size_t edge_target(std::size_t handle) const {
    return edges_[handle].to;
  }

  Cap max_flow(std::size_t source, std::size_t sink) {
    if (source == sink) throw std::invalid_argument("Dinic: source == sink");
    obs::ProfileSpan span("max_flow");
    // Accel decision hoisted per call (DESIGN.md §12): the bit-parallel
    // level BFS plus the CSR adjacency mirror. Edge ORDER is identical
    // either way, so the routed flow is bit-identical; only locality and
    // BFS bookkeeping differ.
    use_accel_ =
        accel_mode_ > 0 || (accel_mode_ < 0 && util::simd::active());
    if (use_accel_) ensure_csr();
    Cap total(0);
    // Profiled as two child phases: "bfs" covers the level-graph builds,
    // "dfs" the blocking-flow augmentation between them. Span counts equal
    // the number of Dinic phases, which the determinism harness already
    // pins via flow.bfs_passes.
    while (true) {
      bool layered;
      {
        obs::ProfileSpan bfs_span("bfs");
        layered = build_levels(source, sink);
      }
      if (!layered) break;
      obs::ProfileSpan dfs_span("dfs");
      next_edge_.assign(node_count(), 0);
      while (true) {
        Cap pushed = push(source, sink, Cap(-1));
        if (!(Cap(0) < pushed)) break;
        ++stats_.augmenting_paths;
        total += pushed;
      }
    }
    return total;
  }

  [[nodiscard]] const DinicStats& stats() const { return stats_; }

  // Flow routed through the edge returned by add_edge (reverse residual).
  [[nodiscard]] Cap flow_on(std::size_t handle) const {
    return edges_[handle + 1].capacity;
  }

 private:
  // Deliberately lean: with Cap = __int128 the struct packs to 32 bytes
  // (two per cache line), and the blocking-flow DFS is bound by scanning
  // these. The reverse twin of a handle is handle ^ 1, so no flag needed.
  struct Edge {
    std::size_t to;
    Cap capacity;  // residual
  };

  bool build_levels(std::size_t source, std::size_t sink) {
    ++stats_.bfs_passes;
    level_.assign(node_count(), -1);
    level_[source] = 0;
    if (use_accel_) return build_levels_bitmap(source, sink);
    // Pooled frontier: a BFS visits each node once, so the vector doubles
    // as the queue (scan head forward) and its storage survives across
    // passes and probes.
    bfs_queue_.clear();
    bfs_queue_.push_back(source);
    for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
      std::size_t node = bfs_queue_[head];
      stats_.edge_visits += adjacency_[node].size();
      for (std::size_t handle : adjacency_[node]) {
        const Edge& edge = edges_[handle];
        if (level_[edge.to] == -1 && Cap(0) < edge.capacity) {
          level_[edge.to] = level_[node] + 1;
          bfs_queue_.push_back(edge.to);
        }
      }
    }
    return level_[sink] != -1;
  }

  // Bit-parallel level build (DESIGN.md §12): visited/frontier live in
  // packed 64-bit words (util::BitSet), the BFS runs level-synchronous, and
  // the pass ABORTS as soon as the sink is labeled. The abort is safe: when
  // the sink is discovered at depth L+1, every node at depth <= L is
  // already labeled (whole frontiers are labeled before any expansion of
  // the next depth starts), and those are the only intermediate nodes a
  // shortest s->t path can use. A depth-L+1 node left unlabeled is exactly
  // a node from which the blocking-flow DFS would dead-end anyway (it
  // cannot reach the sink inside the level graph), so the DFS finds the
  // same augmenting paths in the same order and routes bit-identical flow;
  // only stats_.edge_visits (execution-class) shrinks.
  // Precondition (established by build_levels): level_ is all -1 except
  // level_[source] == 0.
  bool build_levels_bitmap(std::size_t source, std::size_t sink) {
    visited_.reset(node_count());
    frontier_.reset(node_count());
    next_frontier_.reset(node_count());
    visited_.set(source);
    frontier_.set(source);
    const std::size_t* handles = csr_handles_.data();
    const std::size_t* off = csr_off_.data();
    int depth = 0;
    while (frontier_.any()) {
      bool found_sink = false;
      frontier_.for_each_set([&](std::size_t node) -> bool {
        stats_.edge_visits += off[node + 1] - off[node];
        for (std::size_t i = off[node]; i < off[node + 1]; ++i) {
          const Edge& edge = edges_[handles[i]];
          if (visited_.test(edge.to) || !(Cap(0) < edge.capacity)) continue;
          visited_.set(edge.to);
          level_[edge.to] = depth + 1;
          if (edge.to == sink) {
            found_sink = true;
            return true;  // stop scanning: the level graph is usable
          }
          next_frontier_.set(edge.to);
        }
        return false;
      });
      if (found_sink) return true;
      frontier_.swap(next_frontier_);
      next_frontier_.clear_all();
      ++depth;
    }
    return false;
  }

  // Flattens adjacency_ into one contiguous handle array + offsets (CSR),
  // preserving per-node edge order exactly, so the accel-path BFS/DFS scan
  // one flat array instead of chasing per-node vector headers. Capacity
  // retunes (set_capacity / increase_capacity / reset_flow) never touch
  // adjacency, so a warm-started probe sequence builds this once.
  void ensure_csr() {
    if (csr_valid_) return;
    csr_off_.resize(node_count() + 1);
    std::size_t total = 0;
    for (std::size_t v = 0; v < node_count(); ++v) {
      csr_off_[v] = total;
      total += adjacency_[v].size();
    }
    csr_off_[node_count()] = total;
    csr_handles_.resize(total);
    std::size_t pos = 0;
    for (const std::vector<std::size_t>& adj : adjacency_)
      for (std::size_t handle : adj) csr_handles_[pos++] = handle;
    csr_valid_ = true;
  }

  // limit < 0 means unbounded (only the source call uses that).
  Cap push(std::size_t node, std::size_t sink, Cap limit) {
    if (node == sink) return limit;
    // Same handles in the same order from either layout (see ensure_csr),
    // so the two branches route bit-identical flow.
    const std::size_t* adj;
    std::size_t degree;
    if (use_accel_) {
      adj = csr_handles_.data() + csr_off_[node];
      degree = csr_off_[node + 1] - csr_off_[node];
    } else {
      adj = adjacency_[node].data();
      degree = adjacency_[node].size();
    }
    for (std::size_t& i = next_edge_[node]; i < degree; ++i) {
      ++stats_.edge_visits;
      std::size_t handle = adj[i];
      Edge& edge = edges_[handle];
      // Level test first: it is a plain int compare, while the capacity
      // test constructs a Cap(0) (a BigInt allocation-free but non-trivial
      // Rat in the exact oracle). Both tests are pure, so the order only
      // affects speed, never which edges descend.
      if (level_[edge.to] != level_[node] + 1 || !(Cap(0) < edge.capacity))
        continue;
      Cap sub_limit = edge.capacity;
      if (Cap(0) < limit && limit < sub_limit) sub_limit = limit;
      Cap pushed = push(edge.to, sink, sub_limit);
      if (Cap(0) < pushed) {
        edge.capacity -= pushed;
        edges_[handle ^ 1].capacity += pushed;
        return pushed;
      }
    }
    return Cap(0);
  }

  std::vector<std::vector<std::size_t>> adjacency_;
  std::vector<Edge> edges_;
  std::vector<Cap> initial_;  // capacity of each edge as added / last set
  std::vector<int> level_;
  std::vector<std::size_t> next_edge_;
  std::vector<std::size_t> bfs_queue_;  // pooled BFS frontier, see build_levels
  // Bit-parallel BFS state (build_levels_bitmap); pooled like bfs_queue_.
  util::BitSet frontier_, next_frontier_, visited_;
  // CSR mirror of adjacency_ for the accel path, see ensure_csr.
  std::vector<std::size_t> csr_handles_;
  std::vector<std::size_t> csr_off_;
  bool csr_valid_ = false;
  int accel_mode_ = -1;   // see set_level_kernel
  bool use_accel_ = false;  // hoisted per max_flow call
  DinicStats stats_;
};

}  // namespace minmach
