// Deterministic Dijkstra over small integer-keyed graphs, plus a dynamic
// shortest-path-tree engine that maintains the same answer under edge
// deltas.
//
// "Best path calculations are based on the Dijkstra algorithm, running on
// the AS topology graph." Ties are broken towards the lower node id so that
// repeated runs (and therefore installed flow rules) are stable — route
// stability is one of the controller's design goals.
//
// Two implementations share one output contract:
//
//   * shortest_paths() — the from-scratch reference. Small, obviously
//     correct, and the arbiter: every incremental answer must match it
//     byte-for-byte (the tests diff the two after every delta).
//   * IncrementalSpt — Ramalingam/Reps-style dynamic maintenance. An
//     improving delta relaxes forward from the changed edge; a worsening
//     delta collects the tree region hanging off the affected vertex and
//     re-relaxes it from the frontier of still-valid distances. Work is
//     proportional to the affected region, not the graph.
//
// The output contract both implementations obey: dist[u] is the shortest
// distance from the source, and prev[u] is the lowest-node-id predecessor v
// with dist[v] + w(v,u) == dist[u] among vertices settled before u. Under
// the precondition that zero-weight edges leave only the source (the
// AS-topology graph's origin edge is the single weight-0 edge), "settled
// before u" reduces to dist[v] < dist[u] or v == source, which is a pure
// function of distances — that is what makes incremental maintenance of the
// tie-break exact rather than best-effort.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace bgpsdn::controller {

/// Compact indexed adjacency list. External 64-bit node ids are interned to
/// dense 32-bit indices once; edges live in per-node arrays addressed by
/// index, so the hot path never touches a node-keyed map. Parallel edges
/// are allowed and kept distinct.
class AdjacencyList {
 public:
  /// One directed arc. `to` is the dense target index (see index_of()).
  struct Arc {
    std::uint32_t to{0};
    std::uint32_t weight{1};
  };

  static constexpr std::uint32_t kNoIndex = 0xffffffffu;

  /// Register a node id, returning its dense index (idempotent).
  std::uint32_t intern(std::uint64_t node);
  /// Dense index for a node id, or kNoIndex if never interned.
  std::uint32_t index_of(std::uint64_t node) const;
  std::uint64_t node_id(std::uint32_t index) const { return ids_[index]; }
  std::size_t node_count() const { return ids_.size(); }

  void add_edge(std::uint64_t from, std::uint64_t to, std::uint32_t weight = 1);
  /// Remove one arc matching (from, to, weight); false if absent.
  bool remove_edge(std::uint64_t from, std::uint64_t to, std::uint32_t weight);
  void clear_edges_from(std::uint64_t node);

  const std::vector<Arc>& out(std::uint32_t index) const { return out_[index]; }
  std::size_t arc_count() const { return arcs_; }

 private:
  std::vector<std::uint64_t> ids_;      // dense index -> external id
  std::vector<std::vector<Arc>> out_;   // dense index -> arcs
  std::unordered_map<std::uint64_t, std::uint32_t> index_;
  std::size_t arcs_{0};
};

struct DijkstraResult {
  /// Distance from the source; absent = unreachable.
  std::map<std::uint64_t, std::uint32_t> dist;
  /// Predecessor on the shortest path from the source; absent for source.
  std::map<std::uint64_t, std::uint64_t> prev;
};

/// From-scratch reference implementation (see the contract above).
DijkstraResult shortest_paths(const AdjacencyList& graph, std::uint64_t source);

/// Nodes from source to target inclusive; empty if unreachable.
std::vector<std::uint64_t> path_to(const DijkstraResult& result,
                                   std::uint64_t source, std::uint64_t target);

/// Dynamic single-source shortest-path tree. Owns its graph: feed it the
/// same edges and it maintains exactly what shortest_paths() would return,
/// touching only vertices whose distance or predecessor can change.
///
/// Precondition (asserted in debug builds): weight-0 edges may leave only
/// the source. The AS-topology transformation satisfies this by
/// construction — the origin edge is the single zero-weight edge and it
/// starts at the virtual destination the tree is rooted at.
class IncrementalSpt {
 public:
  explicit IncrementalSpt(std::uint64_t source);

  std::uint64_t source() const { return source_; }

  void edge_added(std::uint64_t from, std::uint64_t to, std::uint32_t weight);
  /// Remove one edge matching (from, to, weight); no-op if absent.
  void edge_removed(std::uint64_t from, std::uint64_t to, std::uint32_t weight);
  void weight_changed(std::uint64_t from, std::uint64_t to,
                      std::uint32_t old_weight, std::uint32_t new_weight);

  std::optional<std::uint32_t> distance(std::uint64_t node) const;
  std::optional<std::uint64_t> parent(std::uint64_t node) const;
  /// Materialize the full result in the reference format (byte-comparable
  /// against shortest_paths()).
  DijkstraResult snapshot() const;

  /// Vertices whose distance was (re)settled by delta replays, cumulative.
  /// The cost metric for the ablation: a full recomputation pays one settle
  /// per reachable vertex, the incremental engine only for the affected
  /// region.
  std::uint64_t vertices_replayed() const { return vertices_replayed_; }
  /// Bumped whenever any dist or prev entry changes — cheap "did this delta
  /// alter the tree at all" signal for dirty-prefix tracking.
  std::uint64_t revision() const { return revision_; }

  const AdjacencyList& graph() const { return graph_; }

 private:
  static constexpr std::uint32_t kInfDist = 0xffffffffu;
  static constexpr std::uint32_t kNoPrev = AdjacencyList::kNoIndex;

  struct InArc {
    std::uint32_t from{0};
    std::uint32_t weight{1};
  };

  std::uint32_t ensure(std::uint64_t node);
  /// Re-derive prev_[v] from scratch: the tight in-neighbor with the lowest
  /// external id (the reference tie-break, see the contract above).
  void recompute_prev(std::uint32_t v);
  /// Propagate a distance improvement starting at v with candidate dist d.
  void relax_improvement(std::uint32_t v, std::uint32_t d);
  /// Distance of v's best surviving in-neighbor path (kInfDist if none).
  std::uint32_t support_of(std::uint32_t v) const;
  /// Handle a tight edge into v getting removed or worsened.
  void on_support_lost(std::uint32_t v);

  AdjacencyList graph_;
  std::vector<std::vector<InArc>> in_;  // reverse arcs, for prev recompute
  std::vector<std::uint32_t> dist_;     // kInfDist = unreachable
  std::vector<std::uint32_t> prev_;     // dense index; kNoPrev for source
  std::uint64_t source_;
  std::uint32_t source_index_{0};
  std::uint64_t vertices_replayed_{0};
  std::uint64_t revision_{0};

  // Replay scratch, hoisted out of the per-delta calls so steady-state
  // delta processing costs no heap traffic: both replay loops fully drain
  // replay_heap_ before returning and never nest, so one queue serves
  // relax_improvement and on_support_lost; the backing storage keeps its
  // capacity across calls.
  using ReplayItem = std::tuple<std::uint32_t, std::uint64_t, std::uint32_t>;
  std::priority_queue<ReplayItem, std::vector<ReplayItem>, std::greater<>>
      replay_heap_;
  std::vector<std::uint32_t> region_;  // parent-pointer closure of the loss
  std::vector<char> in_region_;        // dense membership flags for region_
};

}  // namespace bgpsdn::controller
