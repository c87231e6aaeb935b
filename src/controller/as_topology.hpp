// AsTopologyGraph — the per-prefix transformation of the switch graph.
//
// The paper's key design insight: the controller "can not naively use the
// same loop avoidance mechanism as BGP, due to the differences between the
// distributed path selection of BGP and the centralized routing control of
// SDN". For each destination prefix the switch graph is restructured into
// an AS topology graph:
//
//   * nodes: cluster switches plus one virtual destination node;
//   * intra-cluster links become weight-1 edges;
//   * every usable external route learned on a border peering becomes an
//     edge border-switch -> destination weighted by its AS-path length
//     (+1 for the egress hop), so legacy paths compete fairly with paths
//     that stay inside the cluster;
//   * a cluster-originated prefix becomes a weight-0 edge from its origin
//     switch to the destination.
//
// Loop avoidance across the legacy/SDN boundary: an external route whose
// AS_PATH contains any cluster-member AS re-enters the cluster, and naively
// using it could forward traffic back to a switch that would send it out
// again. Such routes are pruned, with one carefully-scoped exception
// implementing the paper's sub-cluster goal ("an intra-cluster link failure
// does not isolate the controlled ASes: paths over the legacy Internet
// could still connect the sub-clusters"): a cluster-crossing route is
// admitted for a border switch that would otherwise be unreachable, when
// every crossed member belongs to a different connected component and that
// component already routes the prefix without crossing the cluster — then
// the re-entered sub-cluster provably never forwards back.
//
// Dijkstra from the virtual destination over reversed edges yields, per
// switch, the distance and the next hop towards the destination — either a
// neighbor switch, one of the switch's own border peerings, or local
// delivery at the origin switch.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "bgp/attr_intern.hpp"
#include "bgp/path_attributes.hpp"
#include "controller/dijkstra.hpp"
#include "controller/switch_graph.hpp"
#include "net/ip.hpp"
#include "speaker/cluster_speaker.hpp"

namespace bgpsdn::controller {

/// Node id of the virtual destination in the transformed graph: switches
/// keep their dpid, the destination sits above any dpid.
inline constexpr std::uint64_t kAsTopologyDestNode =
    0xffffffffffffffffull;

/// One external route for the prefix under decision. Attributes are an
/// interned handle shared with the speaker/controller RIB entry.
struct ExternalRoute {
  speaker::PeeringId peering{0};
  bgp::AttrSetRef attributes;
};

/// The controller's routing decision for one prefix.
struct PrefixDecision {
  enum class HopKind : std::uint8_t { kNextSwitch, kEgress, kLocalOrigin };
  struct Hop {
    HopKind kind{HopKind::kNextSwitch};
    sdn::Dpid next_switch{0};           // kNextSwitch
    speaker::PeeringId egress{0};       // kEgress
    std::uint32_t distance{0};
  };
  /// Switches that can reach the destination.
  std::map<sdn::Dpid, Hop> hops;
  /// AS-level path from each reachable switch to the destination, starting
  /// with that switch's own AS (used to compose legacy announcements).
  std::map<sdn::Dpid, bgp::AsPath> as_paths;
  /// Origin attribute propagated from the chosen external route (or IGP for
  /// cluster-originated prefixes), per switch.
  std::map<sdn::Dpid, bgp::Origin> origins;
  /// Routes pruned by the loop-avoidance rule (for diagnostics/tests).
  std::size_t pruned_routes{0};

  bool reachable(sdn::Dpid dpid) const { return hops.count(dpid) > 0; }
};

class AsTopologyGraph {
 public:
  /// `allow_subcluster_bridging` enables pass 2 (legacy bridges between
  /// disjoint sub-clusters); disabling it reproduces the naive
  /// prune-everything rule for ablation.
  AsTopologyGraph(const SwitchGraph& switches,
                  const speaker::ClusterBgpSpeaker& speaker,
                  bool allow_subcluster_bridging = true)
      : switches_{switches},
        speaker_{speaker},
        allow_bridging_{allow_subcluster_bridging} {}

  /// Build the transformed graph for one prefix and run Dijkstra.
  /// `origin_switch`: set when a cluster member originates the prefix.
  PrefixDecision decide(const std::vector<ExternalRoute>& routes,
                        std::optional<sdn::Dpid> origin_switch) const;

 private:
  bool crosses_cluster(const bgp::AsPath& path) const;

  const SwitchGraph& switches_;
  const speaker::ClusterBgpSpeaker& speaker_;
  bool allow_bridging_;
};

/// The controller's recomputation engine: the incremental counterpart of
/// AsTopologyGraph::decide(). Keeps one dynamic shortest-path tree per
/// prefix, fed by the switch graph's edge-delta changelog and by egress-set
/// diffs, and re-translates a decision only when the tree or the candidate
/// egress set actually changed. Every decision it holds equals a
/// from-scratch AsTopologyGraph::decide() on the live graph (the
/// IncrementalDeciderOracle tests check this after every change).
///
/// Not incrementalized: prefixes with cluster-crossing routes while
/// sub-cluster bridging is enabled are decided by the AsTopologyGraph
/// fixpoint, whose correctness hinges on the admission order. This is
/// common: in an internet-like hybrid net whose members share no link it
/// makes about three quarters of all decisions. Such prefixes keep no
/// tree; apply_topology_deltas() re-decides them after any cluster-link
/// change.
class IncrementalDecider {
 public:
  IncrementalDecider(const SwitchGraph& switches,
                     const speaker::ClusterBgpSpeaker& speaker,
                     bool allow_subcluster_bridging = true)
      : switches_{switches},
        speaker_{speaker},
        allow_bridging_{allow_subcluster_bridging} {}

  /// Same contract as AsTopologyGraph::decide(), keyed by prefix so the
  /// maintained tree can be found again on the next call.
  PrefixDecision decide(const net::Prefix& prefix,
                        const std::vector<ExternalRoute>& routes,
                        std::optional<sdn::Dpid> origin_switch);

  /// Catch every maintained tree up with the switch-graph changelog.
  /// Returns the dirty set a topology event implies (sorted): prefixes
  /// whose tree changed, plus bridged prefixes decided before the change.
  std::vector<net::Prefix> apply_topology_deltas();

  /// Cumulative vertices replayed across all prefixes (cost telemetry).
  std::uint64_t vertices_replayed() const { return replayed_total_; }
  /// Calls decided by the AsTopologyGraph bridging fixpoint.
  std::uint64_t reference_fallbacks() const { return fallbacks_; }

  void drop(const net::Prefix& prefix) {
    states_.erase(prefix);
    bridged_.erase(prefix);
  }
  void clear() {
    states_.clear();
    bridged_.clear();
  }

 private:
  struct PrefixState {
    IncrementalSpt spt{kAsTopologyDestNode};
    std::size_t changelog_pos{0};
    /// Egress edges currently installed in the tree: border dpid -> weight.
    std::map<sdn::Dpid, std::uint32_t> egress_weights;
    /// Input identity of the cached decision: border dpid ->
    /// (weight, peering, interned attributes). When this, the tree
    /// revision, the origin and the pruned count all match, the decision
    /// is returned from cache without re-translation.
    std::map<sdn::Dpid,
             std::tuple<std::uint32_t, speaker::PeeringId, bgp::AttrSetRef>>
        egress_identity;
    std::optional<sdn::Dpid> origin;
    std::uint64_t decided_revision{0};
    std::uint64_t counted_replays{0};
    std::size_t pruned{0};
    bool has_decision{false};
    PrefixDecision decision;
  };

  PrefixState& get_state(const net::Prefix& prefix);
  void catch_up(PrefixState& state);
  void sync_replayed(PrefixState& state);

  const SwitchGraph& switches_;
  const speaker::ClusterBgpSpeaker& speaker_;
  bool allow_bridging_;
  std::map<net::Prefix, PrefixState> states_;
  /// Prefixes last decided by the bridging fixpoint (they keep no tree):
  /// prefix -> changelog size at that decision.
  std::map<net::Prefix, std::size_t> bridged_;
  std::uint64_t replayed_total_{0};
  std::uint64_t fallbacks_{0};
};

}  // namespace bgpsdn::controller
