// IdrController — the paper's proof-of-concept IDR SDN controller.
//
// Centralizes routing for the cluster: consumes BGP input from the cluster
// BGP speaker and topology events from the switches, recomputes best paths
// on the per-prefix AS topology graph (Dijkstra), compiles them to flow
// rules, and composes the cluster's announcements to the legacy world
// (keeping each member's AS identity — the cluster is transparent).
//
// Design insight #2 from the paper: "the need for a delayed recomputation
// of best paths on the controller's side, so as to improve overall
// stability and rate-limit route flaps due to bursts in external BGP
// input." Inputs mark prefixes dirty; one timer batches them and a single
// recomputation pass handles the burst.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "controller/as_topology.hpp"
#include "controller/cluster_controller.hpp"
#include "controller/route_compiler.hpp"
#include "controller/switch_graph.hpp"
#include "core/time.hpp"
#include "sdn/controller_base.hpp"
#include "speaker/cluster_speaker.hpp"

namespace bgpsdn::controller {

struct IdrControllerConfig {
  /// Batch window between the first dirtying input and recomputation.
  core::Duration recompute_delay{core::Duration::seconds(2)};
  /// Admit legacy paths that bridge disjoint sub-clusters (pass 2 of the
  /// AS-topology transformation). Off = naive prune-everything rule.
  bool subcluster_bridging{true};
};

struct IdrCounters {
  std::uint64_t recompute_passes{0};
  std::uint64_t prefix_recomputes{0};
  std::uint64_t flow_adds{0};
  std::uint64_t flow_deletes{0};
  std::uint64_t announces{0};
  std::uint64_t withdraws{0};
  std::uint64_t border_port_resets{0};
  std::uint64_t routes_pruned_loop{0};
  /// Recomputation engine cost/outcome (IncrementalDecider).
  std::uint64_t spt_vertices_replayed{0};
  std::uint64_t prefixes_dirty{0};
  std::uint64_t reference_fallbacks{0};
};

/// Application state a controller replica shadows (and a new leader adopts
/// at takeover): the external RIB, cluster originations and the
/// installed-flow mirror. The cluster graph is node-resident config and is
/// not part of the shadow.
struct IdrShadowState {
  ExternalRib external_routes;
  std::map<net::Prefix, ClusterOrigin> origins;
  std::map<net::Prefix, std::map<sdn::Dpid, sdn::FlowAction>> installed;
};

class IdrController : public ClusterController {
 public:
  explicit IdrController(IdrControllerConfig config = {}) : config_{config} {}

  /// Wire up the speaker (also registers this controller as its listener).
  void bind_speaker(speaker::ClusterBgpSpeaker& speaker) override;

  /// The cluster builder declares the physical cluster before start.
  SwitchGraph& switch_graph() override { return graph_; }
  const SwitchGraph& switch_graph() const { return graph_; }

  /// Originate a prefix at a member switch ("SDN switches can originate
  /// prefixes"); optional attached host port for local delivery.
  void originate(sdn::Dpid origin, const net::Prefix& prefix,
                 std::optional<core::PortId> host_port = std::nullopt) override;
  void withdraw_origin(const net::Prefix& prefix) override;

  // SpeakerListener
  void on_peer_established(const speaker::Peering& peering) override;
  void on_peer_down(const speaker::Peering& peering,
                    const std::string& reason) override;
  void on_route_update(const speaker::Peering& peering,
                       const bgp::UpdateMessage& update) override;

  // --- controller HA hooks (ControllerReplicaSet) ---------------------------

  /// Observer for flow-mirror changes: (prefix, dpid, action) with a null
  /// action meaning removal. Called after the FlowMod was sent, so the
  /// replicated mirror never claims state a switch might not have.
  using FlowObserver =
      std::function<void(const net::Prefix&, sdn::Dpid, const sdn::FlowAction*)>;
  void set_flow_observer(FlowObserver observer) {
    flow_observer_ = std::move(observer);
  }

  /// Epoch stamped into every FlowMod; switches fence out lower epochs.
  void set_programming_epoch(std::uint32_t epoch) { programming_epoch_ = epoch; }
  std::uint32_t programming_epoch() const { return programming_epoch_; }

  /// Drop the leading process's application state at a leadership change
  /// without modeling a node crash: switches stay connected (same physical
  /// node), no crash counters move. The new leader's shadow follows via
  /// adopt_shadow().
  void reset_for_takeover();

  /// Install a standby's shadowed state as the live application state and
  /// schedule a full recomputation pass to diff it against reality.
  void adopt_shadow(IdrShadowState&& shadow);

  /// Snapshot the live application state (anti-entropy full sync source).
  IdrShadowState export_shadow() const;

  const IdrCounters& counters() const { return idr_counters_; }
  /// Latest decision per prefix (for tests and analysis tools).
  const PrefixDecision* decision_for(const net::Prefix& prefix) const;
  /// External routes currently known for a prefix.
  std::size_t route_count(const net::Prefix& prefix) const;

 protected:
  /// Crash drops the whole application state (external RIB, originations,
  /// pushed-flow mirror, decisions, dirty set); the declared cluster graph
  /// survives like any other static config, but port states are refreshed
  /// from scratch as switches re-handshake. Restart comes back empty and
  /// resyncs from the speaker replay + re-originations.
  void on_crash() override;
  void on_restart() override;

  void on_switch_connected(const sdn::SwitchChannel& channel) override;
  void on_packet_in(const sdn::SwitchChannel& channel,
                    const sdn::OfPacketIn& in) override;
  void on_port_status(const sdn::SwitchChannel& channel,
                      const sdn::OfPortStatus& status) override;

 private:
  void mark_dirty(const net::Prefix& prefix);
  void mark_all_dirty();
  /// A cluster-link change: note that the topology moved and let
  /// run_recompute() derive the dirty prefixes from the edge-delta
  /// changelog (IncrementalDecider::apply_topology_deltas()).
  void mark_topology_dirty();
  void schedule_recompute();
  void run_recompute();
  void recompute_prefix(const net::Prefix& prefix);
  std::set<net::Prefix> known_prefixes() const;
  /// "idr.<name>", built on first use (the node name is final by then).
  const std::string& idr_log_name() const;

  IdrControllerConfig config_;
  speaker::ClusterBgpSpeaker* speaker_{nullptr};
  SwitchGraph graph_;
  /// Per-prefix dynamic SPTs; bind_speaker() builds it.
  std::unique_ptr<IncrementalDecider> decider_;

  ExternalRib external_routes_;
  /// Cluster-originated prefixes.
  std::map<net::Prefix, ClusterOrigin> origins_;

  /// Installed flow state: prefix -> per-switch action (diff target).
  std::map<net::Prefix, std::map<sdn::Dpid, sdn::FlowAction>> installed_;
  /// Latest decisions, for introspection.
  std::map<net::Prefix, PrefixDecision> decisions_;

  std::set<net::Prefix> dirty_;
  /// Set when cluster-link deltas are waiting to be applied to the trees.
  bool topology_pending_{false};
  bool recompute_pending_{false};
  /// When the pending batch window opened (first dirtying input), for the
  /// "recompute_batch" delay-wait span and batch_wait histogram.
  core::TimePoint batch_opened_at_{};
  IdrCounters idr_counters_;
  FlowObserver flow_observer_;
  std::uint32_t programming_epoch_{0};
  /// idr_log_name(); ControllerBase holds the node's "ctrl.<name>".
  mutable std::string idr_log_name_;
};

}  // namespace bgpsdn::controller
