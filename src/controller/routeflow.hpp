// RouteFlowController — the related-work baseline (Rothenberg et al.,
// HotSDN 2012), reimplemented for comparison.
//
// "RouteFlow is a platform where the controller application mirrors the
// SDN topology to a virtual network and runs a legacy routing protocol on
// top of it. Our controller however does not rely on routing decisions of
// legacy protocols but runs its own algorithms."
//
// This controller does exactly what the paper's baseline does: it builds a
// private virtual network inside the controller — one virtual BgpRouter
// per member switch, virtual links mirroring the intra-cluster links, and
// one "ghost" BGP peer per real border peering that replays the external
// world's updates into the virtual network (and relays the virtual
// routers' answers back out through the cluster speaker). Forwarding state
// is synchronized by polling each virtual router's Loc-RIB and compiling
// it into flow rules. Because all route selection is legacy BGP, the
// cluster converges at BGP speed — no centralization gain — which is what
// the comparison benches quantify.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "bgp/router.hpp"
#include "controller/cluster_controller.hpp"
#include "net/network.hpp"

namespace bgpsdn::controller {

struct RouteFlowConfig {
  /// Timers of the virtual (mirrored) BGP routers; defaults match the
  /// legacy world, as RouteFlow runs stock routing software.
  bgp::Timers timers{};
};

struct RouteFlowCounters {
  std::uint64_t sync_passes{0};
  std::uint64_t flow_adds{0};
  std::uint64_t flow_deletes{0};
  std::uint64_t relayed_in{0};   // external updates injected into the mirror
  std::uint64_t relayed_out{0};  // virtual announcements sent to the world
};

/// Plays the external BGP neighbor of one real peering inside the virtual
/// network: replays real updates inward, relays virtual answers outward.
class GhostPeer : public net::Node, public bgp::SessionHost {
 public:
  using RelayFn =
      std::function<void(speaker::PeeringId, const bgp::UpdateMessage&)>;

  GhostPeer(speaker::Peering peering, bgp::Timers timers, RelayFn relay)
      : peering_{std::move(peering)},
        timers_{timers},
        relay_{std::move(relay)} {}

  /// Create the session towards the virtual router on local port 0. Call
  /// after the ghost<->virtual-router link exists.
  void configure_session(net::Ipv4Addr local, net::Ipv4Addr remote);

  /// Replay a real-world update into the virtual network.
  void inject(const bgp::UpdateMessage& update);
  /// Withdraw everything previously injected (real peering went down).
  void flush_all();

  const speaker::Peering& peering() const { return peering_; }

  // Node
  void start() override;
  void handle_packet(core::PortId ingress, const net::Packet& packet) override;
  void on_link_state(core::PortId port, bool up) override;

  // SessionHost — the virtual router's updates come back through here and
  // are relayed to the real world.
  void session_transmit(bgp::Session& session, net::Bytes wire) override;
  void session_established(bgp::Session& session) override;
  void session_down(bgp::Session& session, const std::string& reason) override;
  void session_update(bgp::Session& session, bgp::UpdateMessage update) override;
  /// "ghost.<name>".
  const std::string& session_log_name() const override;

 private:
  speaker::Peering peering_;
  bgp::Timers timers_;
  RelayFn relay_;
  net::Ipv4Addr local_address_;
  net::Ipv4Addr remote_address_;
  std::unique_ptr<bgp::Session> session_;
  /// Prefixes currently injected (for flush_all on peer loss).
  std::set<net::Prefix> injected_;
  /// Updates that arrived before the virtual session established.
  std::vector<bgp::UpdateMessage> backlog_;
};

class RouteFlowController : public ClusterController {
 public:
  explicit RouteFlowController(RouteFlowConfig config = {}) : config_{config} {}

  // ClusterController
  SwitchGraph& switch_graph() override { return graph_; }
  void bind_speaker(speaker::ClusterBgpSpeaker& speaker) override;
  void originate(sdn::Dpid origin, const net::Prefix& prefix,
                 std::optional<core::PortId> host_port) override;
  void withdraw_origin(const net::Prefix& prefix) override;
  /// Builds the mirrored virtual network; must run after all switches,
  /// links and peerings are declared (the experiment builder calls it).
  void finalize() override;

  /// Boots the mirror network and the RIB->flows synchronization loop.
  void start() override;

  // SpeakerListener
  void on_peer_established(const speaker::Peering& peering) override;
  void on_peer_down(const speaker::Peering& peering,
                    const std::string& reason) override;
  void on_route_update(const speaker::Peering& peering,
                       const bgp::UpdateMessage& update) override;

  const RouteFlowCounters& counters() const { return rf_counters_; }
  /// The mirrored router for a member switch (tests peek at its RIBs).
  const bgp::BgpRouter* virtual_router(sdn::Dpid dpid) const;

 protected:
  void on_switch_connected(const sdn::SwitchChannel& channel) override;
  void on_port_status(const sdn::SwitchChannel& channel,
                      const sdn::OfPortStatus& status) override;

 private:
  void sync_flows();
  void relay_out(speaker::PeeringId peering, const bgp::UpdateMessage& update);

  RouteFlowConfig config_;
  SwitchGraph graph_;
  speaker::ClusterBgpSpeaker* speaker_{nullptr};

  /// The mirror world. Shares the real event loop/logger/rng, but its
  /// routers intern into an attribute store of their own.
  bgp::AttrRegistryRef mirror_attrs_;
  std::unique_ptr<net::Network> mirror_;
  std::map<sdn::Dpid, bgp::BgpRouter*> vrouters_;
  std::map<speaker::PeeringId, GhostPeer*> ghosts_;
  /// Virtual session id -> the real flow action its routes translate to.
  std::map<std::uint32_t, sdn::FlowAction> action_by_vsession_;
  /// Real (dpid, port) of an intra-cluster link -> mirrored link id.
  std::map<std::pair<sdn::Dpid, std::uint32_t>, core::LinkId> vlink_by_port_;
  /// Cluster-originated prefixes (host port for local delivery).
  std::map<net::Prefix, std::pair<sdn::Dpid, std::optional<core::PortId>>> origins_;
  /// Installed flows per prefix per switch (diff target).
  std::map<net::Prefix, std::map<sdn::Dpid, sdn::FlowAction>> installed_;
  std::map<sdn::Dpid, std::uint64_t> synced_generation_;
  RouteFlowCounters rf_counters_;
  bool finalized_{false};
};

}  // namespace bgpsdn::controller
