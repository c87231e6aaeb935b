// ClusterBgpSpeaker — the cluster's BGP face to the legacy world
// (the ExaBGP substitute).
//
// "Within the SDN cluster we have a special BGP speaker ... which relays
// routing information between external BGP routers and the SDN controller.
// For every BGP peering there is a link from the cluster BGP speaker to the
// border SDN switch, so as to relay control plane information over the
// switches."
//
// Each external peering of a cluster AS terminates here: the speaker runs
// one Session per peering with local AS = the owning cluster AS (the
// cluster is transparent; member ASes keep their identity). BGP packets
// travel external-router -> border switch -> relay link -> speaker, via
// pre-installed relay flow rules. Routes go up to the controller through
// SpeakerListener (the in-process stand-in for ExaBGP's JSON API pipe);
// the controller composes announcements and sends them back down through
// announce()/withdraw().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/rib.hpp"
#include "bgp/session.hpp"
#include "net/node.hpp"
#include "sdn/openflow.hpp"

namespace bgpsdn::speaker {

/// Identifies one external peering relayed through the speaker.
using PeeringId = std::uint32_t;

struct Peering {
  PeeringId id{0};
  /// The cluster AS on whose behalf this session speaks.
  core::AsNumber cluster_as;
  /// Border switch and its external-facing port for this peering.
  sdn::Dpid border_dpid{0};
  core::PortId switch_external_port;
  /// Addresses on the original AS-AS link (cluster side / external side).
  net::Ipv4Addr local_address;
  net::Ipv4Addr remote_address;
  core::AsNumber expected_peer_as{0};
};

/// Controller-side interface (the ExaBGP-API analogue).
class SpeakerListener {
 public:
  virtual ~SpeakerListener() = default;
  virtual void on_peer_established(const Peering& peering) = 0;
  virtual void on_peer_down(const Peering& peering, const std::string& reason) = 0;
  virtual void on_route_update(const Peering& peering,
                               const bgp::UpdateMessage& update) = 0;
};

struct SpeakerCounters {
  std::uint64_t updates_rx{0};
  std::uint64_t announces_tx{0};
  std::uint64_t withdraws_tx{0};
  std::uint64_t resets{0};
  std::uint64_t crashes{0};
};

class ClusterBgpSpeaker : public net::Node, public bgp::SessionHost {
 public:
  /// `attr_registry` is the simulation's attribute store (never null).
  ClusterBgpSpeaker(bgp::Timers timers, bgp::AttrRegistryRef attr_registry)
      : timers_{timers}, attr_registry_{std::move(attr_registry)} {}

  void set_listener(SpeakerListener* listener) { listener_ = listener; }

  /// Register a relayed peering bound to the speaker's local `relay_port`
  /// (the port of the speaker<->border-switch link). Returns the peering id.
  PeeringId add_peering(core::PortId relay_port, Peering peering);

  /// Controller API: advertise / withdraw a prefix on one peering.
  /// Duplicate announcements (same attributes) are suppressed.
  void announce(PeeringId id, const net::Prefix& prefix,
                const bgp::PathAttributes& attrs);
  void withdraw(PeeringId id, const net::Prefix& prefix);

  /// Controller API: hard-reset a session (e.g. after a border-port-down
  /// PortStatus). The session restarts automatically.
  void reset_peering(PeeringId id, const std::string& reason);

  /// Emulate speaker process death: every session drops silently (no
  /// NOTIFICATION — peers discover via hold-timer expiry) and both
  /// per-peering RIBs are lost. While crashed, the speaker reads no
  /// packets and sends nothing.
  void crash();
  /// Restart after crash(): sessions reconnect; peers re-send their full
  /// tables on re-establishment, which repopulates the Adj-RIBs-In.
  void restart();
  bool crashed() const { return crashed_; }

  /// Re-deliver current state to a (new) listener: on_peer_established for
  /// every live peering, then one synthetic update per retained
  /// Adj-RIB-In route. This is how a restarted controller — or the
  /// degraded-mode fallback engine — resyncs without waiting for the
  /// external world to re-announce.
  void replay_to(SpeakerListener& listener) const;

  /// Degraded-mode control path: ship an OpenFlow message to a peering's
  /// border switch over its relay link (the switch accepts it while
  /// standalone). Used by the fallback engine when the controller is down.
  void send_relay_control(PeeringId id, const sdn::OfMessage& message);

  const Peering* peering(PeeringId id) const;
  std::vector<const Peering*> peerings() const;
  bool peering_established(PeeringId id) const;
  const SpeakerCounters& counters() const { return counters_; }
  /// The attribute store the speaker interns into; the controller bound to
  /// the speaker interns through it too.
  bgp::AttrRegistry& attr_registry() const { return *attr_registry_; }

  /// Report deterministic footprints (core/mem_stats.hpp model): Adj-RIB-Out
  /// peaks into rib_out, the per-peering relay Adj-RIBs-In into speaker_ribs.
  void account_memory(core::MemStats& stats) const {
    for (const auto& slot : slots_) {
      stats.rib_out += slot->rib_out.peak_bytes();
      stats.speaker_ribs +=
          slot->rib_in.size() *
          core::rb_node_bytes(
              sizeof(std::pair<const net::Prefix, bgp::AttrSetRef>));
    }
  }

  // Node
  void start() override;
  void handle_packet(core::PortId ingress, const net::Packet& packet) override;
  void on_link_state(core::PortId port, bool up) override;

  // SessionHost
  void session_transmit(bgp::Session& session, net::Bytes wire) override;
  void session_established(bgp::Session& session) override;
  void session_down(bgp::Session& session, const std::string& reason) override;
  void session_update(bgp::Session& session, bgp::UpdateMessage update) override;
  /// "speaker.<name>".
  const std::string& session_log_name() const override;

 private:
  struct Slot {
    explicit Slot(bgp::AttrRegistryRef attrs) : rib_out{std::move(attrs)} {}

    Peering info;
    core::PortId relay_port;
    std::unique_ptr<bgp::Session> session;
    bgp::AdjRibOut rib_out;
    /// Routes as received on this peering (the speaker-side Adj-RIB-In),
    /// kept for replay_to(): the degraded-mode engine and a restarted
    /// controller resync from here. Cleared when the session drops.
    /// Interned handles: every slot storing the same bundle shares it.
    std::map<net::Prefix, bgp::AttrSetRef> rib_in;
  };

  Slot* slot_of(const bgp::Session& session);

  bgp::Timers timers_;
  /// The simulation's attribute store: the relay Adj-RIBs-In intern into
  /// it, and the per-peering Adj-RIBs-Out store handles in it.
  bgp::AttrRegistryRef attr_registry_;
  SpeakerListener* listener_{nullptr};
  bool started_{false};
  bool crashed_{false};
  std::vector<std::unique_ptr<Slot>> slots_;        // index = PeeringId
  std::unordered_map<std::uint32_t, Slot*> by_port_;     // relay port -> slot
  std::unordered_map<std::uint32_t, Slot*> by_session_;  // session id -> slot
  SpeakerCounters counters_;
};

}  // namespace bgpsdn::speaker
