// FallbackRouting — graceful degradation to distributed BGP when the
// controller is down.
//
// Kotronis et al. frame fallback to distributed BGP as the safety property
// of the hybrid model: losing the controller must not take the cluster off
// the Internet. This engine implements that degraded mode. It becomes the
// cluster speaker's listener when the controller crashes and re-derives
// routing from the speaker's retained per-peering Adj-RIBs-In plus the
// recorded member originations. Unlike the controller it performs no
// centralized batching — every update is processed immediately, modelling
// the per-router processing of ordinary distributed BGP (this is exactly
// the behaviour the chaos bench contrasts against centralized recovery).
//
// The only programmable switches in degraded mode are border switches: the
// controller channel is dead, so FlowMods travel over the speaker's BGP
// relay links (which the switch accepts while standalone). Interior
// switches of a non-clique cluster stay unprogrammed — a documented
// limitation of the degraded mode, counted in `unprogrammable_skips`.
// Intra-cluster topology changes are likewise invisible while degraded
// (PortStatus has nowhere to go).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "controller/as_topology.hpp"
#include "controller/route_compiler.hpp"
#include "controller/switch_graph.hpp"
#include "core/event_loop.hpp"
#include "net/ip.hpp"
#include "speaker/cluster_speaker.hpp"

namespace bgpsdn::core {
class Logger;
}  // namespace bgpsdn::core

namespace bgpsdn::telemetry {
class Telemetry;
}  // namespace bgpsdn::telemetry

namespace bgpsdn::controller {

struct FallbackCounters {
  std::uint64_t activations{0};
  std::uint64_t recomputes{0};
  std::uint64_t flow_adds{0};
  std::uint64_t flow_deletes{0};
  std::uint64_t announces{0};
  std::uint64_t withdraws{0};
  /// (prefix, switch) installs skipped because the switch has no relay
  /// peering — interior switches are unreachable in degraded mode.
  std::uint64_t unprogrammable_skips{0};
};

class FallbackRouting : public speaker::SpeakerListener {
 public:
  FallbackRouting(core::EventLoop& loop, core::Logger& logger,
                  telemetry::Telemetry& telemetry, const SwitchGraph& graph,
                  speaker::ClusterBgpSpeaker& speaker)
      : loop_{loop},
        logger_{logger},
        telemetry_{telemetry},
        graph_{graph},
        speaker_{speaker} {}
  FallbackRouting(const FallbackRouting&) = delete;
  FallbackRouting& operator=(const FallbackRouting&) = delete;

  /// Take over from a crashed controller: become the speaker's listener,
  /// seed state from its retained Adj-RIBs-In plus `origins`, and schedule
  /// an immediate recomputation of everything known.
  void activate(const std::map<net::Prefix, ClusterOrigin>& origins);

  /// Stand down (the controller restarted). Drops all engine state; the
  /// caller rebinds the controller as the speaker's listener itself.
  void deactivate();

  /// Member originations declared while degraded (no-ops when inactive).
  void originate(const net::Prefix& prefix, ClusterOrigin origin);
  void withdraw_origin(const net::Prefix& prefix);

  bool active() const { return active_; }
  const FallbackCounters& counters() const { return counters_; }

  /// Epoch stamped into relay-path FlowMods. Under controller HA the
  /// degradation itself is a leadership change: the experiment fences the
  /// fallback above every dead replica so switches that saw HA programming
  /// still accept the degraded path's rules.
  void set_programming_epoch(std::uint32_t epoch) { programming_epoch_ = epoch; }

  // SpeakerListener
  void on_peer_established(const speaker::Peering& peering) override;
  void on_peer_down(const speaker::Peering& peering,
                    const std::string& reason) override;
  void on_route_update(const speaker::Peering& peering,
                       const bgp::UpdateMessage& update) override;

 private:
  void mark_dirty(const net::Prefix& prefix);
  void schedule_recompute();
  void run_recompute(std::uint64_t epoch);
  void recompute_prefix(const net::Prefix& prefix);
  std::optional<speaker::PeeringId> relay_peering_for(sdn::Dpid dpid) const;
  /// One INFO record from the fallback engine (see core::Logger::log).
  template <typename... Parts>
  void log(const char* event, const Parts&... parts) const;

  core::EventLoop& loop_;
  core::Logger& logger_;
  telemetry::Telemetry& telemetry_;
  const SwitchGraph& graph_;
  speaker::ClusterBgpSpeaker& speaker_;

  bool active_{false};
  /// Invalidates queued recompute callbacks across deactivate/reactivate.
  std::uint64_t epoch_{0};
  bool recompute_pending_{false};

  ExternalRib external_routes_;
  std::map<net::Prefix, ClusterOrigin> origins_;
  /// Flows this engine pushed over the relay path (diff target; the switch
  /// flushed all controller rules when it went standalone).
  std::map<net::Prefix, std::map<sdn::Dpid, sdn::FlowAction>> installed_;
  std::set<net::Prefix> dirty_;
  FallbackCounters counters_;
  std::uint32_t programming_epoch_{0};
};

}  // namespace bgpsdn::controller
