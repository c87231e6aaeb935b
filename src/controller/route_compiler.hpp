// RouteCompiler — "AS routes are then compiled to flow rules on the SDN
// switches."
//
// The per-prefix steps around a routing decision that the IdrController and
// the FallbackRouting engine share: keeping the external RIB from speaker
// input, gathering one prefix's decision inputs, translating a
// PrefixDecision to the concrete flow action each switch needs and diffing
// it against installed state, and composing the announcements to the
// legacy world. Each step is one function with no knowledge of its caller;
// batching, the FlowMod transport and the counters stay with the callers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/attr_intern.hpp"
#include "bgp/message.hpp"
#include "controller/as_topology.hpp"
#include "controller/switch_graph.hpp"
#include "net/ip.hpp"
#include "sdn/flow.hpp"
#include "speaker/cluster_speaker.hpp"

namespace bgpsdn::controller {

/// A member-originated prefix: the origin switch and, when a host hangs off
/// it, the port that delivers the prefix locally.
struct ClusterOrigin {
  sdn::Dpid dpid{0};
  std::optional<core::PortId> host_port;
};

/// External RIB: prefix -> (peering -> interned attributes as received).
using ExternalRib =
    std::unordered_map<net::Prefix,
                       std::map<speaker::PeeringId, bgp::AttrSetRef>>;

/// Called once per prefix whose external routes changed.
using PrefixChanged = std::function<void(const net::Prefix&)>;

/// Apply one UPDATE received on `peering` to the RIB: withdrawals first,
/// then the announced NLRI, interned once into `attrs` (the store of the
/// speaker the RIB's owner is bound to). A re-announcement with the same
/// attributes changes nothing.
void apply_update(bgp::AttrRegistry& attrs, ExternalRib& rib,
                  speaker::PeeringId peering, const bgp::UpdateMessage& update,
                  const PrefixChanged& changed);

/// Forget every route learned on `peering` (its session went down).
void drop_peering(ExternalRib& rib, speaker::PeeringId peering,
                  const PrefixChanged& changed);

/// Everything one prefix's decision and compilation read.
struct DecisionInputs {
  /// In peering order.
  std::vector<ExternalRoute> routes;
  std::optional<sdn::Dpid> origin_switch;
  std::map<sdn::Dpid, core::PortId> origin_host_ports;
};

DecisionInputs gather_inputs(const ExternalRib& rib,
                             const std::map<net::Prefix, ClusterOrigin>& origins,
                             const net::Prefix& prefix);

/// Data-plane rules install at this priority; the cluster builder's static
/// BGP-relay rules sit above them. Canonical values live in sdn/flow.hpp so
/// the switch's standalone-mode flush agrees on the band boundary.
inline constexpr std::uint16_t kDataRulePriority = sdn::kDataRulePriority;
inline constexpr std::uint16_t kRelayRulePriority = sdn::kRelayRulePriority;

struct CompiledFlows {
  /// Desired action per switch for the prefix. Switches missing from the
  /// map must have their rule removed.
  std::map<sdn::Dpid, sdn::FlowAction> actions;
};

/// `host_port` resolves an attached host port for (dpid) local delivery of
/// an origin prefix, if any.
CompiledFlows compile_flows(
    const PrefixDecision& decision, const SwitchGraph& switches,
    const speaker::ClusterBgpSpeaker& speaker,
    const std::map<sdn::Dpid, core::PortId>& origin_host_ports);

/// Flow-rule delta for one prefix: what the installer must change to move
/// one switch set from `installed` to `desired`. Both lists come out in
/// ascending dpid order, matching the historical FlowMod emission order so
/// switching to delta compilation changes zero wire bytes.
struct FlowDelta {
  /// New or changed actions to (re)install.
  std::vector<std::pair<sdn::Dpid, sdn::FlowAction>> upserts;
  /// Switches whose rule must be removed (installed but no longer desired).
  std::vector<sdn::Dpid> removals;

  bool empty() const { return upserts.empty() && removals.empty(); }
};

/// Diff compiled (desired) flows for a prefix against the installed mirror.
/// An unchanged prefix yields an empty delta — zero FlowMods.
FlowDelta diff_flows(const CompiledFlows& desired,
                     const std::map<sdn::Dpid, sdn::FlowAction>& installed);

/// Per-switch variant used by the RouteFlow baseline, whose sync walks one
/// switch across all prefixes: what must change on `dpid` to realize
/// `desired` given the global installed mirror (prefix -> dpid -> action).
struct SwitchFlowDelta {
  std::vector<std::pair<net::Prefix, sdn::FlowAction>> upserts;
  std::vector<net::Prefix> removals;

  bool empty() const { return upserts.empty() && removals.empty(); }
};

SwitchFlowDelta diff_switch_flows(
    const std::map<net::Prefix, sdn::FlowAction>& desired, sdn::Dpid dpid,
    const std::map<net::Prefix, std::map<sdn::Dpid, sdn::FlowAction>>& installed);

struct AnnounceCounts {
  std::uint64_t announces{0};
  std::uint64_t withdraws{0};
};

/// Compose the cluster's announcement of `prefix` to every legacy peering.
/// The AS path starts with the border switch's own AS and is the exact
/// AS-level route traffic will take, so the cluster stays transparent to
/// the legacy world. A peering whose border switch has no path, or whose
/// neighbor already sits on the path, gets a withdrawal. The speaker's
/// Adj-RIB-Out suppresses repeats.
AnnounceCounts announce_decision(speaker::ClusterBgpSpeaker& speaker,
                                 const net::Prefix& prefix,
                                 const PrefixDecision& decision);

}  // namespace bgpsdn::controller
