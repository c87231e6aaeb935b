#include "controller/route_compiler.hpp"

namespace bgpsdn::controller {

void apply_update(bgp::AttrRegistry& attrs, ExternalRib& rib,
                  speaker::PeeringId peering, const bgp::UpdateMessage& update,
                  const PrefixChanged& changed) {
  for (const auto& prefix : update.withdrawn) {
    auto it = rib.find(prefix);
    if (it != rib.end() && it->second.erase(peering) > 0) changed(prefix);
  }
  if (update.nlri.empty()) return;
  const auto bundle = attrs.intern(update.attributes);
  for (const auto& prefix : update.nlri) {
    auto& slot = rib[prefix][peering];
    if (slot == bundle) continue;  // duplicate announcement
    slot = bundle;
    changed(prefix);
  }
}

void drop_peering(ExternalRib& rib, speaker::PeeringId peering,
                  const PrefixChanged& changed) {
  // lint: unordered-ok(callers only collect the prefixes into a std::set)
  for (auto& [prefix, routes] : rib) {
    if (routes.erase(peering) > 0) changed(prefix);
  }
}

DecisionInputs gather_inputs(const ExternalRib& rib,
                             const std::map<net::Prefix, ClusterOrigin>& origins,
                             const net::Prefix& prefix) {
  DecisionInputs in;
  if (const auto it = rib.find(prefix); it != rib.end()) {
    in.routes.reserve(it->second.size());
    for (const auto& [pid, attrs] : it->second) in.routes.push_back({pid, attrs});
  }
  if (const auto it = origins.find(prefix); it != origins.end()) {
    in.origin_switch = it->second.dpid;
    if (it->second.host_port) {
      in.origin_host_ports[it->second.dpid] = *it->second.host_port;
    }
  }
  return in;
}

CompiledFlows compile_flows(
    const PrefixDecision& decision, const SwitchGraph& switches,
    const speaker::ClusterBgpSpeaker& speaker,
    const std::map<sdn::Dpid, core::PortId>& origin_host_ports) {
  CompiledFlows out;
  for (const auto& [dpid, hop] : decision.hops) {
    switch (hop.kind) {
      case PrefixDecision::HopKind::kNextSwitch: {
        // Pick the (deterministically first) up adjacency towards the
        // chosen neighbor.
        std::optional<core::PortId> port;
        for (const auto& adj : switches.neighbors(dpid)) {
          if (adj.peer == hop.next_switch) {
            port = adj.local_port;
            break;
          }
        }
        if (port) out.actions[dpid] = sdn::FlowAction::output(*port);
        break;
      }
      case PrefixDecision::HopKind::kEgress: {
        const speaker::Peering* info = speaker.peering(hop.egress);
        if (info != nullptr) {
          out.actions[dpid] = sdn::FlowAction::output(info->switch_external_port);
        }
        break;
      }
      case PrefixDecision::HopKind::kLocalOrigin: {
        const auto it = origin_host_ports.find(dpid);
        if (it != origin_host_ports.end()) {
          out.actions[dpid] = sdn::FlowAction::output(it->second);
        } else {
          // Prefix terminates here with no host attached: drop explicitly
          // rather than punting every packet to the controller.
          out.actions[dpid] = sdn::FlowAction::drop();
        }
        break;
      }
    }
  }
  return out;
}

FlowDelta diff_flows(const CompiledFlows& desired,
                     const std::map<sdn::Dpid, sdn::FlowAction>& installed) {
  FlowDelta delta;
  for (const auto& [dpid, action] : desired.actions) {
    const auto it = installed.find(dpid);
    if (it != installed.end() && it->second == action) continue;
    delta.upserts.emplace_back(dpid, action);
  }
  for (const auto& [dpid, action] : installed) {
    if (desired.actions.count(dpid) == 0) delta.removals.push_back(dpid);
  }
  return delta;
}

SwitchFlowDelta diff_switch_flows(
    const std::map<net::Prefix, sdn::FlowAction>& desired, sdn::Dpid dpid,
    const std::map<net::Prefix, std::map<sdn::Dpid, sdn::FlowAction>>& installed) {
  SwitchFlowDelta delta;
  for (const auto& [prefix, action] : desired) {
    const auto cell = installed.find(prefix);
    if (cell != installed.end()) {
      const auto it = cell->second.find(dpid);
      if (it != cell->second.end() && it->second == action) continue;
    }
    delta.upserts.emplace_back(prefix, action);
  }
  for (const auto& [prefix, cell] : installed) {
    if (desired.count(prefix) == 0 && cell.count(dpid) > 0) {
      delta.removals.push_back(prefix);
    }
  }
  return delta;
}

AnnounceCounts announce_decision(speaker::ClusterBgpSpeaker& speaker,
                                 const net::Prefix& prefix,
                                 const PrefixDecision& decision) {
  AnnounceCounts sent;
  for (const auto* peering : speaker.peerings()) {
    const sdn::Dpid border = peering->border_dpid;
    const auto path_it = decision.as_paths.find(border);
    bool announce = path_it != decision.as_paths.end();
    if (announce && peering->expected_peer_as.value() != 0 &&
        path_it->second.contains(peering->expected_peer_as)) {
      // The path runs through the receiving AS (e.g. it is our chosen
      // egress); announcing it would be an immediate loop.
      announce = false;
    }
    if (announce) {
      bgp::PathAttributes attrs;
      attrs.as_path = path_it->second;
      attrs.origin = decision.origins.count(border) > 0
                         ? decision.origins.at(border)
                         : bgp::Origin::kIgp;
      attrs.next_hop = peering->local_address;
      ++sent.announces;
      speaker.announce(peering->id, prefix, attrs);
    } else {
      ++sent.withdraws;
      speaker.withdraw(peering->id, prefix);
    }
  }
  return sent;
}

}  // namespace bgpsdn::controller
