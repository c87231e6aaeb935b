#include "controller/fallback.hpp"

#include <string>
#include <utility>
#include <vector>

#include "core/logger.hpp"
#include "telemetry/trace.hpp"

namespace bgpsdn::controller {

template <typename... Parts>
void FallbackRouting::log(const char* event, const Parts&... parts) const {
  logger_.log(loop_.now(), core::LogLevel::kInfo, "fallback", event, parts...);
}

void FallbackRouting::activate(const std::map<net::Prefix, Origin>& origins) {
  if (active_) return;
  active_ = true;
  ++counters_.activations;
  origins_ = origins;
  log("activate", origins.size(), " member origins");
  if (telemetry_ != nullptr) {
    telemetry_->metrics().counter("ctrl.fallback.activations").inc();
    if (telemetry_->tracing()) {
      auto span = telemetry::TraceSpan::instant(loop_.now(), "ctrl",
                                                "fallback_activate", "fallback");
      span.arg("origins", static_cast<std::int64_t>(origins.size()));
      telemetry_->emit(span);
    }
  }
  for (const auto& [prefix, origin] : origins_) dirty_.insert(prefix);
  // Seed the external RIB from the speaker's retained Adj-RIBs-In; the
  // replay arrives through the listener callbacks below and marks every
  // replayed prefix dirty.
  speaker_.set_listener(this);
  speaker_.replay_to(*this);
  if (!dirty_.empty()) schedule_recompute();
}

void FallbackRouting::deactivate() {
  if (!active_) return;
  active_ = false;
  ++epoch_;
  recompute_pending_ = false;
  external_routes_.clear();
  origins_.clear();
  installed_.clear();
  dirty_.clear();
  log("deactivate", "controller resumed control");
}

void FallbackRouting::originate(const net::Prefix& prefix, Origin origin) {
  if (!active_) return;
  origins_[prefix] = origin;
  mark_dirty(prefix);
}

void FallbackRouting::withdraw_origin(const net::Prefix& prefix) {
  if (!active_) return;
  if (origins_.erase(prefix) > 0) mark_dirty(prefix);
}

void FallbackRouting::on_peer_established(const speaker::Peering&) {
  if (!active_) return;
  // A fresh egress can change every best path; there is no batching in
  // degraded mode, so recompute everything known right away.
  for (const auto& [prefix, routes] : external_routes_) dirty_.insert(prefix);
  for (const auto& [prefix, origin] : origins_) dirty_.insert(prefix);
  for (const auto& [prefix, actions] : installed_) dirty_.insert(prefix);
  if (!dirty_.empty()) schedule_recompute();
}

void FallbackRouting::on_peer_down(const speaker::Peering& peering,
                                   const std::string&) {
  if (!active_) return;
  for (auto& [prefix, routes] : external_routes_) {
    if (routes.erase(peering.id) > 0) mark_dirty(prefix);
  }
}

void FallbackRouting::on_route_update(const speaker::Peering& peering,
                                      const bgp::UpdateMessage& update) {
  if (!active_) return;
  for (const auto& prefix : update.withdrawn) {
    auto it = external_routes_.find(prefix);
    if (it != external_routes_.end() && it->second.erase(peering.id) > 0) {
      mark_dirty(prefix);
    }
  }
  if (update.nlri.empty()) return;
  const auto attrs = bgp::AttrSetRef::intern(update.attributes);
  for (const auto& prefix : update.nlri) {
    auto& slot = external_routes_[prefix][peering.id];
    if (slot == attrs) continue;
    slot = attrs;
    mark_dirty(prefix);
  }
}

void FallbackRouting::mark_dirty(const net::Prefix& prefix) {
  dirty_.insert(prefix);
  schedule_recompute();
}

void FallbackRouting::schedule_recompute() {
  if (recompute_pending_) return;
  recompute_pending_ = true;
  const auto epoch = epoch_;
  // Zero delay: coalesces the prefixes of one burst (one UPDATE's worth of
  // events at the same instant) but adds none of the controller's batch
  // window — distributed BGP processes as it receives.
  loop_.schedule(core::Duration::zero(),
                 [this, epoch] { run_recompute(epoch); });
}

void FallbackRouting::run_recompute(std::uint64_t epoch) {
  if (epoch != epoch_ || !active_) return;
  recompute_pending_ = false;
  ++counters_.recomputes;
  const auto batch = std::move(dirty_);
  dirty_.clear();
  if (telemetry_ != nullptr) {
    telemetry_->metrics().counter("ctrl.fallback.recomputes").inc();
  }
  for (const auto& prefix : batch) recompute_prefix(prefix);
}

std::optional<speaker::PeeringId> FallbackRouting::relay_peering_for(
    sdn::Dpid dpid) const {
  for (const auto* peering : speaker_.peerings()) {
    if (peering->border_dpid == dpid) return peering->id;
  }
  return std::nullopt;
}

void FallbackRouting::recompute_prefix(const net::Prefix& prefix) {
  // Gather inputs (same shape as the controller's pass — the decision and
  // compilation logic is shared; only batching and the install path differ).
  std::vector<ExternalRoute> routes;
  if (const auto it = external_routes_.find(prefix);
      it != external_routes_.end()) {
    routes.reserve(it->second.size());
    for (const auto& [pid, attrs] : it->second) routes.push_back({pid, attrs});
  }
  std::optional<sdn::Dpid> origin_switch;
  std::map<sdn::Dpid, core::PortId> origin_host_ports;
  if (const auto it = origins_.find(prefix); it != origins_.end()) {
    origin_switch = it->second.dpid;
    if (it->second.host_port) {
      origin_host_ports[it->second.dpid] = *it->second.host_port;
    }
  }

  const AsTopologyGraph topo{graph_, speaker_, /*allow_subcluster_bridging=*/true};
  const PrefixDecision decision = topo.decide(routes, origin_switch);
  const CompiledFlows flows =
      compile_flows(decision, graph_, speaker_, origin_host_ports);

  // Install over the relay path. Only switches with a relay peering are
  // reachable; the rest are skipped (and not recorded as installed).
  auto& installed = installed_[prefix];
  const FlowDelta delta = diff_flows(flows, installed);
  for (const auto& [dpid, action] : delta.upserts) {
    const auto relay = relay_peering_for(dpid);
    if (!relay) {
      ++counters_.unprogrammable_skips;
      continue;
    }
    sdn::OfFlowMod mod;
    mod.command = sdn::FlowModCommand::kAdd;
    mod.match.dst = prefix;
    mod.priority = kDataRulePriority;
    mod.action = action;
    mod.epoch = programming_epoch_;
    speaker_.send_relay_control(*relay, mod);
    installed[dpid] = action;
    ++counters_.flow_adds;
    if (telemetry_ != nullptr) {
      telemetry_->metrics().counter("ctrl.fallback.flow_adds").inc();
    }
  }
  for (const auto dpid : delta.removals) {
    if (const auto relay = relay_peering_for(dpid)) {
      sdn::OfFlowMod mod;
      mod.command = sdn::FlowModCommand::kDelete;
      mod.match.dst = prefix;
      mod.priority = kDataRulePriority;
      mod.epoch = programming_epoch_;
      speaker_.send_relay_control(*relay, mod);
      ++counters_.flow_deletes;
      if (telemetry_ != nullptr) {
        telemetry_->metrics().counter("ctrl.fallback.flow_deletes").inc();
      }
    }
    installed.erase(dpid);
  }
  if (installed.empty()) installed_.erase(prefix);

  // Compose legacy announcements exactly as the controller would; the
  // speaker's Adj-RIB-Out dedup means taking over after a converged
  // controller produces zero external churn.
  for (const auto* peering : speaker_.peerings()) {
    const auto path_it = decision.as_paths.find(peering->border_dpid);
    bool announce = path_it != decision.as_paths.end();
    if (announce && peering->expected_peer_as.value() != 0 &&
        path_it->second.contains(peering->expected_peer_as)) {
      announce = false;
    }
    if (announce) {
      bgp::PathAttributes attrs;
      attrs.as_path = path_it->second;
      attrs.origin = decision.origins.count(peering->border_dpid) > 0
                         ? decision.origins.at(peering->border_dpid)
                         : bgp::Origin::kIgp;
      attrs.next_hop = peering->local_address;
      ++counters_.announces;
      speaker_.announce(peering->id, prefix, attrs);
    } else {
      ++counters_.withdraws;
      speaker_.withdraw(peering->id, prefix);
    }
  }
}

}  // namespace bgpsdn::controller
