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

void FallbackRouting::activate(
    const std::map<net::Prefix, ClusterOrigin>& origins) {
  if (active_) return;
  active_ = true;
  ++counters_.activations;
  origins_ = origins;
  log("activate", origins.size(), " member origins");
  telemetry_.metrics().counter("ctrl.fallback.activations").inc();
  if (telemetry_.tracing()) {
    auto span = telemetry::TraceSpan::instant(loop_.now(), "ctrl",
                                              "fallback_activate", "fallback");
    span.arg("origins", static_cast<std::int64_t>(origins.size()));
    telemetry_.emit(span);
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

void FallbackRouting::originate(const net::Prefix& prefix,
                                ClusterOrigin origin) {
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
  // lint: unordered-ok(collected into the sorted dirty_ set)
  for (const auto& [prefix, routes] : external_routes_) dirty_.insert(prefix);
  for (const auto& [prefix, origin] : origins_) dirty_.insert(prefix);
  for (const auto& [prefix, actions] : installed_) dirty_.insert(prefix);
  if (!dirty_.empty()) schedule_recompute();
}

void FallbackRouting::on_peer_down(const speaker::Peering& peering,
                                   const std::string&) {
  if (!active_) return;
  drop_peering(external_routes_, peering.id,
               [this](const net::Prefix& prefix) { mark_dirty(prefix); });
}

void FallbackRouting::on_route_update(const speaker::Peering& peering,
                                      const bgp::UpdateMessage& update) {
  if (!active_) return;
  apply_update(speaker_.attr_registry(), external_routes_, peering.id, update,
               [this](const net::Prefix& prefix) { mark_dirty(prefix); });
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
  telemetry_.metrics().counter("ctrl.fallback.recomputes").inc();
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
  // The controller's steps (route_compiler.hpp) around a from-scratch
  // decision; only batching and the install path differ.
  const DecisionInputs in = gather_inputs(external_routes_, origins_, prefix);
  const AsTopologyGraph topo{graph_, speaker_, /*allow_subcluster_bridging=*/true};
  const PrefixDecision decision = topo.decide(in.routes, in.origin_switch);
  const CompiledFlows flows =
      compile_flows(decision, graph_, speaker_, in.origin_host_ports);

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
    telemetry_.metrics().counter("ctrl.fallback.flow_adds").inc();
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
      telemetry_.metrics().counter("ctrl.fallback.flow_deletes").inc();
    }
    installed.erase(dpid);
  }
  if (installed.empty()) installed_.erase(prefix);

  // Compose legacy announcements exactly as the controller does; the
  // speaker's Adj-RIB-Out dedup means taking over after a converged
  // controller produces zero external churn.
  const AnnounceCounts sent = announce_decision(speaker_, prefix, decision);
  counters_.announces += sent.announces;
  counters_.withdraws += sent.withdraws;
}

}  // namespace bgpsdn::controller
