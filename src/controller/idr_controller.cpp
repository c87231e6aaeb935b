#include "controller/idr_controller.hpp"

#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "net/network.hpp"
#include "telemetry/trace.hpp"

namespace bgpsdn::controller {

void IdrController::bind_speaker(speaker::ClusterBgpSpeaker& speaker) {
  speaker_ = &speaker;
  speaker.set_listener(this);
  decider_ = std::make_unique<IncrementalDecider>(graph_, *speaker_,
                                                  config_.subcluster_bridging);
}

void IdrController::originate(sdn::Dpid origin, const net::Prefix& prefix,
                              std::optional<core::PortId> host_port) {
  origins_[prefix] = ClusterOrigin{origin, host_port};
  logger().log(loop().now(), core::LogLevel::kInfo, idr_log_name(),
               "origin_announce", prefix, " at dpid ", origin);
  mark_dirty(prefix);
}

void IdrController::withdraw_origin(const net::Prefix& prefix) {
  if (origins_.erase(prefix) == 0) return;
  logger().log(loop().now(), core::LogLevel::kInfo, idr_log_name(),
               "origin_withdraw", prefix);
  mark_dirty(prefix);
}

// --- crash / restart --------------------------------------------------------

void IdrController::on_crash() {
  external_routes_.clear();
  origins_.clear();
  installed_.clear();
  decisions_.clear();
  dirty_.clear();
  decider_->clear();
  topology_pending_ = false;
  recompute_pending_ = false;
  telemetry().metrics().counter("ctrl.idr.crashes").inc();
}

void IdrController::on_restart() {
  // Nothing to rebuild here: switches re-Hello (-> mark_all_dirty), the
  // experiment replays originations and the speaker replays its RIBs.
  telemetry().metrics().counter("ctrl.idr.restarts").inc();
}

// --- controller HA hooks ----------------------------------------------------

void IdrController::reset_for_takeover() {
  external_routes_.clear();
  origins_.clear();
  installed_.clear();
  decisions_.clear();
  dirty_.clear();
  decider_->clear();
  topology_pending_ = false;
  recompute_pending_ = false;
}

void IdrController::adopt_shadow(IdrShadowState&& shadow) {
  external_routes_ = std::move(shadow.external_routes);
  origins_ = std::move(shadow.origins);
  installed_ = std::move(shadow.installed);
  logger().log(loop().now(), core::LogLevel::kInfo, idr_log_name(),
               "adopt_shadow", external_routes_.size(), " rib prefixes, ",
               installed_.size(), " flow prefixes");
  mark_all_dirty();
}

IdrShadowState IdrController::export_shadow() const {
  IdrShadowState out;
  out.external_routes = external_routes_;
  out.origins = origins_;
  out.installed = installed_;
  return out;
}

// --- speaker input ----------------------------------------------------------

void IdrController::on_peer_established(const speaker::Peering&) {
  // Announce the current table to the fresh peer (and re-derive everything:
  // a new egress may change best paths).
  mark_all_dirty();
}

void IdrController::on_peer_down(const speaker::Peering& peering,
                                 const std::string&) {
  drop_peering(external_routes_, peering.id,
               [this](const net::Prefix& prefix) { mark_dirty(prefix); });
}

void IdrController::on_route_update(const speaker::Peering& peering,
                                    const bgp::UpdateMessage& update) {
  apply_update(speaker_->attr_registry(), external_routes_, peering.id, update,
               [this](const net::Prefix& prefix) { mark_dirty(prefix); });
}

// --- switch input -----------------------------------------------------------

void IdrController::on_switch_connected(const sdn::SwitchChannel&) {
  mark_all_dirty();
}

void IdrController::on_packet_in(const sdn::SwitchChannel& channel,
                                 const sdn::OfPacketIn& in) {
  // Reactive repair: if we already decided a route for this destination,
  // reinstall the rule and forward the packet along it.
  const net::Ipv4Addr dst = in.packet.dst;
  const net::Prefix* best_prefix = nullptr;
  for (const auto& [prefix, actions] : installed_) {
    if (!prefix.contains(dst)) continue;
    if (best_prefix == nullptr || prefix.length() > best_prefix->length()) {
      best_prefix = &prefix;
    }
  }
  if (best_prefix == nullptr) return;  // no route: drop
  const auto& actions = installed_.at(*best_prefix);
  const auto it = actions.find(channel.dpid);
  if (it == actions.end()) return;
  sdn::OfFlowMod mod;
  mod.command = sdn::FlowModCommand::kAdd;
  mod.match.dst = *best_prefix;
  mod.priority = kDataRulePriority;
  mod.action = it->second;
  mod.epoch = programming_epoch_;
  send_flow_mod(channel.dpid, mod);
  if (it->second.type == sdn::ActionType::kOutput) {
    send_packet_out(channel.dpid, it->second.port, in.packet);
  }
}

void IdrController::on_port_status(const sdn::SwitchChannel& channel,
                                   const sdn::OfPortStatus& status) {
  // Intra-cluster link?
  if (graph_.set_port_state(channel.dpid, status.port, status.up)) {
    logger().log(loop().now(), core::LogLevel::kInfo, idr_log_name(),
                 "cluster_link_state", "dpid ", channel.dpid, " port ",
                 status.port.value(), status.up ? " up" : " down");
    // The change sits in the switch graph's changelog; the recompute pass
    // replays it into the per-prefix trees and re-decides only the
    // prefixes whose decision it can move.
    mark_topology_dirty();
    return;
  }
  // Border port of a relayed peering? Centralized failure handling: reset
  // the session immediately instead of waiting for its hold timer.
  if (speaker_ == nullptr) return;
  for (const auto* peering : speaker_->peerings()) {
    if (peering->border_dpid != channel.dpid ||
        peering->switch_external_port != status.port) {
      continue;
    }
    if (!status.up) {
      ++idr_counters_.border_port_resets;
      speaker_->reset_peering(peering->id, "border port down");
    }
    // on_peer_down() marks the affected prefixes dirty.
    return;
  }
}

// --- recomputation ----------------------------------------------------------

void IdrController::schedule_recompute() {
  if (recompute_pending_) return;
  recompute_pending_ = true;
  batch_opened_at_ = loop().now();
  loop().schedule(config_.recompute_delay, [this] { run_recompute(); });
}

void IdrController::mark_dirty(const net::Prefix& prefix) {
  if (crashed()) return;
  dirty_.insert(prefix);
  schedule_recompute();
}

void IdrController::mark_all_dirty() {
  if (crashed()) return;
  for (const auto& prefix : known_prefixes()) dirty_.insert(prefix);
  if (dirty_.empty()) return;
  schedule_recompute();
}

void IdrController::mark_topology_dirty() {
  if (crashed()) return;
  topology_pending_ = true;
  // Mirror mark_all_dirty's no-op condition: with no prefixes known there
  // is nothing a topology change could re-decide, so no pass is scheduled
  // (the changelog suffix is replayed whenever a tree is next consulted).
  if (known_prefixes().empty()) return;
  schedule_recompute();
}

const std::string& IdrController::idr_log_name() const {
  if (idr_log_name_.empty()) {
    idr_log_name_ = "idr.";
    idr_log_name_ += name();
  }
  return idr_log_name_;
}

std::set<net::Prefix> IdrController::known_prefixes() const {
  std::set<net::Prefix> out;
  // lint: unordered-ok(collected into a sorted std::set before use)
  for (const auto& [prefix, routes] : external_routes_) out.insert(prefix);
  for (const auto& [prefix, info] : origins_) out.insert(prefix);
  for (const auto& [prefix, actions] : installed_) out.insert(prefix);
  return out;
}

void IdrController::run_recompute() {
  // A batch timer armed before a crash may still fire; the dead process
  // computes nothing.
  if (crashed()) return;
  recompute_pending_ = false;
  ++idr_counters_.recompute_passes;
  auto batch = std::move(dirty_);
  dirty_.clear();
  const std::uint64_t replayed_before = decider_->vertices_replayed();
  const std::uint64_t fallbacks_before = decider_->reference_fallbacks();
  if (topology_pending_) {
    topology_pending_ = false;
    // Replay the changelog suffix into every tree; only prefixes whose tree
    // moved, or whose bridged decision is older than the change, join the
    // batch.
    for (const auto& prefix : decider_->apply_topology_deltas()) {
      batch.insert(prefix);
    }
  }
  idr_counters_.prefixes_dirty += batch.size();
  logger().log(loop().now(), core::LogLevel::kInfo, idr_log_name(), "recompute",
               batch.size(), " prefixes");
  auto& tel = telemetry();
  auto& metrics = tel.metrics();
  metrics.counter("ctrl.idr.recompute_passes").inc();
  metrics.counter("ctrl.idr.prefixes_dirty")
      .inc(static_cast<std::int64_t>(batch.size()));
  metrics.histogram("ctrl.idr.batch_prefixes")
      .record(static_cast<std::int64_t>(batch.size()));
  metrics.histogram("ctrl.idr.batch_wait_ns")
      .record((loop().now() - batch_opened_at_).count_nanos());
  if (tel.tracing()) {
    // The span covers the batching delay: opened at the first dirtying
    // input, closed here where the recomputation pass runs.
    auto span = telemetry::TraceSpan{batch_opened_at_, loop().now(), "ctrl",
                                     "recompute_batch", idr_log_name()};
    span.arg("prefixes", static_cast<std::int64_t>(batch.size()));
    tel.emit(span);
  }
  for (const auto& prefix : batch) recompute_prefix(prefix);
  const std::uint64_t replayed = decider_->vertices_replayed() - replayed_before;
  idr_counters_.spt_vertices_replayed += replayed;
  idr_counters_.reference_fallbacks +=
      decider_->reference_fallbacks() - fallbacks_before;
  if (replayed > 0) {
    metrics.counter("ctrl.idr.spt_vertices_replayed")
        .inc(static_cast<std::int64_t>(replayed));
  }
}

void IdrController::recompute_prefix(const net::Prefix& prefix) {
  ++idr_counters_.prefix_recomputes;
  if (speaker_ == nullptr) return;

  const DecisionInputs in = gather_inputs(external_routes_, origins_, prefix);

  auto& tel = telemetry();
  const bool tracing = tel.tracing();
  const auto phase = [&](const char* phase_name, std::int64_t detail) {
    // Phases of one recomputation share a virtual instant; instant spans
    // keep the taxonomy (graph_transform -> dijkstra -> flow_install)
    // visible in the trace without inventing fake durations.
    auto span = telemetry::TraceSpan::instant(loop().now(), "ctrl", phase_name,
                                              idr_log_name());
    span.arg("prefix", prefix.to_string()).arg("n", detail);
    tel.emit(span);
  };

  // Decide.
  if (tracing) phase("graph_transform", static_cast<std::int64_t>(in.routes.size()));
  PrefixDecision decision = decider_->decide(prefix, in.routes, in.origin_switch);
  // A prefix with no inputs left converges to an empty decision; free its
  // tree (it re-seeds if the prefix ever comes back).
  if (in.routes.empty() && !in.origin_switch) decider_->drop(prefix);
  idr_counters_.routes_pruned_loop += decision.pruned_routes;
  if (tracing) phase("dijkstra", static_cast<std::int64_t>(decision.as_paths.size()));

  // Compile and diff flow rules against the installed mirror; unchanged
  // prefixes emit zero FlowMods.
  const std::uint64_t adds_before = idr_counters_.flow_adds;
  const std::uint64_t deletes_before = idr_counters_.flow_deletes;
  const CompiledFlows flows =
      compile_flows(decision, graph_, *speaker_, in.origin_host_ports);
  auto& installed = installed_[prefix];
  const FlowDelta delta = diff_flows(flows, installed);
  for (const auto& [dpid, action] : delta.upserts) {
    if (!is_connected(dpid)) continue;
    sdn::OfFlowMod mod;
    mod.command = sdn::FlowModCommand::kAdd;
    mod.match.dst = prefix;
    mod.priority = kDataRulePriority;
    mod.action = action;
    mod.epoch = programming_epoch_;
    send_flow_mod(dpid, mod);
    installed[dpid] = action;
    ++idr_counters_.flow_adds;
    if (flow_observer_) flow_observer_(prefix, dpid, &action);
  }
  for (const auto dpid : delta.removals) {
    sdn::OfFlowMod mod;
    mod.command = sdn::FlowModCommand::kDelete;
    mod.match.dst = prefix;
    mod.priority = kDataRulePriority;
    mod.epoch = programming_epoch_;
    send_flow_mod(dpid, mod);
    ++idr_counters_.flow_deletes;
    installed.erase(dpid);
    if (flow_observer_) flow_observer_(prefix, dpid, nullptr);
  }
  if (installed.empty()) installed_.erase(prefix);
  const auto adds =
      static_cast<std::int64_t>(idr_counters_.flow_adds - adds_before);
  const auto dels =
      static_cast<std::int64_t>(idr_counters_.flow_deletes - deletes_before);
  auto& metrics = tel.metrics();
  metrics.counter("ctrl.idr.prefix_recomputes").inc();
  if (adds > 0) metrics.counter("ctrl.idr.flow_adds").inc(adds);
  if (dels > 0) metrics.counter("ctrl.idr.flow_deletes").inc(dels);
  if (tracing) phase("flow_install", adds + dels);

  const AnnounceCounts sent = announce_decision(*speaker_, prefix, decision);
  idr_counters_.announces += sent.announces;
  idr_counters_.withdraws += sent.withdraws;

  decisions_[prefix] = std::move(decision);
}

const PrefixDecision* IdrController::decision_for(const net::Prefix& prefix) const {
  const auto it = decisions_.find(prefix);
  return it == decisions_.end() ? nullptr : &it->second;
}

std::size_t IdrController::route_count(const net::Prefix& prefix) const {
  const auto it = external_routes_.find(prefix);
  return it == external_routes_.end() ? 0 : it->second.size();
}

}  // namespace bgpsdn::controller
