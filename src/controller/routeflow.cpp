#include "controller/routeflow.hpp"

#include "bgp/policy.hpp"
#include "controller/route_compiler.hpp"
#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "net/address_allocator.hpp"
#include "telemetry/trace.hpp"

namespace bgpsdn::controller {

namespace {
/// Loc-RIB -> flow-table synchronization poll period.
constexpr core::Duration kSyncInterval = core::Duration::millis(500);
}  // namespace

// --- GhostPeer ---------------------------------------------------------------

void GhostPeer::configure_session(net::Ipv4Addr local, net::Ipv4Addr remote) {
  local_address_ = local;
  remote_address_ = remote;
  bgp::SessionConfig sc;
  sc.id = allocate_session_id();  // net::Node: network-scoped allocation
  sc.local_as = peering_.expected_peer_as;  // we impersonate the external AS
  sc.local_id = local;
  sc.local_address = local;
  sc.remote_address = remote;
  sc.expected_peer_as = peering_.cluster_as;
  sc.timers = timers_;
  // The mirror network's loop, RNG, logger and hub: ghost sessions record
  // into the mirror's telemetry, not the experiment's.
  session_ = std::make_unique<bgp::Session>(
      *this, bgp::SessionEnv{loop(), rng(), logger(), telemetry()}, sc);
}

void GhostPeer::start() {
  if (session_) session_->start();
}

void GhostPeer::inject(const bgp::UpdateMessage& update) {
  for (const auto& p : update.withdrawn) injected_.erase(p);
  for (const auto& p : update.nlri) injected_.insert(p);
  if (session_ == nullptr || !session_->established()) {
    backlog_.push_back(update);
    return;
  }
  session_->send_update(update);
}

void GhostPeer::flush_all() {
  if (injected_.empty()) return;
  bgp::UpdateMessage wd;
  wd.withdrawn.assign(injected_.begin(), injected_.end());
  injected_.clear();
  backlog_.clear();
  if (session_ != nullptr && session_->established()) {
    session_->send_update(wd);
  }
}

void GhostPeer::handle_packet(core::PortId, const net::Packet& packet) {
  if (packet.proto == net::Protocol::kBgp && session_ != nullptr) {
    session_->receive(packet.payload);
  }
}

void GhostPeer::on_link_state(core::PortId, bool up) {
  if (session_ == nullptr) return;
  if (up) {
    session_->start();
  } else {
    session_->stop("mirror link down");
  }
}

void GhostPeer::session_transmit(bgp::Session&, net::Bytes wire) {
  net::Packet pkt;
  pkt.src = local_address_;
  pkt.dst = remote_address_;
  pkt.proto = net::Protocol::kBgp;
  pkt.payload = std::move(wire);
  send(core::PortId{0}, std::move(pkt));
}

void GhostPeer::session_established(bgp::Session&) {
  // Replay everything the real world told us while the mirror session was
  // still coming up.
  auto backlog = std::move(backlog_);
  backlog_.clear();
  for (const auto& update : backlog) session_->send_update(update);
}

void GhostPeer::session_down(bgp::Session&, const std::string&) {
  // The virtual router drops our routes with the session. The attributes
  // were not retained here, so a re-established mirror session starts
  // empty until the real world updates again — acceptable, because the
  // mirror session only drops when a test fails the mirror link.
}

void GhostPeer::session_update(bgp::Session&, bgp::UpdateMessage update) {
  relay_(peering_.id, update);
}

const std::string& GhostPeer::session_log_name() const {
  return log_component("ghost");
}

// --- RouteFlowController -----------------------------------------------------

void RouteFlowController::bind_speaker(speaker::ClusterBgpSpeaker& speaker) {
  speaker_ = &speaker;
  speaker.set_listener(this);
}

void RouteFlowController::finalize() {
  if (finalized_ || speaker_ == nullptr) return;
  finalized_ = true;

  mirror_attrs_ = std::make_shared<bgp::AttrRegistry>();
  mirror_ = std::make_unique<net::Network>(loop(), logger(), rng());
  net::AddressAllocator alloc;
  const net::LinkParams mirror_link{core::Duration::micros(100), 0, 0.0};

  // One virtual BGP router per member switch.
  for (const auto& sw : graph_.all_switches()) {
    bgp::RouterConfig rc;
    rc.asn = sw.owner_as;
    rc.router_id = alloc.router_id(sw.owner_as);
    rc.timers = config_.timers;
    rc.attr_registry = mirror_attrs_;
    std::string vname = "v";
    vname += sw.owner_as.to_string();
    auto& vr = mirror_->add<bgp::BgpRouter>(vname, rc);
    vrouters_[sw.dpid] = &vr;
  }

  // Mirror the intra-cluster links (full-transit peerings, as RouteFlow's
  // virtual routers simply run the routing protocol).
  std::set<std::pair<sdn::Dpid, sdn::Dpid>> wired;
  for (const auto& sw : graph_.all_switches()) {
    for (const auto& adj : graph_.neighbors(sw.dpid, /*include_down=*/true)) {
      const auto key = std::minmax(sw.dpid, adj.peer);
      if (!wired.insert({key.first, key.second}).second) continue;
      bgp::BgpRouter& a = *vrouters_.at(sw.dpid);
      bgp::BgpRouter& b = *vrouters_.at(adj.peer);
      const auto vlink = mirror_->connect(a.id(), b.id(), mirror_link);
      const auto& l = mirror_->link(vlink);
      const auto p2p = alloc.next_p2p();
      bgp::PeerConfig pa;
      pa.local_address = p2p.left;
      pa.remote_address = p2p.right;
      pa.expected_peer_as = b.asn();
      a.add_peer(l.a.port, pa);
      bgp::PeerConfig pb;
      pb.local_address = p2p.right;
      pb.remote_address = p2p.left;
      pb.expected_peer_as = a.asn();
      b.add_peer(l.b.port, pb);

      // Virtual routes learned over this mirror link translate to the real
      // port towards the same neighbor.
      action_by_vsession_[a.session_on(l.a.port)->id().value()] =
          sdn::FlowAction::output(adj.local_port);
      for (const auto& back : graph_.neighbors(adj.peer, true)) {
        if (back.peer == sw.dpid) {
          action_by_vsession_[b.session_on(l.b.port)->id().value()] =
              sdn::FlowAction::output(back.local_port);
          break;
        }
      }
      vlink_by_port_[{sw.dpid, adj.local_port.value()}] = vlink;
      for (const auto& back : graph_.neighbors(adj.peer, true)) {
        if (back.peer == sw.dpid) {
          vlink_by_port_[{adj.peer, back.local_port.value()}] = vlink;
        }
      }
    }
  }

  // One ghost peer per real border peering.
  for (const auto* peering : speaker_->peerings()) {
    std::string gname = "g";
    gname += std::to_string(peering->id);
    auto& ghost = mirror_->add<GhostPeer>(
        gname, *peering, config_.timers,
        [this](speaker::PeeringId id, const bgp::UpdateMessage& update) {
          relay_out(id, update);
        });
    bgp::BgpRouter& vr = *vrouters_.at(peering->border_dpid);
    const auto vlink = mirror_->connect(ghost.id(), vr.id(), mirror_link);
    const auto& l = mirror_->link(vlink);
    const auto p2p = alloc.next_p2p();
    ghost.configure_session(p2p.left, p2p.right);
    bgp::PeerConfig pc;
    pc.local_address = p2p.right;
    pc.remote_address = p2p.left;
    pc.expected_peer_as = peering->expected_peer_as;
    vr.add_peer(l.b.port, pc);
    ghosts_[peering->id] = &ghost;
    action_by_vsession_[vr.session_on(l.b.port)->id().value()] =
        sdn::FlowAction::output(peering->switch_external_port);
  }
}

void RouteFlowController::start() {
  if (mirror_ != nullptr) mirror_->start_all();
  // Periodic Loc-RIB -> flow-table synchronization (the RouteFlow "RIB to
  // flows" daemon).
  const auto tick = [this](const auto& self) -> void {
    loop().schedule(kSyncInterval, [this, self] {
      sync_flows();
      self(self);
    });
  };
  tick(tick);
}

void RouteFlowController::originate(sdn::Dpid origin, const net::Prefix& prefix,
                                    std::optional<core::PortId> host_port) {
  origins_[prefix] = {origin, host_port};
  if (const auto it = vrouters_.find(origin); it != vrouters_.end()) {
    it->second->originate(prefix);
  }
}

void RouteFlowController::withdraw_origin(const net::Prefix& prefix) {
  const auto it = origins_.find(prefix);
  if (it == origins_.end()) return;
  if (const auto vr = vrouters_.find(it->second.first); vr != vrouters_.end()) {
    vr->second->withdraw_origin(prefix);
  }
  origins_.erase(it);
}

void RouteFlowController::on_peer_established(const speaker::Peering& peering) {
  // The speaker's Adj-RIB-Out was cleared; replaying is handled naturally:
  // the ghost's virtual session is still up and the next sync/update cycle
  // re-announces. Proactively relay the virtual router's current best
  // routes by nudging the ghost: nothing to do — relay_out caches below.
  (void)peering;
}

void RouteFlowController::on_peer_down(const speaker::Peering& peering,
                                       const std::string&) {
  const auto it = ghosts_.find(peering.id);
  if (it != ghosts_.end()) it->second->flush_all();
}

void RouteFlowController::on_route_update(const speaker::Peering& peering,
                                          const bgp::UpdateMessage& update) {
  ++rf_counters_.relayed_in;
  const auto it = ghosts_.find(peering.id);
  if (it != ghosts_.end()) it->second->inject(update);
}

void RouteFlowController::relay_out(speaker::PeeringId peering,
                                    const bgp::UpdateMessage& update) {
  if (speaker_ == nullptr) return;
  const speaker::Peering* info = speaker_->peering(peering);
  if (info == nullptr) return;
  ++rf_counters_.relayed_out;
  for (const auto& prefix : update.withdrawn) {
    speaker_->withdraw(peering, prefix);
  }
  for (const auto& prefix : update.nlri) {
    bgp::PathAttributes attrs = update.attributes;
    // Announcing a path through the receiver itself would loop; withdraw
    // instead (the receiver-side check would reject it anyway).
    if (info->expected_peer_as.value() != 0 &&
        attrs.as_path.contains(info->expected_peer_as)) {
      speaker_->withdraw(peering, prefix);
      continue;
    }
    attrs.next_hop = info->local_address;
    attrs.local_pref.reset();
    speaker_->announce(peering, prefix, attrs);
  }
}

void RouteFlowController::on_switch_connected(const sdn::SwitchChannel&) {}

void RouteFlowController::on_port_status(const sdn::SwitchChannel& channel,
                                         const sdn::OfPortStatus& status) {
  if (graph_.set_port_state(channel.dpid, status.port, status.up)) {
    // Mirror the physical change into the virtual network; the virtual
    // BGP sessions react exactly like the legacy protocol would.
    const auto it = vlink_by_port_.find({channel.dpid, status.port.value()});
    if (it != vlink_by_port_.end() && mirror_ != nullptr) {
      mirror_->set_link_up(it->second, status.up);
    }
    return;
  }
  if (speaker_ == nullptr) return;
  for (const auto* peering : speaker_->peerings()) {
    if (peering->border_dpid != channel.dpid ||
        peering->switch_external_port != status.port) {
      continue;
    }
    if (!status.up) speaker_->reset_peering(peering->id, "border port down");
    return;
  }
}

void RouteFlowController::sync_flows() {
  ++rf_counters_.sync_passes;
  const std::uint64_t adds_before = rf_counters_.flow_adds;
  const std::uint64_t deletes_before = rf_counters_.flow_deletes;
  for (const auto& [dpid, vr] : vrouters_) {
    const auto gen = vr->loc_rib().generation();
    if (synced_generation_[dpid] == gen) continue;
    synced_generation_[dpid] = gen;

    // Desired flows for this switch from the virtual Loc-RIB.
    std::map<net::Prefix, sdn::FlowAction> desired;
    vr->loc_rib().for_each([&](const bgp::Route& route) {
      const net::Prefix prefix = route.prefix;
      if (route.is_local()) {
        const auto it = origins_.find(prefix);
        if (it != origins_.end() && it->second.second) {
          desired[prefix] = sdn::FlowAction::output(*it->second.second);
        } else {
          desired[prefix] = sdn::FlowAction::drop();
        }
      } else {
        const auto it = action_by_vsession_.find(route.learned_from.value());
        if (it != action_by_vsession_.end()) desired[prefix] = it->second;
      }
    });

    // Delta compilation against the installed mirror: unchanged prefixes
    // emit zero FlowMods.
    const SwitchFlowDelta delta = diff_switch_flows(desired, dpid, installed_);
    for (const auto& [prefix, action] : delta.upserts) {
      if (!is_connected(dpid)) continue;
      sdn::OfFlowMod mod;
      mod.match.dst = prefix;
      mod.priority = kDataRulePriority;
      mod.action = action;
      send_flow_mod(dpid, mod);
      installed_[prefix][dpid] = action;
      ++rf_counters_.flow_adds;
    }
    for (const auto& prefix : delta.removals) {
      sdn::OfFlowMod mod;
      mod.command = sdn::FlowModCommand::kDelete;
      mod.match.dst = prefix;
      mod.priority = kDataRulePriority;
      send_flow_mod(dpid, mod);
      installed_[prefix].erase(dpid);
      ++rf_counters_.flow_deletes;
    }
    for (auto it = installed_.begin(); it != installed_.end();) {
      it = it->second.empty() ? installed_.erase(it) : std::next(it);
    }
  }
  const auto adds =
      static_cast<std::int64_t>(rf_counters_.flow_adds - adds_before);
  const auto dels =
      static_cast<std::int64_t>(rf_counters_.flow_deletes - deletes_before);
  auto& tel = telemetry();
  auto& metrics = tel.metrics();
  metrics.counter("ctrl.routeflow.sync_passes").inc();
  if (adds > 0) metrics.counter("ctrl.routeflow.flow_adds").inc(adds);
  if (dels > 0) metrics.counter("ctrl.routeflow.flow_deletes").inc(dels);
  if (tel.tracing() && (adds > 0 || dels > 0)) {
    auto span = telemetry::TraceSpan::instant(loop().now(), "ctrl", "rf_sync",
                                              "rf." + name());
    span.arg("adds", adds).arg("dels", dels);
    tel.emit(span);
  }
}

const bgp::BgpRouter* RouteFlowController::virtual_router(sdn::Dpid dpid) const {
  const auto it = vrouters_.find(dpid);
  return it == vrouters_.end() ? nullptr : it->second;
}

}  // namespace bgpsdn::controller
