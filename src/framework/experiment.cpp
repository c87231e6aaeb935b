#include "framework/experiment.hpp"

#include <stdexcept>

#include "controller/route_compiler.hpp"

namespace bgpsdn::framework {

namespace {
/// Private AS number of the monitoring collector.
constexpr std::uint32_t kCollectorAs = 64512;
/// Control and relay links are short local wires.
const net::LinkParams kControlLink{core::Duration::micros(100), 0, 0.0};
}  // namespace

Experiment::Experiment(const topology::TopologySpec& spec,
                       std::set<core::AsNumber> sdn_members,
                       ExperimentConfig config)
    : spec_{spec},
      members_{std::move(sdn_members)},
      config_{config},
      rng_{config.seed},
      net_{loop_, log_, rng_} {
  spec_.validate();
  if (config_.controller_replicas == 0 || config_.controller_replicas > 16) {
    throw std::invalid_argument{"controller_replicas must be in [1, 16]"};
  }
  for (const auto as : members_) {
    if (!spec_.has_as(as)) {
      throw std::invalid_argument{"SDN member " + as.to_string() +
                                  " not in topology"};
    }
  }
  // The convergence detector keys on DEBUG records (update_tx/update_rx),
  // so any higher minimum level would change measured results.
  log_.set_min_level(core::LogLevel::kDebug);
  log_.set_retain(config_.retain_logs);
  build();
  detector_ = &attach_monitor<ConvergenceDetector>();
}

net::LinkParams Experiment::link_params(const topology::LinkSpec& link) const {
  net::LinkParams lp = config_.default_link;
  if (link.delay) lp.delay = *link.delay;
  return lp;
}

void Experiment::build() {
  // One attribute store for the whole simulation: every router, the
  // speaker and the controller intern into it, and every RIB stores 4-byte
  // indices into it, so a distinct bundle pays one handle entry
  // network-wide. Its pool dies with the experiment.
  attr_registry_ = std::make_shared<bgp::AttrRegistry>();

  // Nodes first: routers for legacy ASes, switches for members.
  for (const auto as : spec_.ases) {
    if (members_.count(as) > 0) {
      auto& sw = net_.add<sdn::SdnSwitch>(as.to_string(), as);
      switches_[as] = &sw;
    } else {
      bgp::RouterConfig rc;
      rc.asn = as;
      rc.router_id = alloc_.router_id(as);
      rc.timers = config_.timers;
      rc.damping = config_.damping;
      rc.attr_registry = attr_registry_;
      auto& r = net_.add<bgp::BgpRouter>(as.to_string(), rc);
      routers_[as] = &r;
    }
  }

  if (!members_.empty()) {
    if (config_.controller_style == ControllerStyle::kIdrCentralized) {
      controller::IdrControllerConfig cc;
      cc.recompute_delay = config_.recompute_delay;
      cc.subcluster_bridging = config_.subcluster_bridging;
      idr_ = &net_.add<controller::IdrController>("ctrl", cc);
      controller_ = idr_;
    } else {
      controller::RouteFlowConfig rf;
      rf.timers = config_.timers;
      routeflow_ = &net_.add<controller::RouteFlowController>("rfctrl", rf);
      controller_ = routeflow_;
    }
    speaker_ = &net_.add<speaker::ClusterBgpSpeaker>(
        "speaker", config_.timers, attr_registry_);
    controller_->bind_speaker(*speaker_);

    // Control links and switch-graph registration.
    for (auto& [as, sw] : switches_) {
      const auto link = net_.connect(controller_->id(), sw->id(), kControlLink);
      const auto& l = net_.link(link);
      // connect() returns ends in argument order: a=controller, b=switch.
      sw->set_controller_port(l.b.port);
      controller_->switch_graph().add_switch(sw->dpid(), as);
      control_links_.push_back(link);
    }

    if (config_.controller_replicas >= 2) {
      if (idr_ == nullptr) {
        throw std::invalid_argument{
            "controller replication requires the IDR controller style"};
      }
      controller::ReplicaSetConfig rc = config_.ha;
      rc.replicas = config_.controller_replicas;
      // A private forked stream: HA jitter draws never perturb the
      // experiment's main stream (and non-HA runs never fork at all).
      rc.seed = rng_.engine()();
      replica_set_ = std::make_unique<controller::ControllerReplicaSet>(
          loop_, log_, net_.telemetry(), *idr_, *speaker_, rc);
      replica_set_->set_degrade_hook(
          [this](std::uint32_t epoch) { degrade_to_fallback(epoch); });
      replica_set_->set_recover_hook(
          [this](std::uint32_t epoch) { recover_from_fallback(epoch); });
      replica_set_->activate();
    }
  }

  if (config_.with_collector && !routers_.empty()) {
    collector_ = &net_.add<bgp::RouteCollector>(
        "rc", net::Ipv4Addr{192, 0, 2, 1});
  }

  for (const auto& link : spec_.links) {
    const bool a_member = members_.count(link.a) > 0;
    const bool b_member = members_.count(link.b) > 0;
    if (a_member && b_member) {
      build_cluster_link(link);
    } else if (a_member || b_member) {
      build_border_link(link);
    } else {
      build_legacy_link(link);
    }
  }

  if (collector_ != nullptr) {
    for (auto& [as, r] : routers_) attach_collector(as);
  }
  if (controller_ != nullptr) controller_->finalize();
}

void Experiment::build_legacy_link(const topology::LinkSpec& link) {
  bgp::BgpRouter& a = *routers_.at(link.a);
  bgp::BgpRouter& b = *routers_.at(link.b);
  const auto id = net_.connect(a.id(), b.id(), link_params(link));
  const auto& l = net_.link(id);
  const auto p2p = alloc_.next_p2p();

  bgp::PeerConfig pa;
  pa.policy.mode = spec_.policy_mode;
  pa.policy.relationship = link.a_sees_b;
  pa.local_address = p2p.left;
  pa.remote_address = p2p.right;
  pa.expected_peer_as = link.b;
  a.add_peer(l.a.port, pa);

  bgp::PeerConfig pb;
  pb.policy.mode = spec_.policy_mode;
  pb.policy.relationship = bgp::reverse(link.a_sees_b);
  pb.local_address = p2p.right;
  pb.remote_address = p2p.left;
  pb.expected_peer_as = link.a;
  b.add_peer(l.b.port, pb);
}

void Experiment::build_cluster_link(const topology::LinkSpec& link) {
  sdn::SdnSwitch& a = *switches_.at(link.a);
  sdn::SdnSwitch& b = *switches_.at(link.b);
  const auto id = net_.connect(a.id(), b.id(), link_params(link));
  const auto& l = net_.link(id);
  controller_->switch_graph().add_link(a.dpid(), l.a.port, b.dpid(), l.b.port);
}

void Experiment::build_border_link(const topology::LinkSpec& link) {
  // Normalize: x = the legacy AS, s = the cluster member.
  const bool a_is_member = members_.count(link.a) > 0;
  const core::AsNumber x_as = a_is_member ? link.b : link.a;
  const core::AsNumber s_as = a_is_member ? link.a : link.b;
  bgp::BgpRouter& x = *routers_.at(x_as);
  sdn::SdnSwitch& s = *switches_.at(s_as);
  // Relationship of s as seen from x.
  const bgp::Relationship x_sees_s =
      a_is_member ? bgp::reverse(link.a_sees_b) : link.a_sees_b;

  const auto ext = net_.connect(x.id(), s.id(), link_params(link));
  const auto& ext_l = net_.link(ext);
  const core::PortId x_port = ext_l.a.port;
  const core::PortId s_ext_port = ext_l.b.port;
  const auto p2p = alloc_.next_p2p();

  // The legacy router peers with the cluster AS exactly as it would with a
  // plain BGP neighbor — the cluster is transparent.
  bgp::PeerConfig px;
  px.policy.mode = spec_.policy_mode;
  px.policy.relationship = x_sees_s;
  px.local_address = p2p.left;
  px.remote_address = p2p.right;
  px.expected_peer_as = s_as;
  x.add_peer(x_port, px);

  // Relay link: speaker <-> border switch, one per peering (paper, Fig. 1).
  const auto relay = net_.connect(speaker_->id(), s.id(), kControlLink);
  const auto& relay_l = net_.link(relay);
  const core::PortId speaker_port = relay_l.a.port;
  const core::PortId s_relay_port = relay_l.b.port;

  // Static relay rules: BGP control plane crosses the switch transparently.
  {
    sdn::FlowEntry in;
    in.match.in_port = s_ext_port;
    in.match.proto = net::Protocol::kBgp;
    in.priority = controller::kRelayRulePriority;
    in.action = sdn::FlowAction::output(s_relay_port);
    s.table().add(in);
    sdn::FlowEntry out;
    out.match.in_port = s_relay_port;
    out.match.proto = net::Protocol::kBgp;
    out.priority = controller::kRelayRulePriority;
    out.action = sdn::FlowAction::output(s_ext_port);
    s.table().add(out);
  }

  speaker::Peering peering;
  peering.cluster_as = s_as;
  peering.border_dpid = s.dpid();
  peering.switch_external_port = s_ext_port;
  peering.local_address = p2p.right;
  peering.remote_address = p2p.left;
  peering.expected_peer_as = x_as;
  speaker_->add_peering(speaker_port, peering);
}

void Experiment::attach_collector(core::AsNumber as) {
  bgp::BgpRouter& r = *routers_.at(as);
  const auto id = net_.connect(r.id(), collector_->id(), kControlLink);
  const auto& l = net_.link(id);
  const auto p2p = alloc_.next_p2p();

  bgp::PeerConfig pc;
  pc.policy.mode = spec_.policy_mode;
  // Treat the collector as a customer so every route is exported to it
  // under Gao-Rexford policies; it never announces anything back.
  pc.policy.relationship = bgp::Relationship::kCustomer;
  pc.local_address = p2p.left;
  pc.remote_address = p2p.right;
  pc.expected_peer_as = core::AsNumber{kCollectorAs};
  pc.mrai = core::Duration::zero();  // monitoring sees changes immediately
  r.add_peer(l.a.port, pc);

  collector_->add_peer(l.b.port, p2p.right, p2p.left);
}

net::Host& Experiment::add_host(core::AsNumber as) {
  if (started_) throw std::logic_error{"add_host after start"};
  if (hosts_.count(as) > 0) return *hosts_.at(as);
  const net::Prefix prefix = alloc_.as_prefix(as);
  const net::Ipv4Addr addr = alloc_.host_address(as, 0);
  std::string hname = "h";
  hname += as.to_string();
  auto& host = net_.add<net::Host>(hname, addr);
  hosts_[as] = &host;

  if (members_.count(as) > 0) {
    sdn::SdnSwitch& sw = *switches_.at(as);
    const auto id = net_.connect(host.id(), sw.id(), kControlLink);
    const auto& l = net_.link(id);
    controller_->originate(sw.dpid(), prefix, l.b.port);
    member_origins_[prefix] = {sw.dpid(), l.b.port};
    if (replica_set_) replica_set_->record_originate(sw.dpid(), prefix, l.b.port);
  } else {
    bgp::BgpRouter& r = *routers_.at(as);
    const auto id = net_.connect(host.id(), r.id(), kControlLink);
    const auto& l = net_.link(id);
    r.attach_host(l.b.port, prefix);
  }
  return host;
}

bool Experiment::start(core::Duration timeout) {
  started_ = true;
  net_.start_all();
  const core::TimePoint deadline = loop_.now() + timeout;
  while (loop_.now() < deadline) {
    loop_.advance_to(loop_.now() + core::Duration::seconds(1));
    bool all_up = true;
    for (const auto& [as, r] : routers_) {
      for (const auto* sess : r->sessions()) {
        all_up = all_up && sess->established();
      }
    }
    if (speaker_ != nullptr) {
      for (const auto* p : speaker_->peerings()) {
        all_up = all_up && speaker_->peering_established(p->id);
      }
    }
    if (all_up) {
      wait_converged();
      return true;
    }
  }
  return false;
}

void Experiment::announce_prefix(core::AsNumber as, const net::Prefix& prefix) {
  if (members_.count(as) > 0) {
    member_origins_[prefix] = {switches_.at(as)->dpid(), std::nullopt};
    if (controller_crashed_) {
      fallback_->originate(prefix, member_origins_.at(prefix));
    } else {
      controller_->originate(switches_.at(as)->dpid(), prefix, std::nullopt);
      if (replica_set_) {
        replica_set_->record_originate(switches_.at(as)->dpid(), prefix,
                                       std::nullopt);
      }
    }
  } else {
    routers_.at(as)->originate(prefix);
  }
}

void Experiment::withdraw_prefix(core::AsNumber as, const net::Prefix& prefix) {
  if (members_.count(as) > 0) {
    member_origins_.erase(prefix);
    if (controller_crashed_) {
      fallback_->withdraw_origin(prefix);
    } else {
      controller_->withdraw_origin(prefix);
      if (replica_set_) replica_set_->record_withdraw_origin(prefix);
    }
  } else {
    routers_.at(as)->withdraw_origin(prefix);
  }
}

core::LinkId Experiment::link_between(core::AsNumber a, core::AsNumber b) const {
  const auto get_node = [this](core::AsNumber as) {
    if (members_.count(as) > 0) return switches_.at(as)->id();
    const auto it = routers_.find(as);
    if (it == routers_.end()) {
      throw std::invalid_argument{"unknown AS " + as.to_string()};
    }
    return it->second->id();
  };
  const auto id = net_.find_link(get_node(a), get_node(b));
  if (!id.is_valid()) {
    throw std::invalid_argument{"no link " + a.to_string() + " <-> " +
                                b.to_string()};
  }
  return id;
}

void Experiment::fail_link(core::AsNumber a, core::AsNumber b) {
  net_.set_link_up(link_between(a, b), false);
}

void Experiment::restore_link(core::AsNumber a, core::AsNumber b) {
  net_.set_link_up(link_between(a, b), true);
}

void Experiment::crash_controller() {
  if (controller_ == nullptr || idr_ == nullptr) {
    throw std::logic_error{
        "controller crash-recovery requires the IDR controller style"};
  }
  if (replica_set_) {
    // Whole-controller crash under HA: every replica dies; the last one
    // triggers the degradation hook below.
    replica_set_->crash_all();
    return;
  }
  degrade_to_fallback(0);
}

void Experiment::degrade_to_fallback(std::uint32_t epoch) {
  if (controller_crashed_) return;
  controller_crashed_ = true;
  log_.log(loop_.now(), core::LogLevel::kWarn, "experiment", "controller_crash",
           "cluster degrades to distributed BGP");
  net_.telemetry().metrics().counter("framework.controller_crashes").inc();
  controller_->crash();
  // The dead process's channels go with it; switches observe the link loss,
  // flush controller-installed rules, and enter standalone mode.
  for (const auto link : control_links_) net_.set_link_up(link, false);
  if (!fallback_) {
    fallback_ = std::make_unique<controller::FallbackRouting>(
        loop_, log_, net_.telemetry(), controller_->switch_graph(), *speaker_);
  }
  // Degradation is a leadership change: fence the fallback above every dead
  // replica's programming (0 outside HA keeps legacy behaviour).
  fallback_->set_programming_epoch(epoch);
  fallback_->activate(member_origins_);
}

void Experiment::restart_controller() {
  if (replica_set_) {
    // Whole-controller restart under HA: the first restarted replica leads
    // the recovery (via the hook below); the rest rejoin as standbys.
    replica_set_->restart_all();
    return;
  }
  recover_from_fallback(0);
}

void Experiment::recover_from_fallback(std::uint32_t epoch) {
  if (!controller_crashed_) return;
  controller_crashed_ = false;
  log_.log(loop_.now(), core::LogLevel::kInfo, "experiment",
           "controller_restart", "controller resyncs from speaker RIBs");
  net_.telemetry().metrics().counter("framework.controller_restarts").inc();
  fallback_->deactivate();
  controller_->restart();
  controller_->bind_speaker(*speaker_);
  if (idr_ != nullptr) idr_->set_programming_epoch(epoch);
  // Heal the control channel; each switch re-handshakes and the controller
  // re-learns the datapath mapping.
  for (const auto link : control_links_) net_.set_link_up(link, true);
  // Resync: replay member originations, then the speaker's retained
  // Adj-RIBs-In — together these reproduce the never-crashed input set.
  for (const auto& [prefix, origin] : member_origins_) {
    controller_->originate(origin.dpid, prefix, origin.host_port);
  }
  speaker_->replay_to(*controller_);
}

void Experiment::crash_controller_replica(int replica) {
  if (replica < 0) {
    crash_controller();
    return;
  }
  if (!replica_set_) {
    if (replica == 0) {
      // The single controller is replica 0 of a degenerate replica set.
      crash_controller();
      return;
    }
    throw std::invalid_argument{"replica id " + std::to_string(replica) +
                                " out of range (controller_replicas=1)"};
  }
  replica_set_->crash_replica(static_cast<std::size_t>(replica));
}

void Experiment::restart_controller_replica(int replica) {
  if (replica < 0) {
    restart_controller();
    return;
  }
  if (!replica_set_) {
    if (replica == 0) {
      restart_controller();
      return;
    }
    throw std::invalid_argument{"replica id " + std::to_string(replica) +
                                " out of range (controller_replicas=1)"};
  }
  replica_set_->restart_replica(static_cast<std::size_t>(replica));
}

void Experiment::partition_replication(int replica) {
  if (!replica_set_ || replica < 0) {
    throw std::logic_error{
        "replication partitions require controller_replicas >= 2"};
  }
  replica_set_->partition_replica(static_cast<std::size_t>(replica));
}

void Experiment::heal_replication(int replica) {
  if (!replica_set_ || replica < 0) {
    throw std::logic_error{
        "replication partitions require controller_replicas >= 2"};
  }
  replica_set_->heal_replica(static_cast<std::size_t>(replica));
}

void Experiment::crash_speaker() {
  if (speaker_ == nullptr) {
    throw std::logic_error{"no cluster speaker in this experiment"};
  }
  if (speaker_->crashed()) return;
  log_.log(loop_.now(), core::LogLevel::kWarn, "experiment", "speaker_crash",
           "external sessions drop silently");
  net_.telemetry().metrics().counter("framework.speaker_crashes").inc();
  speaker_->crash();
}

void Experiment::restart_speaker() {
  if (speaker_ == nullptr || !speaker_->crashed()) return;
  log_.log(loop_.now(), core::LogLevel::kInfo, "experiment", "speaker_restart",
           "external sessions re-establish");
  net_.telemetry().metrics().counter("framework.speaker_restarts").inc();
  speaker_->restart();
}

void Experiment::add_link(core::AsNumber a, core::AsNumber b,
                          bgp::Relationship a_sees_b) {
  if (members_.count(a) > 0 || members_.count(b) > 0) {
    throw std::invalid_argument{
        "add_link at runtime supports legacy ASes only"};
  }
  // Reuses the build-time path: spec bookkeeping (which validates the
  // endpoints and rejects duplicates) plus the legacy link builder;
  // add_peer() starts the sessions at once on a started router.
  spec_.add_link(a, b, a_sees_b);
  build_legacy_link(spec_.links.back());
}

ConvergenceResult Experiment::wait_converged(const WaitOpts& opts) {
  WaitOpts effective = opts;
  if (effective.quiet == core::Duration::zero()) {
    effective.quiet = config_.timers.mrai * 2 + core::Duration::seconds(1);
  }
  net_.telemetry().metrics().counter("framework.wait_converged.runs").inc();
  const ConvergenceResult result = detector_->wait(effective);
  if (result.timed_out) {
    net_.telemetry().metrics().counter("framework.wait_converged.timeouts").inc();
  }
  return result;
}

core::MemStats Experiment::memory_stats() const {
  core::MemStats stats;
  for (const auto& [as, r] : routers_) r->account_memory(stats);
  if (speaker_ != nullptr) speaker_->account_memory(stats);
  for (const auto& [as, sw] : switches_) {
    stats.flow_tables += sw->table().approx_bytes();
  }
  stats.attr_pool += attr_registry_->pool_live_bytes();
  stats.attr_registry += attr_registry_->bytes();
  return stats;
}

telemetry::Json Experiment::monitors_snapshot() const {
  telemetry::Json arr = telemetry::Json::array();
  for (const auto& m : monitors_) {
    telemetry::Json entry = telemetry::Json::object();
    entry["kind"] = std::string{m->kind()};
    entry["data"] = m->snapshot();
    arr.push_back(std::move(entry));
  }
  return arr;
}

bool Experiment::all_know_prefix(const net::Prefix& prefix,
                                 bool expect_present) const {
  for (const auto& [as, r] : routers_) {
    const bool has = r->loc_rib().find(prefix) != nullptr;
    if (has != expect_present) return false;
  }
  // Members: judge by the installed forwarding state, which is common to
  // every controller style (an output or local-delivery rule for the
  // prefix; an explicit drop does not count as knowing a route). The
  // member that originates a live prefix delivers it locally: its data
  // rule outputs to the attached host, or drops when there is none, and
  // either way it knows the prefix.
  const auto origin = member_origins_.find(prefix);
  for (const auto& [as, sw] : switches_) {
    const bool delivers_locally =
        origin != member_origins_.end() && origin->second.dpid == sw->dpid();
    bool has = false;
    for (const auto& e : sw->table().entries()) {
      if (e.match.dst == prefix && e.priority == controller::kDataRulePriority &&
          (delivers_locally || e.action.type == sdn::ActionType::kOutput)) {
        has = true;
        break;
      }
    }
    if (has != expect_present) return false;
  }
  return true;
}

std::vector<core::AsNumber> Experiment::trace_route(core::AsNumber from,
                                                    net::Ipv4Addr dst) const {
  std::vector<core::AsNumber> path;
  // Map node id -> AS for hop resolution.
  std::map<core::NodeId, core::AsNumber> as_of;
  for (const auto& [as, r] : routers_) as_of[r->id()] = as;
  for (const auto& [as, sw] : switches_) as_of[sw->id()] = as;

  core::AsNumber cur = from;
  for (int hops = 0; hops < 64; ++hops) {
    path.push_back(cur);
    core::NodeId cur_node;
    std::optional<core::PortId> out;
    if (members_.count(cur) > 0) {
      sdn::SdnSwitch& sw = *switches_.at(cur);
      cur_node = sw.id();
      net::Packet probe;
      probe.dst = dst;
      probe.proto = net::Protocol::kProbe;
      // Flow tables are in_port-wildcarded for data rules; any port works.
      const auto* entry = const_cast<sdn::FlowTable&>(sw.table())
                              .lookup(core::PortId{0xffffff}, probe, false);
      if (entry == nullptr || entry->action.type != sdn::ActionType::kOutput) {
        return {};  // blackhole / drop
      }
      out = entry->action.port;
    } else {
      const bgp::BgpRouter& r = *routers_.at(cur);
      cur_node = r.id();
      out = r.fib_lookup(dst);
      if (!out) return {};
    }
    const auto egress = net_.link_at(cur_node, *out);
    if (!egress.is_valid() || !net_.link_is_up(egress)) {
      return {};  // forwarding into a downed link: unreachable right now
    }
    const auto peer = net_.peer_of(cur_node, *out);
    if (!peer.node.is_valid()) return {};
    // Arrived at a host?
    if (const auto* host = dynamic_cast<const net::Host*>(&net_.node(peer.node));
        host != nullptr) {
      return host->address() == dst ? path : std::vector<core::AsNumber>{};
    }
    const auto it = as_of.find(peer.node);
    if (it == as_of.end()) return {};  // forwarded into speaker/controller: bug
    // Loop detection.
    for (const auto seen : path) {
      if (seen == it->second) return {};
    }
    cur = it->second;
  }
  return {};
}

bgp::BgpRouter& Experiment::router(core::AsNumber as) { return *routers_.at(as); }
const bgp::BgpRouter& Experiment::router(core::AsNumber as) const {
  return *routers_.at(as);
}
sdn::SdnSwitch& Experiment::member_switch(core::AsNumber as) {
  return *switches_.at(as);
}

}  // namespace bgpsdn::framework
