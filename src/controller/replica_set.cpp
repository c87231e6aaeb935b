#include "controller/replica_set.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "telemetry/trace.hpp"

namespace bgpsdn::controller {

namespace {
constexpr std::uint32_t kMaxBackoffMult = 64;
/// Leader lease renewal period.
constexpr core::Duration kHeartbeat = core::Duration::millis(50);
/// One-way replication/election message latency (intra-node channel).
constexpr core::Duration kReplicationDelay = core::Duration::micros(200);
/// Initial retransmit backoff; doubles per retry up to kMaxBackoffMult.
constexpr core::Duration kRetryBackoff = core::Duration::millis(20);
/// Full-snapshot anti-entropy period.
constexpr core::Duration kAntiEntropy = core::Duration::seconds(1);
/// Ack gap (in deltas) beyond which anti-entropy snapshots a laggard.
constexpr std::size_t kSnapshotGap = 64;
}  // namespace

ControllerReplicaSet::ControllerReplicaSet(core::EventLoop& loop,
                                           core::Logger& logger,
                                           telemetry::Telemetry& telemetry,
                                           IdrController& controller,
                                           speaker::ClusterBgpSpeaker& speaker,
                                           ReplicaSetConfig config)
    : loop_{loop},
      logger_{logger},
      telemetry_{telemetry},
      controller_{controller},
      speaker_{speaker},
      config_{config},
      rng_{config.seed} {
  if (config_.replicas < 2) {
    throw std::invalid_argument{"ControllerReplicaSet needs >= 2 replicas"};
  }
  if (config_.election_min > config_.election_max) {
    throw std::invalid_argument{"election_min must be <= election_max"};
  }
  replicas_.resize(config_.replicas);
}

void ControllerReplicaSet::count(const char* name) {
  telemetry_.metrics().counter(name).inc();
}

template <typename... Parts>
void ControllerReplicaSet::log(const char* event, const Parts&... parts) const {
  logger_.log(loop_.now(), core::LogLevel::kInfo, "replicaset", event, parts...);
}

std::size_t ControllerReplicaSet::live_count() const {
  std::size_t live = 0;
  for (const auto& r : replicas_) {
    if (!r.crashed) ++live;
  }
  return live;
}

void ControllerReplicaSet::activate() {
  leader_ = 0;
  cluster_epoch_ = 1;
  rebind_controller();
  graph_seen_ = controller_.switch_graph().changelog_size();
  log("activate", replicas_.size(), " replicas, leader 0");
  arm_heartbeat();
  arm_anti_entropy();
  for (std::size_t i = 1; i < replicas_.size(); ++i) arm_election(i);
}

void ControllerReplicaSet::rebind_controller() {
  speaker_.set_listener(this);
  controller_.set_programming_epoch(cluster_epoch_);
  controller_.set_flow_observer(
      [this](const net::Prefix& prefix, sdn::Dpid dpid,
             const sdn::FlowAction* action) {
        if (!leader_ || degraded_) return;
        ReplicaDelta d;
        d.kind = action != nullptr ? ReplicaDelta::Kind::kFlowInstall
                                   : ReplicaDelta::Kind::kFlowRemove;
        d.prefix = prefix;
        d.dpid = dpid;
        if (action != nullptr) d.action = *action;
        append(std::move(d));
      });
}

// --- replication log --------------------------------------------------------

void ControllerReplicaSet::append(ReplicaDelta delta) {
  // Originations are externally driven (the experiment, not the leader
  // process) and unrecoverable from the speaker, so they stay journaled
  // even while leaderless: the next leader applies the suffix at takeover.
  const bool durable = delta.kind == ReplicaDelta::Kind::kOriginate ||
                       delta.kind == ReplicaDelta::Kind::kWithdrawOrigin;
  if (degraded_ || (!leader_ && !durable)) {
    ++counters_.leaderless_events_dropped;
    return;
  }
  log_.push_back(std::move(delta));
  ++counters_.deltas_appended;
  if (!leader_) return;  // journaled; fanned out after the takeover
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (i == *leader_ || replicas_[i].crashed) continue;
    send_suffix(i);
  }
}

void ControllerReplicaSet::send_suffix(std::size_t to) {
  if (!leader_ || degraded_) return;
  Replica& r = replicas_[to];
  if (r.crashed || to == *leader_) return;
  const std::size_t end = log_.size();
  if (r.acked >= end) return;
  const std::size_t batch = end - r.acked;
  if (channel_blocked(*leader_, to)) {
    arm_retry(to);
    return;
  }
  counters_.deltas_replicated += batch;
  loop_.schedule(kReplicationDelay,
                 [this, to, end] { deliver_suffix(to, end); });
  arm_retry(to);
}

void ControllerReplicaSet::deliver_suffix(std::size_t to, std::size_t end) {
  Replica& r = replicas_[to];
  if (r.crashed) return;
  while (r.applied < end) {
    apply_delta(r.shadow, log_[r.applied]);
    ++r.applied;
  }
  // Cumulative ACK back to the leader; blocked by a partition on either
  // side at send time (the leader's retransmit backoff covers the loss).
  if (!leader_ || degraded_ || channel_blocked(to, *leader_)) return;
  const std::size_t pos = r.applied;
  loop_.schedule(kReplicationDelay,
                 [this, to, pos] { deliver_ack(to, pos); });
}

void ControllerReplicaSet::deliver_ack(std::size_t from, std::size_t pos) {
  if (!leader_ || degraded_) return;
  Replica& r = replicas_[from];
  if (pos > r.acked) {
    r.acked = pos;
    r.backoff_mult = 1;
  }
}

void ControllerReplicaSet::arm_retry(std::size_t to) {
  Replica& r = replicas_[to];
  if (r.retry_armed) return;
  r.retry_armed = true;
  const core::Duration delay =
      kRetryBackoff * static_cast<std::int64_t>(r.backoff_mult);
  loop_.schedule(delay, [this, to] {
    Replica& rr = replicas_[to];
    rr.retry_armed = false;
    if (!leader_ || degraded_ || rr.crashed || to == *leader_) return;
    if (rr.acked >= log_.size()) {
      rr.backoff_mult = 1;
      return;
    }
    ++counters_.retransmits;
    rr.backoff_mult = std::min(rr.backoff_mult * 2, kMaxBackoffMult);
    send_suffix(to);
  });
}

void ControllerReplicaSet::apply_delta(IdrShadowState& shadow,
                                       const ReplicaDelta& delta) const {
  switch (delta.kind) {
    case ReplicaDelta::Kind::kRouteUpdate: {
      for (const auto& prefix : delta.update.withdrawn) {
        auto it = shadow.external_routes.find(prefix);
        if (it == shadow.external_routes.end()) continue;
        it->second.erase(delta.peering);
        if (it->second.empty()) shadow.external_routes.erase(it);
      }
      if (delta.update.nlri.empty()) break;
      const auto attrs =
          speaker_.attr_registry().intern(delta.update.attributes);
      for (const auto& prefix : delta.update.nlri) {
        shadow.external_routes[prefix][delta.peering] = attrs;
      }
      break;
    }
    case ReplicaDelta::Kind::kPeerUp:
      break;  // session state is speaker-resident; nothing to shadow
    case ReplicaDelta::Kind::kPeerDown: {
      // lint: unordered-ok(pure state mutation; nothing is emitted and the
      // per-prefix result is independent of visit order)
      for (auto it = shadow.external_routes.begin();
           it != shadow.external_routes.end();) {
        it->second.erase(delta.peering);
        it = it->second.empty() ? shadow.external_routes.erase(it)
                                : std::next(it);
      }
      break;
    }
    case ReplicaDelta::Kind::kOriginate:
      shadow.origins[delta.prefix] =
          ClusterOrigin{delta.dpid, delta.host_port};
      break;
    case ReplicaDelta::Kind::kWithdrawOrigin:
      shadow.origins.erase(delta.prefix);
      break;
    case ReplicaDelta::Kind::kFlowInstall:
      shadow.installed[delta.prefix][delta.dpid] = delta.action;
      break;
    case ReplicaDelta::Kind::kFlowRemove: {
      auto it = shadow.installed.find(delta.prefix);
      if (it == shadow.installed.end()) break;
      it->second.erase(delta.dpid);
      if (it->second.empty()) shadow.installed.erase(it);
      break;
    }
    case ReplicaDelta::Kind::kEdge:
      break;  // the SwitchGraph is node-resident config; replicated for
              // channel fidelity and takeover accounting only
  }
}

void ControllerReplicaSet::harvest_graph_deltas() {
  const auto& changelog = controller_.switch_graph().changelog();
  while (graph_seen_ < changelog.size()) {
    const EdgeDelta& e = changelog[graph_seen_];
    ++graph_seen_;
    ReplicaDelta d;
    d.kind = ReplicaDelta::Kind::kEdge;
    d.dpid = e.from;
    d.dpid2 = e.to;
    d.edge_added = e.kind == EdgeDelta::Kind::kAdded;
    append(std::move(d));
  }
}

// --- heartbeats & anti-entropy ----------------------------------------------

void ControllerReplicaSet::arm_heartbeat() {
  const std::uint64_t gen = ++hb_gen_;
  loop_.schedule(kHeartbeat, [this, gen] { heartbeat_tick(gen); });
}

void ControllerReplicaSet::heartbeat_tick(std::uint64_t gen) {
  if (gen != hb_gen_) return;
  if (!leader_ || degraded_) return;
  harvest_graph_deltas();
  const std::size_t l = *leader_;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (i == l || replicas_[i].crashed) continue;
    if (channel_blocked(l, i)) continue;
    ++counters_.heartbeats_sent;
    const std::uint64_t term = replicas_[l].term;
    loop_.schedule(kReplicationDelay, [this, i, term] {
      Replica& r = replicas_[i];
      if (r.crashed) return;
      r.last_leader_contact = loop_.now();
      if (term >= r.term) {
        r.term = std::max(r.term, term);
        arm_election(i);  // lease renewed: push the timeout out again
      }
    });
    if (replicas_[i].acked < log_.size()) send_suffix(i);
  }
  // Re-arm from the same generation so a leadership change (which bumps
  // hb_gen_) silently retires this chain.
  loop_.schedule(kHeartbeat, [this, gen] { heartbeat_tick(gen); });
}

void ControllerReplicaSet::arm_anti_entropy() {
  const std::uint64_t gen = ++ae_gen_;
  loop_.schedule(kAntiEntropy, [this, gen] { anti_entropy_tick(gen); });
}

void ControllerReplicaSet::anti_entropy_tick(std::uint64_t gen) {
  if (gen != ae_gen_) return;
  if (leader_ && !degraded_) {
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (i == *leader_ || replicas_[i].crashed) continue;
      const Replica& r = replicas_[i];
      const std::size_t gap = log_.size() - std::min(r.acked, log_.size());
      if (r.needs_snapshot || gap >= kSnapshotGap) send_snapshot(i);
    }
  }
  loop_.schedule(kAntiEntropy, [this, gen] { anti_entropy_tick(gen); });
}

void ControllerReplicaSet::send_snapshot(std::size_t to) {
  if (!leader_ || degraded_) return;
  if (channel_blocked(*leader_, to)) return;
  ++counters_.snapshots_sent;
  const std::size_t end = log_.size();
  loop_.schedule(
      kReplicationDelay,
      [this, to, end, snap = controller_.export_shadow()]() mutable {
        Replica& r = replicas_[to];
        if (r.crashed) return;
        r.shadow = std::move(snap);
        r.applied = std::max(r.applied, end);
        r.needs_snapshot = false;
        if (!leader_ || degraded_ || channel_blocked(to, *leader_)) return;
        const std::size_t pos = r.applied;
        loop_.schedule(kReplicationDelay,
                       [this, to, pos] { deliver_ack(to, pos); });
      });
}

// --- election ---------------------------------------------------------------

void ControllerReplicaSet::arm_election(std::size_t id) {
  Replica& r = replicas_[id];
  const std::uint64_t gen = ++r.election_gen;
  const core::Duration timeout =
      rng_.uniform_duration(config_.election_min, config_.election_max);
  loop_.schedule(timeout, [this, id, gen] { on_election_timeout(id, gen); });
}

void ControllerReplicaSet::on_election_timeout(std::size_t id,
                                               std::uint64_t gen) {
  Replica& r = replicas_[id];
  if (gen != r.election_gen) return;
  if (r.crashed || degraded_) return;
  if (leader_ == id) return;
  // Leader lease, pre-vote style: a replica that heard a heartbeat within
  // the minimum election timeout defers its candidacy. This stops a healed
  // rejoiner — whose term was inflated by futile candidacies during its
  // partition — from deposing a perfectly healthy leader.
  if (loop_.now() - r.last_leader_contact < config_.election_min) {
    arm_election(id);
    return;
  }
  start_candidacy(id);
}

void ControllerReplicaSet::start_candidacy(std::size_t id) {
  Replica& r = replicas_[id];
  r.term += 1;
  r.voted_term = r.term;  // votes for itself
  r.votes = 1;
  r.candidacy_term = r.term;
  const std::uint64_t cg = ++r.candidacy_gen;
  log("candidacy", "replica ", id, " term ", r.term);
  if (static_cast<std::size_t>(r.votes) >= quorum()) {
    become_leader(id);
    return;
  }
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (i == id || replicas_[i].crashed) continue;
    if (channel_blocked(id, i)) continue;
    const std::uint64_t term = r.candidacy_term;
    loop_.schedule(kReplicationDelay, [this, id, i, term, cg] {
      deliver_vote_request(id, i, term, cg);
    });
  }
  // Collection deadline: a candidacy that cannot assemble quorum (split
  // vote, partition minority) re-arms with fresh jitter and tries again.
  loop_.schedule(config_.election_max, [this, id, cg] {
    Replica& rr = replicas_[id];
    if (rr.candidacy_gen != cg || rr.crashed || degraded_) return;
    if (leader_ == id) return;
    ++counters_.split_votes;
    arm_election(id);
  });
}

void ControllerReplicaSet::deliver_vote_request(std::size_t from,
                                                std::size_t to,
                                                std::uint64_t term,
                                                std::uint64_t candidacy_gen) {
  Replica& voter = replicas_[to];
  if (voter.crashed) return;
  const bool grant = term > voter.term && term > voter.voted_term;
  if (term > voter.term) voter.term = term;
  if (!grant) return;
  voter.voted_term = term;
  if (leader_ != to) arm_election(to);  // granted: stand down this round
  if (channel_blocked(to, from)) return;
  loop_.schedule(kReplicationDelay, [this, from, term, candidacy_gen] {
    deliver_vote_grant(from, term, candidacy_gen);
  });
}

void ControllerReplicaSet::deliver_vote_grant(std::size_t to,
                                              std::uint64_t term,
                                              std::uint64_t candidacy_gen) {
  Replica& r = replicas_[to];
  if (r.crashed || degraded_ || leader_ == to) return;
  if (r.candidacy_gen != candidacy_gen || r.candidacy_term != term) return;
  ++r.votes;
  if (static_cast<std::size_t>(r.votes) >= quorum()) become_leader(to);
}

void ControllerReplicaSet::become_leader(std::size_t id) {
  Replica& r = replicas_[id];
  ++counters_.elections;
  ++counters_.takeovers;
  if (leaderless_) {
    last_election_latency_ = loop_.now() - leaderless_since_;
    leaderless_ = false;
  } else {
    last_election_latency_ = core::Duration::zero();
  }
  // Depose a still-live old leader (partition-triggered election): its
  // process state is stale; it rejoins as an empty standby and resyncs via
  // anti-entropy once healed. Its in-flight FlowMods are epoch-fenced.
  if (leader_ && *leader_ != id && !replicas_[*leader_].crashed) {
    Replica& old = replicas_[*leader_];
    old.shadow = IdrShadowState{};
    old.applied = 0;
    old.acked = 0;
    old.needs_snapshot = true;
    arm_election(*leader_);
  }
  // Takeover replays only the unacknowledged suffix: everything this
  // replica never applied — in-flight deltas at crash time plus anything
  // journaled during the leaderless window — lands in the shadow now.
  const std::size_t suffix = log_.size() - std::min(r.applied, log_.size());
  counters_.deltas_replayed += suffix;
  for (std::size_t i = r.applied; i < log_.size(); ++i) {
    apply_delta(r.shadow, log_[i]);
    const auto kind = log_[i].kind;
    if (kind == ReplicaDelta::Kind::kFlowInstall ||
        kind == ReplicaDelta::Kind::kFlowRemove) {
      ++counters_.flow_mods_replayed;
    }
  }
  r.applied = log_.size();
  // The journal cannot carry peer transitions from the leaderless window
  // (there was no leader to append them), so the shadowed external RIBs
  // may believe in peerings that died meanwhile. The speaker is
  // authoritative for Adj-RIBs-In and survives replica crashes: drop the
  // shadowed RIBs and rebuild them from the replay below.
  r.shadow.external_routes.clear();
  leader_ = id;
  ++cluster_epoch_;
  log("takeover", "replica ", id, " epoch ", cluster_epoch_, ", replayed ",
      suffix, " deltas");
  count("ctrl.replica.takeovers");
  telemetry_.metrics()
      .histogram("ctrl.replica.election_latency_ns")
      .record(last_election_latency_.count_nanos());
  controller_.set_programming_epoch(cluster_epoch_);
  controller_.reset_for_takeover();
  controller_.adopt_shadow(std::move(r.shadow));
  r.shadow = IdrShadowState{};
  // Anti-entropy for the leaderless window: the speaker retained every
  // Adj-RIB-In, so replaying it through the listener both fills the gap in
  // the new leader's state and journals it for the surviving standbys.
  speaker_.replay_to(*this);
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (i == id || replicas_[i].crashed) continue;
    replicas_[i].needs_snapshot = true;
    arm_election(i);
  }
  arm_heartbeat();
}

// --- fault surface ----------------------------------------------------------

void ControllerReplicaSet::crash_replica(std::size_t id) {
  if (id >= replicas_.size()) {
    throw std::invalid_argument{"replica id " + std::to_string(id) +
                                " out of range (have " +
                                std::to_string(replicas_.size()) + ")"};
  }
  Replica& r = replicas_[id];
  if (r.crashed) return;
  r.crashed = true;
  r.shadow = IdrShadowState{};
  r.applied = 0;
  r.acked = 0;
  r.needs_snapshot = false;
  r.votes = 0;
  ++r.election_gen;
  ++r.candidacy_gen;
  ++counters_.replica_crashes;
  count("ctrl.replica.crashes");
  log("replica_crash", "replica ", id);
  if (live_count() == 0) {
    on_all_down();
    return;
  }
  if (leader_ == id) {
    leader_ = std::nullopt;
    leaderless_ = true;
    leaderless_since_ = loop_.now();
    ++hb_gen_;  // retire the dead leader's heartbeat chain
    // The leading process died with its state; pending recompute timers
    // fire against an empty application and no-op. Standby election
    // timeouts (already armed) drive the takeover.
    controller_.reset_for_takeover();
  }
}

void ControllerReplicaSet::restart_replica(std::size_t id) {
  if (id >= replicas_.size()) {
    throw std::invalid_argument{"replica id " + std::to_string(id) +
                                " out of range (have " +
                                std::to_string(replicas_.size()) + ")"};
  }
  Replica& r = replicas_[id];
  if (!r.crashed) return;
  r.crashed = false;
  r.shadow = IdrShadowState{};
  r.applied = 0;
  r.acked = 0;
  r.backoff_mult = 1;
  ++counters_.replica_restarts;
  count("ctrl.replica.restarts");
  log("replica_restart", "replica ", id);
  std::uint64_t max_term = 0;
  for (const auto& rep : replicas_) max_term = std::max(max_term, rep.term);
  r.term = max_term;
  if (degraded_) {
    recover_from_degraded(id);
    return;
  }
  // Rejoin as a standby: the next anti-entropy period full-syncs it.
  r.needs_snapshot = true;
  arm_election(id);
}

void ControllerReplicaSet::crash_all() {
  for (std::size_t i = 0; i < replicas_.size(); ++i) crash_replica(i);
}

void ControllerReplicaSet::restart_all() {
  for (std::size_t i = 0; i < replicas_.size(); ++i) restart_replica(i);
}

void ControllerReplicaSet::partition_replica(std::size_t id) {
  if (id >= replicas_.size()) {
    throw std::invalid_argument{"replica id " + std::to_string(id) +
                                " out of range (have " +
                                std::to_string(replicas_.size()) + ")"};
  }
  if (replicas_[id].partitioned) return;
  replicas_[id].partitioned = true;
  count("ctrl.replica.partitions");
  log("repl_partition", "replica ", id);
}

void ControllerReplicaSet::heal_replica(std::size_t id) {
  if (id >= replicas_.size()) {
    throw std::invalid_argument{"replica id " + std::to_string(id) +
                                " out of range (have " +
                                std::to_string(replicas_.size()) + ")"};
  }
  if (!replicas_[id].partitioned) return;
  replicas_[id].partitioned = false;
  log("repl_heal", "replica ", id);
  // Catch the healed replica up without waiting for new appends.
  if (leader_ && !degraded_ && !replicas_[id].crashed && leader_ != id) {
    send_suffix(id);
  }
}

void ControllerReplicaSet::on_all_down() {
  degraded_ = true;
  leader_ = std::nullopt;
  leaderless_ = false;
  ++hb_gen_;
  ++cluster_epoch_;  // degradation is a leadership change: fence the fallback
  log("degrade", "all replicas down; fallback at epoch ", cluster_epoch_);
  count("ctrl.replica.degradations");
  if (degrade_) degrade_(cluster_epoch_);
}

void ControllerReplicaSet::recover_from_degraded(std::size_t id) {
  degraded_ = false;
  leader_ = id;
  leaderless_ = false;
  ++cluster_epoch_;
  ++counters_.elections;  // an electorate of one
  last_election_latency_ = core::Duration::zero();
  log("recover", "replica ", id, " leads at epoch ", cluster_epoch_);
  count("ctrl.replica.recoveries");
  // The experiment runs the legacy restart path: fallback stands down, the
  // controller restarts, rebinds the speaker (stealing the listener slot)
  // and resyncs from replayed originations + the speaker's Adj-RIBs-In.
  if (recover_) recover_(cluster_epoch_);
  // Re-interpose on the speaker and restamp the programming epoch.
  rebind_controller();
  graph_seen_ = controller_.switch_graph().changelog_size();
  arm_heartbeat();
}

// --- experiment integration -------------------------------------------------

void ControllerReplicaSet::record_originate(sdn::Dpid dpid,
                                            const net::Prefix& prefix,
                                            std::optional<core::PortId> host_port) {
  ReplicaDelta d;
  d.kind = ReplicaDelta::Kind::kOriginate;
  d.prefix = prefix;
  d.dpid = dpid;
  d.host_port = host_port;
  append(std::move(d));
}

void ControllerReplicaSet::record_withdraw_origin(const net::Prefix& prefix) {
  ReplicaDelta d;
  d.kind = ReplicaDelta::Kind::kWithdrawOrigin;
  d.prefix = prefix;
  append(std::move(d));
}

void ControllerReplicaSet::on_peer_established(const speaker::Peering& peering) {
  ReplicaDelta d;
  d.kind = ReplicaDelta::Kind::kPeerUp;
  d.peering = peering.id;
  append(std::move(d));
  if (leader_ && !degraded_) controller_.on_peer_established(peering);
}

void ControllerReplicaSet::on_peer_down(const speaker::Peering& peering,
                                        const std::string& reason) {
  ReplicaDelta d;
  d.kind = ReplicaDelta::Kind::kPeerDown;
  d.peering = peering.id;
  append(std::move(d));
  if (leader_ && !degraded_) controller_.on_peer_down(peering, reason);
}

void ControllerReplicaSet::on_route_update(const speaker::Peering& peering,
                                           const bgp::UpdateMessage& update) {
  ReplicaDelta d;
  d.kind = ReplicaDelta::Kind::kRouteUpdate;
  d.peering = peering.id;
  d.update = update;
  append(std::move(d));
  if (leader_ && !degraded_) controller_.on_route_update(peering, update);
}

}  // namespace bgpsdn::controller
