#include "bgp/router.hpp"

#include <algorithm>

#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "core/random.hpp"
#include "net/network.hpp"
#include "telemetry/trace.hpp"

namespace bgpsdn::bgp {

namespace {
/// Locally-originated routes always win the decision process.
constexpr std::uint32_t kLocalRoutePref = 1000;

/// Serialized CPU cost of one received UPDATE, modelling Quagga's work: a
/// fixed part per UPDATE plus a part per route it carries.
constexpr core::Duration kProcessingPerUpdate = core::Duration::micros(500);
constexpr core::Duration kProcessingPerRoute = core::Duration::micros(50);

/// peers_ is sorted by port: the lower_bound predicate.
constexpr auto port_below = [](const auto& peer, core::PortId port) {
  return peer->port < port;
};
}  // namespace

void BgpRouter::add_peer(core::PortId port, PeerConfig peer_config) {
  SessionConfig sc;
  sc.id = allocate_session_id();
  sc.local_as = config_.asn;
  sc.local_id = config_.router_id;
  sc.local_address = peer_config.local_address;
  sc.remote_address = peer_config.remote_address;
  sc.expected_peer_as = peer_config.expected_peer_as;
  sc.timers = config_.timers;

  auto it = std::lower_bound(peers_.begin(), peers_.end(), port, port_below);
  if (it == peers_.end() || (*it)->port != port) {
    it = peers_.insert(it, std::make_unique<Peer>(port, rib_out_store_));
  }
  Peer& peer = **it;
  peer.config = std::move(peer_config);
  peer.session = std::make_unique<Session>(
      *this, SessionEnv{loop(), rng(), logger(), telemetry()}, sc);
  peers_by_session_[sc.id.value()] = &peer;
  if (started_) peer.session->start();
}

void BgpRouter::attach_host(core::PortId port, const net::Prefix& prefix) {
  host_ports_[prefix] = port;
  fib_.insert(prefix, port);
  originate(prefix);
}

void BgpRouter::originate(const net::Prefix& prefix) {
  if (!local_attrs_) {
    // Interned at the first origination, not at construction: a router
    // that originates nothing adds no bundle to the store.
    PathAttributes a;
    a.origin = Origin::kIgp;
    a.local_pref = kLocalRoutePref;
    local_attrs_ = config_.attr_registry->intern(std::move(a));
  }
  local_prefixes_.emplace(prefix, loop().now());
  logger().log(loop().now(), core::LogLevel::kInfo, session_log_name(),
               "origin_announce", prefix);
  TxBatch batch{*this};
  recompute(prefix);
}

void BgpRouter::withdraw_origin(const net::Prefix& prefix) {
  if (local_prefixes_.erase(prefix) == 0) return;
  logger().log(loop().now(), core::LogLevel::kInfo, session_log_name(),
               "origin_withdraw", prefix);
  TxBatch batch{*this};
  recompute(prefix);
}

void BgpRouter::start() {
  started_ = true;
  for (const auto& peer : peers_) peer->session->start();
}

void BgpRouter::handle_packet(core::PortId ingress, const net::Packet& packet) {
  if (packet.proto == net::Protocol::kBgp) {
    Peer* peer = peer_on(ingress);
    if (peer != nullptr) peer->session->receive(packet.payload);
    return;
  }
  forward_data(packet);
}

void BgpRouter::forward_data(const net::Packet& packet) {
  const auto hit = fib_.lookup(packet.dst);
  if (!hit) {
    ++counters_.packets_no_route;
    return;
  }
  ++counters_.packets_forwarded;
  send(*hit->second, packet);
}

void BgpRouter::on_link_state(core::PortId port, bool up) {
  Peer* peer = peer_on(port);
  if (peer == nullptr) return;
  if (up) {
    peer->session->start();
  } else {
    peer->session->stop("link down");
  }
}

// --- SessionHost ----------------------------------------------------------

void BgpRouter::session_transmit(Session& session, net::Bytes wire) {
  Peer* peer = peer_of(session);
  if (peer == nullptr) return;
  net::Packet pkt;
  pkt.src = peer->config.local_address;
  pkt.dst = peer->config.remote_address;
  pkt.proto = net::Protocol::kBgp;
  pkt.payload = std::move(wire);
  send(peer->port, std::move(pkt));
}

void BgpRouter::session_established(Session& session) {
  Peer* peer = peer_of(session);
  logger().log(loop().now(), core::LogLevel::kInfo, session_log_name(),
               "session_up", "peer ", session.peer_as());
  // Initial table transfer goes out promptly; afterwards the free-running
  // advertisement timer paces everything (without MRAI there is none).
  for (const auto& prefix : loc_rib_.prefixes()) peer->pending.insert(prefix);
  flush_peer(*peer);
  arm_mrai(*peer);
}

void BgpRouter::session_down(Session& session, const std::string& reason) {
  Peer* peer = peer_of(session);
  logger().log(loop().now(), core::LogLevel::kInfo, session_log_name(),
               "session_down", "peer ", session.peer_as(), ": ", reason);
  ++peer->epoch;
  peer->rib_out.clear();
  peer->pending.clear();
  peer->batch_dirty.clear();
  if (peer->mrai_timer.is_valid()) loop().cancel(peer->mrai_timer);
  // The reset ends the MRAI window unsampled: the next session's first
  // flush is not paced by the cancelled timer.
  peer->mrai_span_open = false;
  dampener_.clear_session(session.id());
  TxBatch batch{*this};
  for (const auto& prefix : adj_rib_in_.erase_session(session.id())) {
    recompute(prefix);
  }
}

void BgpRouter::session_update(Session& session, UpdateMessage update) {
  Peer* peer = peer_of(session);
  ++counters_.updates_rx;
  logger().log(loop().now(), core::LogLevel::kDebug, session_log_name(),
               "update_rx", "from ", session.peer_as(), ' ', update);
  const auto routes = update.nlri.size() + update.withdrawn.size();
  if (telemetry().tracing()) {
    auto span = telemetry::TraceSpan::instant(loop().now(), "bgp", "update_rx",
                                              session_log_name());
    span.arg("from", session.peer_as().to_string())
        .arg("nlri", static_cast<std::int64_t>(update.nlri.size()))
        .arg("withdrawn", static_cast<std::int64_t>(update.withdrawn.size()));
    telemetry().emit(span);
  }
  const auto cost =
      kProcessingPerUpdate + kProcessingPerRoute * static_cast<std::int64_t>(routes);
  const auto epoch = peer->epoch;
  enqueue_work(cost, [this, peer, epoch, update = std::move(update)] {
    if (peer->epoch != epoch || !peer->session->established()) return;
    process_update(*peer, update);
  });
}

void BgpRouter::init_metrics() {
  if (metrics_resolved_) return;
  metrics_resolved_ = true;
  auto& metrics = telemetry().metrics();
  decision_runs_metric_ = &metrics.counter("bgp.decision.runs");
  best_changes_metric_ = &metrics.counter("bgp.decision.best_changes");
  updates_tx_metric_ = &metrics.counter("bgp.router.updates_tx");
  decision_candidates_metric_ = &metrics.histogram("bgp.decision.candidates");
}

const std::string& BgpRouter::session_log_name() const {
  return log_component("bgp");
}

// --- update processing ------------------------------------------------------

void BgpRouter::process_update(Peer& peer, const UpdateMessage& update) {
  const auto sid = peer.session->id();
  TxBatch batch{*this};
  for (const auto& prefix : update.withdrawn) {
    if (adj_rib_in_.erase(prefix, sid)) {
      note_flap(sid, prefix, /*withdrawal=*/true);
      recompute(prefix);
    }
  }
  if (update.attributes.as_path.contains(config_.asn)) {
    // An AS-path loop rejects every NLRI of the UPDATE.
    for (const auto& prefix : update.nlri) {
      ++counters_.routes_rejected_loop;
      reject_candidate(sid, prefix);
    }
    return;
  }
  if (update.nlri.empty()) return;
  // Every NLRI carries the same bundle, so it is rewritten and interned
  // once per UPDATE.
  PathAttributes attrs = update.attributes;
  PolicyEngine::rewrite_import(peer.config.policy, attrs);
  const AttrSetRef imported = config_.attr_registry->intern(std::move(attrs));
  for (const auto& prefix : update.nlri) import_candidate(peer, prefix, imported);
}

void BgpRouter::import_candidate(Peer& peer, const net::Prefix& prefix,
                                 const AttrSetRef& attrs) {
  using Put = AdjRibIn::PutResult;
  const auto sid = peer.session->id();
  // A re-announcement of the stored bundle keeps its age (the decision
  // process prefers older routes) and does not count as a flap.
  const Put put = adj_rib_in_.put(
      prefix, {&attrs, sid, peer.session->peer_bgp_id(),
               peer.config.remote_address, loop().now()});
  // Dirty-prefix decision: an unchanged candidate set (a duplicate
  // re-announcement) cannot move the best path, so skip the decision
  // process entirely.
  if (put == Put::kUnchanged) return;
  // Attribute change or re-advertisement after a withdrawal: a flap.
  if (put == Put::kReplaced ||
      (put == Put::kAdded && dampener_.has_history(sid, prefix))) {
    note_flap(sid, prefix, /*withdrawal=*/false);
  }
  recompute(prefix);
}

void BgpRouter::reject_candidate(core::SessionId session,
                                 const net::Prefix& prefix) {
  if (adj_rib_in_.erase(prefix, session)) recompute(prefix);
}

void BgpRouter::note_flap(core::SessionId session, const net::Prefix& prefix,
                          bool withdrawal) {
  const auto verdict =
      dampener_.record_flap(session, prefix, withdrawal, loop().now());
  if (!verdict.suppressed) return;
  ++counters_.routes_suppressed;
  logger().log(loop().now(), core::LogLevel::kInfo, session_log_name(),
               "route_damped", prefix, " penalty ",
               static_cast<int>(verdict.penalty));
  // Re-evaluate once the penalty decays to the reuse threshold.
  loop().schedule(verdict.reuse_after + core::Duration::millis(1),
                  [this, prefix] {
                    TxBatch batch{*this};
                    recompute(prefix);
                  });
}

// lint: hotpath(decision process runs once per affected prefix per UPDATE;
// at internet scale it dominates the event loop)
void BgpRouter::recompute(const net::Prefix& prefix) {
  init_metrics();
  decision_runs_metric_->inc();
  // Incremental best-path selection over views of the Adj-RIB-In
  // candidates, read in place and visited in session-ascending order, then
  // the local route: ties resolve by visit order. The winning view goes
  // straight to the Loc-RIB, which compares it with the installed entry in
  // the same probe.
  RouteView best;
  std::size_t candidate_count = 0;
  const auto offer = [&](const RouteView& r) {
    ++candidate_count;
    if (best.attributes == nullptr || compare_routes(r, best) < 0) best = r;
  };
  adj_rib_in_.for_each_candidate(prefix, [&](const RouteView& r) {
    if (config_.damping.enabled &&
        dampener_.is_suppressed(r.learned_from, prefix, loop().now())) {
      return;
    }
    offer(r);
  });
  if (const auto it = local_prefixes_.find(prefix); it != local_prefixes_.end()) {
    offer({&*local_attrs_, core::SessionId::invalid(), {}, {}, it->second});
  }

  decision_candidates_metric_->record(
      static_cast<std::int64_t>(candidate_count));

  // Without a winner every peer is sent a withdrawal.
  ExportSource source;
  if (best.attributes == nullptr) {
    if (!loc_rib_.remove(prefix)) return;
    if (host_ports_.count(prefix) == 0) fib_.erase(prefix);
    logger().log(loop().now(), core::LogLevel::kInfo, session_log_name(),
                 "best_lost", prefix);
  } else {
    // `best` may read the attribute store in place, which install() can
    // grow: from here on only the returned bundle and the view's session
    // are read.
    const PathAttributes* winner = loc_rib_.install(prefix, best);
    if (winner == nullptr) return;
    const core::SessionId learned_from = best.learned_from;
    if (!learned_from.is_valid()) {
      // Delivered locally (to the attached host if any).
      if (const auto it = host_ports_.find(prefix); it != host_ports_.end()) {
        fib_.insert(prefix, it->second);
      } else {
        fib_.erase(prefix);
      }
    } else {
      fib_.insert(prefix, peers_by_session_.at(learned_from.value())->port);
    }
    logger().log(loop().now(), core::LogLevel::kInfo, session_log_name(),
                 "best_changed", prefix, " via [", winner->as_path, ']');
    // The winner and its learned relationship are resolved once for the
    // whole fan-out; the Loc-RIB keeps the bundle alive.
    source = export_source(winner, learned_from);
  }

  // Every path that reaches here changed the winner.
  ++counters_.best_changes;
  best_changes_metric_->inc();
  if (telemetry().tracing()) {
    auto span = telemetry::TraceSpan::instant(loop().now(), "bgp", "decision",
                                              session_log_name());
    span.arg("prefix", prefix.to_string())
        .arg("candidates", static_cast<std::int64_t>(candidate_count))
        .arg("best_changed", true);
    telemetry().emit(span);
  }

  for (const auto& peer : peers_) schedule_peer_update(*peer, prefix, source);
}

// --- advertisement / MRAI ---------------------------------------------------

BgpRouter::ExportSource BgpRouter::export_source(
    const PathAttributes* winner, core::SessionId learned_from) const {
  ExportSource source;
  source.winner = winner;
  if (winner != nullptr && learned_from.is_valid()) {
    source.learned_rel = peers_by_session_.at(learned_from.value())
                             ->config.policy.relationship;
  }
  return source;
}

// lint: hotpath(the export verdict runs for every peer on every best-path
// change, ahead of any attribute build)
bool BgpRouter::export_verdict(const Peer& peer,
                               const ExportSource& source) const {
  return source.winner != nullptr &&
         PolicyEngine::export_allowed(peer.config.policy, source.learned_rel);
}

AttrSetRef BgpRouter::build_export(const Peer& peer,
                                   const PathAttributes& winner) const {
  // Copy-out / edit / re-intern: the canonical bundle is immutable.
  PathAttributes attrs = winner;
  PolicyEngine::rewrite_export(attrs);
  attrs.as_path = attrs.as_path.prepend(config_.asn);
  attrs.next_hop = peer.config.local_address;
  return config_.attr_registry->intern(std::move(attrs));
}

core::Duration BgpRouter::peer_mrai(const Peer& peer) const {
  return peer.config.mrai.value_or(config_.timers.mrai);
}

bool BgpRouter::gated(const Peer& peer, bool announce) const {
  return announce && peer_mrai(peer) > core::Duration::zero();
}

// lint: hotpath(export fan-out: runs for every peer on every best-path
// change, and most verdicts are withdrawals with nothing to send)
void BgpRouter::schedule_peer_update(Peer& peer, const net::Prefix& prefix,
                                     const ExportSource& source) {
  if (!peer.session->established()) return;
  const bool announce = export_verdict(peer, source);
  if (gated(peer, announce)) {
    // The free-running advertisement timer (armed at session
    // establishment) will flush this at its next tick.
    peer.pending.insert(prefix);
    return;
  }
  // Ungated (withdrawal, or MRAI disabled): leave any MRAI-gated
  // announcements queued and defer the send to the batch flush, where
  // same-bundle prefixes pack into one multi-NLRI UPDATE. A withdrawal of
  // something never advertised would find nothing to send there, so it
  // needs no entry.
  peer.pending.erase(prefix);
  if (announce || peer.rib_out.advertised(prefix) != nullptr) {
    peer.batch_dirty.insert(prefix);
  }
}

// lint: hotpath(flush-buffer coalescing runs once per MRAI tick per peer;
// a convergence burst funnels every dirty prefix through here)
void BgpRouter::flush_peer(Peer& peer) {
  if (!peer.session->established()) {
    peer.pending.clear();
    return;
  }
  if (peer.mrai_span_open) {
    // Close the MRAI window opened at arm_mrai: this flush is the gated
    // advertisement the timer was pacing.
    peer.mrai_span_open = false;
    auto& tel = telemetry();
    const auto now = loop().now();
    tel.metrics()
        .histogram("bgp.mrai.wait_ns")
        .record((now - peer.mrai_armed_at).count_nanos());
    if (tel.tracing()) {
      auto span = telemetry::TraceSpan{peer.mrai_armed_at, now, "bgp",
                                       "mrai_wait", session_log_name()};
      span.arg("peer", peer.session->peer_as().to_string())
          .arg("pending", static_cast<std::int64_t>(peer.pending.size()));
      tel.emit(span);
    }
  }
  FlushPack pack{peer.pending.size()};
  for (const auto& prefix : peer.pending) {
    pack_update(peer, prefix, flush_verdict(peer, prefix, pack), pack);
  }
  peer.pending.clear();
  emit_updates(peer, pack);
}

// lint: hotpath(runs for every prefix either flush visits; a run of
// prefixes with one winner key returns at the first compare)
bool BgpRouter::flush_verdict(const Peer& peer, const net::Prefix& prefix,
                              FlushPack& pack) const {
  const LocRib::WinnerKey key = loc_rib_.winner(prefix);
  if (key.attrs == pack.key.attrs && key.learned_from == pack.key.learned_from) {
    return pack.announce;
  }
  pack.key = key;
  pack.announce =
      export_verdict(peer, export_source(key.attrs, key.learned_from));
  pack.has_built = false;
  pack.group = FlushPack::kNoGroup;
  return pack.announce;
}

// lint: hotpath(runs for every prefix either flush sends; a convergence
// burst funnels every dirty prefix through here)
void BgpRouter::pack_update(Peer& peer, const net::Prefix& prefix,
                            bool announce, FlushPack& pack) {
  if (!announce) {
    // lint: alloc-ok(reserved by FlushPack for the whole dirty set)
    if (peer.rib_out.withdraw(prefix)) pack.withdrawals.push_back(prefix);
    return;
  }
  if (!pack.has_built) {
    pack.built = build_export(peer, *pack.key.attrs);
    pack.has_built = true;
  }
  if (!peer.rib_out.advertise(prefix, pack.built)) return;  // unchanged
  if (pack.group == FlushPack::kNoGroup) {
    // Interned bundles: the group lookup is a pointer compare.
    const auto it = std::find_if(
        pack.groups.begin(), pack.groups.end(),
        [&](const auto& g) { return g.first.same_set(pack.built); });
    pack.group = static_cast<std::size_t>(it - pack.groups.begin());
    if (it == pack.groups.end()) {
      // lint: alloc-ok(reserved by FlushPack for the whole dirty set)
      pack.groups.push_back({pack.built, {}});
    }
  }
  // lint: alloc-ok(grows the per-bundle NLRI list; amortized across the
  // burst and bounded by the dirty set)
  pack.groups[pack.group].second.push_back(prefix);
}

// lint: hotpath(every UPDATE leaving the router is packed here; TX volume
// scales with topology size times churn)
void BgpRouter::emit_updates(Peer& peer, FlushPack& pack) {
  const auto transmit = [&](const UpdateMessage& m) {
    ++counters_.updates_tx;
    init_metrics();
    updates_tx_metric_->inc();
    logger().log(loop().now(), core::LogLevel::kDebug, session_log_name(),
                 "update_tx", "to ", peer.session->peer_as(), ' ', m);
    if (telemetry().tracing()) {
      auto span = telemetry::TraceSpan::instant(loop().now(), "bgp",
                                                "update_tx", session_log_name());
      span.arg("to", peer.session->peer_as().to_string())
          .arg("nlri", static_cast<std::int64_t>(m.nlri.size()))
          .arg("withdrawn", static_cast<std::int64_t>(m.withdrawn.size()));
      telemetry().emit(span);
    }
    peer.session->send_update(m);
  };
  // One message carries the flush's UPDATEs in turn, one per group; the
  // withdrawals ride in the first.
  UpdateMessage m;
  m.withdrawn = std::move(pack.withdrawals);
  if (pack.groups.empty()) {
    if (!m.withdrawn.empty()) transmit(m);
    return;
  }
  for (auto& [attrs, nlri] : pack.groups) {
    m.attributes = *attrs;
    m.nlri = std::move(nlri);
    transmit(m);
    m.withdrawn.clear();
  }
}

// lint: hotpath(batch-mode coalescing: one pass over every dirty prefix of
// every peer at each batch boundary)
void BgpRouter::flush_tx_batches() {
  // peers_ is port-sorted, so the batch's UPDATEs leave in port order.
  for (const auto& peer : peers_) {
    if (peer->batch_dirty.empty()) continue;
    if (!peer->session->established()) {
      peer->batch_dirty.clear();
      continue;
    }
    // Export state is re-evaluated now, against the final Loc-RIB of the
    // burst — intermediate states within one batch never hit the wire
    // (exactly the coalescing the MRAI flush path always did).
    FlushPack pack{peer->batch_dirty.size()};
    for (const auto& prefix : peer->batch_dirty) {
      const bool announce = flush_verdict(*peer, prefix, pack);
      if (gated(*peer, announce)) {
        // The export flipped announce/withdraw since it was queued and is
        // now subject to MRAI: it waits for the next advertisement tick.
        peer->pending.insert(prefix);
        continue;
      }
      pack_update(*peer, prefix, announce, pack);
    }
    peer->batch_dirty.clear();
    emit_updates(*peer, pack);
  }
}

void BgpRouter::arm_mrai(Peer& peer) {
  const auto mrai = peer_mrai(peer);
  if (mrai <= core::Duration::zero()) return;
  peer.mrai_armed_at = loop().now();
  peer.mrai_span_open = true;
  const auto delay = rng().jittered(mrai, kTimerJitterLow, kTimerJitterHigh);
  const auto epoch = peer.epoch;
  Peer* p = &peer;
  // Free-running tick: flush pending (if any) and always re-arm.
  peer.mrai_timer = loop().schedule(delay, [this, p, epoch] {
    if (p->epoch != epoch || !p->session->established()) return;
    if (!p->pending.empty()) flush_peer(*p);
    arm_mrai(*p);
  });
}

// --- misc -------------------------------------------------------------------

void BgpRouter::enqueue_work(core::Duration cost, core::SmallFunc fn) {
  const auto now = loop().now();
  if (busy_until_ < now) busy_until_ = now;
  busy_until_ += cost;
  loop().schedule_at(busy_until_, std::move(fn));
}

const BgpRouter::Peer* BgpRouter::peer_on(core::PortId port) const {
  const auto it = std::lower_bound(peers_.begin(), peers_.end(), port, port_below);
  return it != peers_.end() && (*it)->port == port ? it->get() : nullptr;
}

BgpRouter::Peer* BgpRouter::peer_of(const Session& session) {
  const auto it = peers_by_session_.find(session.id().value());
  return it == peers_by_session_.end() ? nullptr : it->second;
}

const Session* BgpRouter::session_on(core::PortId port) const {
  const Peer* peer = peer_on(port);
  return peer == nullptr ? nullptr : peer->session.get();
}

std::vector<const Session*> BgpRouter::sessions() const {
  std::vector<const Session*> out;
  out.reserve(peers_.size());
  for (const auto& peer : peers_) out.push_back(peer->session.get());
  return out;
}

std::optional<core::PortId> BgpRouter::fib_lookup(net::Ipv4Addr dst) const {
  const auto hit = fib_.lookup(dst);
  if (!hit) return std::nullopt;
  return *hit->second;
}

}  // namespace bgpsdn::bgp
