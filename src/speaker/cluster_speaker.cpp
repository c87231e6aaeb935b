#include "speaker/cluster_speaker.hpp"

#include "bgp/router.hpp"
#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "net/network.hpp"
#include "telemetry/trace.hpp"

namespace bgpsdn::speaker {

PeeringId ClusterBgpSpeaker::add_peering(core::PortId relay_port, Peering peering) {
  const auto id = static_cast<PeeringId>(slots_.size());
  peering.id = id;

  bgp::SessionConfig sc;
  sc.id = allocate_session_id();  // net::Node: network-scoped allocation
  sc.local_as = peering.cluster_as;
  // Identify as the cluster AS's router (its interface address works as a
  // unique, stable BGP id).
  sc.local_id = peering.local_address;
  sc.local_address = peering.local_address;
  sc.remote_address = peering.remote_address;
  sc.expected_peer_as = peering.expected_peer_as;
  sc.timers = timers_;

  auto slot = std::make_unique<Slot>(attr_registry_);
  slot->info = peering;
  slot->relay_port = relay_port;
  slot->session = std::make_unique<bgp::Session>(
      *this, bgp::SessionEnv{loop(), rng(), logger(), telemetry()}, sc);
  Slot* raw = slot.get();
  slots_.push_back(std::move(slot));
  by_port_[relay_port.value()] = raw;
  by_session_[sc.id.value()] = raw;
  if (started_) raw->session->start();
  return id;
}

void ClusterBgpSpeaker::announce(PeeringId id, const net::Prefix& prefix,
                                 const bgp::PathAttributes& attrs) {
  if (crashed_) return;
  Slot& slot = *slots_.at(id);
  if (!slot.session->established()) return;
  if (!slot.rib_out.advertise(prefix, attr_registry_->intern(attrs))) {
    return;  // duplicate
  }
  bgp::UpdateMessage m;
  m.attributes = attrs;
  m.nlri.push_back(prefix);
  ++counters_.announces_tx;
  logger().log(loop().now(), core::LogLevel::kDebug, session_log_name(),
               "speaker_announce", "peering ", id, ' ', m);
  auto& tel = telemetry();
  tel.metrics().counter("speaker.announces_tx").inc();
  if (tel.tracing()) {
    auto span = telemetry::TraceSpan::instant(loop().now(), "speaker",
                                              "announce", session_log_name());
    span.arg("peering", static_cast<std::int64_t>(id))
        .arg("prefix", prefix.to_string());
    tel.emit(span);
  }
  slot.session->send_update(m);
}

void ClusterBgpSpeaker::withdraw(PeeringId id, const net::Prefix& prefix) {
  if (crashed_) return;
  Slot& slot = *slots_.at(id);
  if (!slot.session->established()) return;
  if (!slot.rib_out.withdraw(prefix)) return;  // never advertised
  bgp::UpdateMessage m;
  m.withdrawn.push_back(prefix);
  ++counters_.withdraws_tx;
  logger().log(loop().now(), core::LogLevel::kDebug, session_log_name(),
               "speaker_withdraw", "peering ", id, ' ', prefix);
  auto& tel = telemetry();
  tel.metrics().counter("speaker.withdraws_tx").inc();
  if (tel.tracing()) {
    auto span = telemetry::TraceSpan::instant(loop().now(), "speaker",
                                              "withdraw", session_log_name());
    span.arg("peering", static_cast<std::int64_t>(id))
        .arg("prefix", prefix.to_string());
    tel.emit(span);
  }
  slot.session->send_update(m);
}

void ClusterBgpSpeaker::reset_peering(PeeringId id, const std::string& reason) {
  if (crashed_) return;
  Slot& slot = *slots_.at(id);
  ++counters_.resets;
  slot.session->stop(reason, /*auto_restart=*/true);
}

void ClusterBgpSpeaker::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++counters_.crashes;
  logger().log(loop().now(), core::LogLevel::kWarn, session_log_name(), "crash",
               "speaker process down, ", slots_.size(), " sessions lost");
  telemetry().metrics().counter("speaker.crashes").inc();
  for (auto& slot : slots_) {
    // Process death sends nothing; external peers discover the outage when
    // their hold timers expire and then retry on their own. session_down()
    // fires here so the listener withdraws state immediately.
    slot->session->stop("speaker crashed");
    slot->rib_in.clear();
    slot->rib_out.clear();
  }
}

void ClusterBgpSpeaker::restart() {
  if (!crashed_) return;
  crashed_ = false;
  logger().log(loop().now(), core::LogLevel::kInfo, session_log_name(),
               "restart", "speaker process up, reconnecting sessions");
  for (auto& slot : slots_) slot->session->start();
}

void ClusterBgpSpeaker::replay_to(SpeakerListener& listener) const {
  if (crashed_) return;
  for (const auto& slot : slots_) {
    if (!slot->session->established()) continue;
    listener.on_peer_established(slot->info);
    for (const auto& [prefix, attrs] : slot->rib_in) {
      bgp::UpdateMessage update;
      update.attributes = *attrs;
      update.nlri.push_back(prefix);
      listener.on_route_update(slot->info, update);
    }
  }
}

void ClusterBgpSpeaker::send_relay_control(PeeringId id,
                                           const sdn::OfMessage& message) {
  if (crashed_) return;
  Slot& slot = *slots_.at(id);
  net::Packet pkt;
  pkt.proto = net::Protocol::kOfControl;
  pkt.payload = sdn::encode(message);
  send(slot.relay_port, std::move(pkt));
}

const Peering* ClusterBgpSpeaker::peering(PeeringId id) const {
  return id < slots_.size() ? &slots_[id]->info : nullptr;
}

std::vector<const Peering*> ClusterBgpSpeaker::peerings() const {
  std::vector<const Peering*> out;
  out.reserve(slots_.size());
  for (const auto& s : slots_) out.push_back(&s->info);
  return out;
}

bool ClusterBgpSpeaker::peering_established(PeeringId id) const {
  return id < slots_.size() && slots_[id]->session->established();
}

void ClusterBgpSpeaker::start() {
  started_ = true;
  if (crashed_) return;
  for (auto& slot : slots_) slot->session->start();
}

void ClusterBgpSpeaker::handle_packet(core::PortId ingress,
                                      const net::Packet& packet) {
  if (crashed_) return;  // a dead process reads no sockets
  if (packet.proto != net::Protocol::kBgp) return;
  const auto it = by_port_.find(ingress.value());
  if (it != by_port_.end()) it->second->session->receive(packet.payload);
}

void ClusterBgpSpeaker::on_link_state(core::PortId port, bool up) {
  if (crashed_) return;
  // A relay link (speaker<->switch) changed; treat like a session link.
  const auto it = by_port_.find(port.value());
  if (it == by_port_.end()) return;
  if (up) {
    it->second->session->start();
  } else {
    it->second->session->stop("relay link down");
  }
}

ClusterBgpSpeaker::Slot* ClusterBgpSpeaker::slot_of(const bgp::Session& session) {
  const auto it = by_session_.find(session.id().value());
  return it == by_session_.end() ? nullptr : it->second;
}

void ClusterBgpSpeaker::session_transmit(bgp::Session& session,
                                         net::Bytes wire) {
  if (crashed_) return;
  Slot* slot = slot_of(session);
  if (slot == nullptr) return;
  net::Packet pkt;
  pkt.src = slot->info.local_address;
  pkt.dst = slot->info.remote_address;
  pkt.proto = net::Protocol::kBgp;
  pkt.payload = std::move(wire);
  send(slot->relay_port, std::move(pkt));
}

void ClusterBgpSpeaker::session_established(bgp::Session& session) {
  Slot* slot = slot_of(session);
  logger().log(loop().now(), core::LogLevel::kInfo, session_log_name(),
               "session_up", slot->info.cluster_as, " <-> peer ",
               session.peer_as());
  if (listener_ != nullptr) listener_->on_peer_established(slot->info);
}

void ClusterBgpSpeaker::session_down(bgp::Session& session,
                                     const std::string& reason) {
  Slot* slot = slot_of(session);
  slot->rib_out.clear();
  slot->rib_in.clear();
  logger().log(loop().now(), core::LogLevel::kInfo, session_log_name(),
               "session_down", slot->info.cluster_as, " <-> peer ",
               session.peer_as(), ": ", reason);
  if (listener_ != nullptr) listener_->on_peer_down(slot->info, reason);
}

void ClusterBgpSpeaker::session_update(bgp::Session& session,
                                       bgp::UpdateMessage update) {
  Slot* slot = slot_of(session);
  ++counters_.updates_rx;
  for (const auto& prefix : update.withdrawn) slot->rib_in.erase(prefix);
  if (!update.nlri.empty()) {
    const auto attrs = attr_registry_->intern(update.attributes);
    for (const auto& prefix : update.nlri) slot->rib_in[prefix] = attrs;
  }
  telemetry().metrics().counter("speaker.updates_rx").inc();
  logger().log(loop().now(), core::LogLevel::kDebug, session_log_name(),
               "speaker_rx", "peering ", slot->info.id, ' ', update);
  if (listener_ != nullptr) listener_->on_route_update(slot->info, update);
}

const std::string& ClusterBgpSpeaker::session_log_name() const {
  return log_component("speaker");
}

}  // namespace bgpsdn::speaker
