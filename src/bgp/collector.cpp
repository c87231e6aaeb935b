#include "bgp/collector.hpp"

#include "bgp/router.hpp"
#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "net/network.hpp"

namespace bgpsdn::bgp {

std::string RouteObservation::to_string() const {
  std::string s = when.to_string();
  s += announce ? " A " : " W ";
  s += prefix.to_string();
  s += " from ";
  s += peer_as.to_string();
  if (announce) {
    s += " path [" + as_path.to_string() + "]";
  }
  return s;
}

void RouteCollector::add_peer(core::PortId port, net::Ipv4Addr local_address,
                              net::Ipv4Addr remote_address) {
  SessionConfig sc;
  sc.id = allocate_session_id();  // net::Node: network-scoped allocation
  sc.local_as = core::AsNumber{64512};  // private collector AS
  sc.local_id = id_;
  sc.local_address = local_address;
  sc.remote_address = remote_address;
  sc.expected_peer_as = core::AsNumber{0};  // accept anyone

  Peer peer;
  peer.port = port;
  peer.local_address = local_address;
  peer.remote_address = remote_address;
  peer.session = std::make_unique<Session>(
      *this, SessionEnv{loop(), rng(), logger(), telemetry()}, sc);
  auto [it, fresh] = by_port_.insert_or_assign(port.value(), std::move(peer));
  by_session_[sc.id.value()] = &it->second;
  if (started_) it->second.session->start();
}

void RouteCollector::start() {
  started_ = true;
  for (auto& [port, peer] : by_port_) peer.session->start();
}

void RouteCollector::handle_packet(core::PortId ingress, const net::Packet& packet) {
  if (packet.proto != net::Protocol::kBgp) return;
  const auto it = by_port_.find(ingress.value());
  if (it != by_port_.end()) it->second.session->receive(packet.payload);
}

void RouteCollector::on_link_state(core::PortId port, bool up) {
  const auto it = by_port_.find(port.value());
  if (it == by_port_.end()) return;
  if (up) {
    it->second.session->start();
  } else {
    it->second.session->stop("link down");
  }
}

void RouteCollector::session_transmit(Session& session, net::Bytes wire) {
  Peer* peer = by_session_.at(session.id().value());
  net::Packet pkt;
  pkt.src = peer->local_address;
  pkt.dst = peer->remote_address;
  pkt.proto = net::Protocol::kBgp;
  pkt.payload = std::move(wire);
  send(peer->port, std::move(pkt));
}

void RouteCollector::session_established(Session&) {}

void RouteCollector::session_down(Session& session, const std::string& reason) {
  logger().log(loop().now(), core::LogLevel::kInfo, session_log_name(),
               "session_down", "peer ", session.peer_as(), ": ", reason);
}

void RouteCollector::session_update(Session& session, UpdateMessage update) {
  for (const auto& prefix : update.withdrawn) {
    tape_.push_back({loop().now(), session.peer_as(), false, prefix, {}});
  }
  for (const auto& prefix : update.nlri) {
    tape_.push_back(
        {loop().now(), session.peer_as(), true, prefix, update.attributes.as_path});
  }
  logger().log(loop().now(), core::LogLevel::kDebug, session_log_name(),
               "collector_rx", "from ", session.peer_as(), ' ', update);
}

const std::string& RouteCollector::session_log_name() const {
  return log_component("collector");
}

core::TimePoint RouteCollector::last_activity() const {
  return tape_.empty() ? core::TimePoint::origin() : tape_.back().when;
}

std::size_t RouteCollector::established_count() const {
  std::size_t n = 0;
  for (const auto& [port, peer] : by_port_) {
    if (peer.session->established()) ++n;
  }
  return n;
}

}  // namespace bgpsdn::bgp
