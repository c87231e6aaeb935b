#include "net/network.hpp"

#include <cmath>
#include <stdexcept>

namespace bgpsdn::net {

namespace {

/// Clamp a probability into [0, 1]; NaN is a caller error, not a value.
double checked_probability(double p, const char* what) {
  if (std::isnan(p)) {
    throw std::invalid_argument{std::string{what} + " must not be NaN"};
  }
  if (p < 0.0) return 0.0;
  if (p > 1.0) return 1.0;
  return p;
}

}  // namespace

void LinkParams::validate() const {
  if (delay < core::Duration::zero()) {
    throw std::invalid_argument{"LinkParams: negative delay"};
  }
  if (std::isnan(loss) || loss < 0.0 || loss > 1.0) {
    throw std::invalid_argument{"LinkParams: loss outside [0, 1]"};
  }
}

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kBgp: return "bgp";
    case Protocol::kOfControl: return "of";
    case Protocol::kProbe: return "probe";
    case Protocol::kData: return "data";
  }
  return "?";
}

void Packet::append_to(std::string& out) const {
  src.append_to(out);
  out += " -> ";
  dst.append_to(out);
  out += " [";
  out += bgpsdn::net::to_string(proto);
  out += ", ";
  core::append_decimal(out, payload.size());
  out += "B]";
}

std::string Packet::to_string() const { return core::text_of(*this); }

core::EventLoop& Node::loop() const { return network().loop(); }
core::Logger& Node::logger() const { return network().logger(); }
core::Rng& Node::rng() const { return network().rng(); }

telemetry::Telemetry& Node::telemetry() const { return network().telemetry(); }

core::SessionId Node::allocate_session_id() {
  return network().session_ids().allocate();
}

void Node::send(core::PortId port, Packet packet) const {
  network().send(id_, port, std::move(packet));
}

void Network::register_node(std::unique_ptr<Node> node, std::string name) {
  const core::NodeId id{static_cast<std::uint32_t>(nodes_.size())};
  node->attach(*this, id, std::move(name));
  nodes_.push_back(std::move(node));
  ports_.emplace_back();
}

core::LinkId Network::connect(core::NodeId a, core::NodeId b, LinkParams params) {
  params.validate();
  const core::LinkId id{static_cast<std::uint32_t>(links_.size())};
  const core::PortId pa{static_cast<std::uint32_t>(ports_.at(a.value()).size())};
  const core::PortId pb{static_cast<std::uint32_t>(ports_.at(b.value()).size())};
  ports_[a.value()].push_back(id);
  ports_[b.value()].push_back(id);
  links_.push_back(Link{{a, pa}, {b, pb}, params, /*up=*/true, {}});
  return id;
}

void Network::send(core::NodeId from, core::PortId port, Packet packet) {
  ++stats_.sent;
  const core::LinkId link_id = link_at(from, port);
  if (!link_id.is_valid()) {
    ++stats_.dropped_no_port;
    return;
  }
  Link& link = links_[link_id.value()];
  if (!link.up) {
    ++stats_.dropped_link_down;
    return;
  }
  if (packet.ttl == 0) {
    ++stats_.dropped_ttl;
    logger_.log(loop_.now(), core::LogLevel::kDebug, node(from).name(),
                "ttl_expired", packet);
    return;
  }
  if (link.params.loss > 0.0 && rng_.chance(link.params.loss)) {
    ++stats_.dropped_loss;
    return;
  }
  if (link.corrupt > 0.0 && !packet.payload.empty() &&
      rng_.chance(link.corrupt)) {
    // In-flight corruption: flip 1-3 payload bits. The packet is delivered
    // anyway — surviving garbage is the receiver's problem (codecs must
    // reject it without crashing; BGP answers with a NOTIFICATION).
    const auto flips = rng_.uniform_int(1, 3);
    const auto bits = static_cast<std::int64_t>(packet.payload.size()) * 8;
    auto& bytes = packet.payload.mutate();  // un-share before writing
    for (std::int64_t i = 0; i < flips; ++i) {
      const auto bit = static_cast<std::size_t>(rng_.uniform_int(0, bits - 1));
      bytes[bit / 8] ^= std::byte{static_cast<unsigned char>(1u << (bit % 8))};
    }
    ++stats_.corrupted;
  }

  const int dir = (link.a.node == from && link.a.port == port) ? 0 : 1;
  core::TimePoint depart = loop_.now();
  if (link.params.bandwidth_bps > 0) {
    // Serialize after any packet still occupying the transmitter.
    if (link.tx_free[dir] > depart) depart = link.tx_free[dir];
    const auto bits = static_cast<std::uint64_t>(packet.size_bytes()) * 8;
    const auto ser = core::Duration::nanos(static_cast<std::int64_t>(
        bits * 1'000'000'000ull / link.params.bandwidth_bps));
    depart = depart + ser;
    link.tx_free[dir] = depart;
  }
  const core::TimePoint arrive = depart + link.params.delay;
  loop_.schedule_at(arrive, [this, link_id, dir, p = std::move(packet)]() {
    deliver(link_id, dir, p);
  });
}

void Network::deliver(core::LinkId link_id, int direction, const Packet& packet) {
  const Link& link = links_[link_id.value()];
  if (!link.up) {
    // Failed while in flight.
    ++stats_.dropped_link_down;
    return;
  }
  const LinkEnd& dst = direction == 0 ? link.b : link.a;
  ++stats_.delivered;
  Packet received = packet;
  received.ttl = static_cast<std::uint8_t>(received.ttl - 1);
  nodes_[dst.node.value()]->handle_packet(dst.port, received);
}

void Network::set_link_loss(core::LinkId id, double loss) {
  links_.at(id.value()).params.loss = checked_probability(loss, "link loss");
}

void Network::set_link_corruption(core::LinkId id, double probability) {
  links_.at(id.value()).corrupt =
      checked_probability(probability, "link corruption");
}

void Network::set_link_up(core::LinkId id, bool up) {
  Link& link = links_.at(id.value());
  if (link.up == up) return;
  link.up = up;
  logger_.log(loop_.now(), core::LogLevel::kInfo, "net", up ? "link_up" : "link_down",
              node(link.a.node).name(), " <-> ", node(link.b.node).name());
  nodes_[link.a.node.value()]->on_link_state(link.a.port, up);
  nodes_[link.b.node.value()]->on_link_state(link.b.port, up);
}

LinkEnd Network::peer_of(core::NodeId node, core::PortId port) const {
  const core::LinkId id = link_at(node, port);
  if (!id.is_valid()) return {};
  const Link& link = links_[id.value()];
  return (link.a.node == node && link.a.port == port) ? link.b : link.a;
}

core::LinkId Network::link_at(core::NodeId node, core::PortId port) const {
  const auto& node_ports = ports_.at(node.value());
  if (port.value() >= node_ports.size()) return core::LinkId::invalid();
  return node_ports[port.value()];
}

core::LinkId Network::find_link(core::NodeId a, core::NodeId b) const {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const Link& l = links_[i];
    if ((l.a.node == a && l.b.node == b) || (l.a.node == b && l.b.node == a)) {
      return core::LinkId{static_cast<std::uint32_t>(i)};
    }
  }
  return core::LinkId::invalid();
}

void Network::start_all() {
  for (const auto& n : nodes_) n->start();
}

}  // namespace bgpsdn::net
