// Node — the base class for every emulated network device.
//
// BGP routers, SDN switches, hosts, the route collector and the cluster BGP
// speaker all derive from Node. A node owns no wiring: the Network assigns
// its id and ports and delivers packets into handle_packet(). Every node is
// built through Network::add, so its loop, RNG, logger, telemetry hub and
// session ids are always the owning network's.
#pragma once

#include <cassert>
#include <string>
#include <string_view>

#include "core/ids.hpp"
#include "net/packet.hpp"

namespace bgpsdn::core {
class EventLoop;
class Logger;
class Rng;
}  // namespace bgpsdn::core

namespace bgpsdn::telemetry {
class Telemetry;
}  // namespace bgpsdn::telemetry

namespace bgpsdn::net {

class Network;

class Node {
 public:
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Deliver a packet that arrived on `ingress`.
  virtual void handle_packet(core::PortId ingress, const Packet& packet) = 0;

  /// A directly attached link changed state (failure/restore). Default: ignore.
  virtual void on_link_state(core::PortId port, bool up) {
    (void)port;
    (void)up;
  }

  /// Called once by the Network when emulation starts; protocols begin their
  /// handshakes here.
  virtual void start() {}

  core::NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Wire the node into its network. Called exactly once by Network::add.
  void attach(Network& network, core::NodeId id, std::string name) {
    assert(network_ == nullptr && "node attached twice");
    network_ = &network;
    id_ = id;
    name_ = std::move(name);
  }

 protected:
  Node() = default;

  Network& network() const {
    assert(network_ != nullptr && "node used before attach");
    return *network_;
  }
  core::EventLoop& loop() const;
  core::Logger& logger() const;
  core::Rng& rng() const;

  /// The owning network's telemetry hub (metrics + trace fan-out).
  telemetry::Telemetry& telemetry() const;

  /// Next BGP session id, drawn from the owning Network's allocator: ids
  /// are unique network-wide (controller tables depend on it), and never
  /// process-wide, so two experiments in one process mint identical id
  /// sequences.
  core::SessionId allocate_session_id();

  /// Convenience: transmit out of a local port.
  void send(core::PortId port, Packet packet) const;

  /// The log component "<kind>.<name>" ("sw.AS3"), built on the first call
  /// and reused for every record after, so a node logs under one kind.
  /// Call it only once the node is attached, when its name is final.
  const std::string& log_component(std::string_view kind) const {
    if (log_component_.empty()) {
      log_component_ = kind;
      log_component_ += '.';
      log_component_ += name_;
    }
    assert(log_component_.starts_with(kind) && "node logs under one kind");
    return log_component_;
  }

 private:
  Network* network_{nullptr};
  core::NodeId id_{core::NodeId::invalid()};
  std::string name_;
  mutable std::string log_component_;
};

}  // namespace bgpsdn::net
