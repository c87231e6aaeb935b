// RouteCollector — the monitoring peer of the framework.
//
// "All BGP routers peer with a BGP route collector, which collects routing
// updates for monitoring purposes." The collector is a passive BGP speaker
// that accepts any peer AS, never advertises, and timestamps every
// announcement/withdrawal it hears. Convergence analysis reads its tape.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/session.hpp"
#include "net/node.hpp"

namespace bgpsdn::bgp {

/// One observed routing event.
struct RouteObservation {
  core::TimePoint when;
  core::AsNumber peer_as;
  bool announce{false};
  net::Prefix prefix;
  AsPath as_path;  // empty for withdrawals

  std::string to_string() const;
};

class RouteCollector : public net::Node, public SessionHost {
 public:
  explicit RouteCollector(net::Ipv4Addr collector_id) : id_{collector_id} {}

  /// Declare a peering on a local port (one per monitored router).
  void add_peer(core::PortId port, net::Ipv4Addr local_address,
                net::Ipv4Addr remote_address);

  // Node
  void start() override;
  void handle_packet(core::PortId ingress, const net::Packet& packet) override;
  void on_link_state(core::PortId port, bool up) override;

  // SessionHost
  void session_transmit(Session& session, net::Bytes wire) override;
  void session_established(Session& session) override;
  void session_down(Session& session, const std::string& reason) override;
  void session_update(Session& session, UpdateMessage update) override;
  /// "collector.<name>".
  const std::string& session_log_name() const override;

  const std::vector<RouteObservation>& observations() const { return tape_; }
  void clear() { tape_.clear(); }

  /// Time of the last observation at or before `at` (origin if none) —
  /// convergence detectors use "no update seen since t".
  core::TimePoint last_activity() const;

  /// Number of established peerings.
  std::size_t established_count() const;

 private:
  struct Peer {
    core::PortId port;
    net::Ipv4Addr local_address;
    net::Ipv4Addr remote_address;
    std::unique_ptr<Session> session;
  };

  net::Ipv4Addr id_;
  bool started_{false};
  std::unordered_map<std::uint32_t, Peer> by_port_;
  std::unordered_map<std::uint32_t, Peer*> by_session_;
  std::vector<RouteObservation> tape_;
};

}  // namespace bgpsdn::bgp
