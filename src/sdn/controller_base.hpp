// ControllerBase — the controller platform (the POX analogue).
//
// Provides the event-driven plumbing an SDN controller application builds
// on: switch channels (one control link per switch), Hello handshake,
// dispatch of PacketIn/PortStatus to virtual handlers, and FlowMod /
// PacketOut transmission. Cooperative and single-threaded by design; the
// paper argues this "focus on research questions, not concurrency" is the
// right trade-off for rapid prototyping (vs ONOS).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>

#include "core/ids.hpp"
#include "net/node.hpp"
#include "sdn/openflow.hpp"

namespace bgpsdn::sdn {

/// One connected switch as seen by the controller.
struct SwitchChannel {
  Dpid dpid{0};
  core::PortId local_port;  // controller port leading to this switch
  std::uint16_t port_count{0};
  bool connected{false};
};

struct ControllerCounters {
  std::uint64_t packet_ins{0};
  std::uint64_t flow_mods_sent{0};
  std::uint64_t packet_outs_sent{0};
  std::uint64_t port_status{0};
};

class ControllerBase : public net::Node {
 public:
  void handle_packet(core::PortId ingress, const net::Packet& packet) final;

  const std::map<Dpid, SwitchChannel>& switches() const { return switches_; }
  bool is_connected(Dpid dpid) const {
    const auto it = switches_.find(dpid);
    return it != switches_.end() && it->second.connected;
  }
  const ControllerCounters& base_counters() const { return counters_; }

  /// True between base_crash() and base_restart(): the process is "dead" —
  /// incoming control traffic is ignored, nothing can be sent.
  bool crashed() const { return crashed_; }

 protected:
  /// Emulate process death: forget every switch channel and go deaf. The
  /// node object stays (it anchors the network ports); derived controllers
  /// drop their own application state alongside.
  void base_crash();
  /// Come back empty: channels rebuild as switches re-Hello when their
  /// control links return.
  void base_restart();
  /// Application hooks.
  virtual void on_switch_connected(const SwitchChannel& channel) { (void)channel; }
  virtual void on_packet_in(const SwitchChannel& channel, const OfPacketIn& in) {
    (void)channel;
    (void)in;
  }
  virtual void on_port_status(const SwitchChannel& channel,
                              const OfPortStatus& status) {
    (void)channel;
    (void)status;
  }

  /// Program a switch's flow table.
  void send_flow_mod(Dpid dpid, const OfFlowMod& mod);
  /// Inject a packet out of a switch port.
  void send_packet_out(Dpid dpid, core::PortId out_port, const net::Packet& p);

 private:
  void send_to(Dpid dpid, const OfMessage& message);
  /// "ctrl.<name>", built on first use (the node name is final by then).
  const std::string& log_name() const;

  std::map<Dpid, SwitchChannel> switches_;
  std::unordered_map<std::uint32_t, Dpid> dpid_by_port_;
  ControllerCounters counters_;
  bool crashed_{false};
};

}  // namespace bgpsdn::sdn
