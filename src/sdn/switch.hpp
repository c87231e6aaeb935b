// SdnSwitch — an OpenFlow-like switch standing in for one cluster AS.
//
// In the paper's hybrid experiments, ASes that join the SDN cluster replace
// their BGP router with an SDN switch whose forwarding is programmed by the
// IDR controller. The switch keeps the AS identity (for logging and for the
// cluster's transparent interop with legacy BGP); all routing intelligence
// lives in the controller.
#pragma once

#include <cstdint>
#include <optional>

#include "core/ids.hpp"
#include "net/node.hpp"
#include "sdn/flow.hpp"
#include "sdn/openflow.hpp"

namespace bgpsdn::sdn {

struct SwitchCounters {
  std::uint64_t packets_in{0};       // data packets seen
  std::uint64_t table_misses{0};     // punted to controller (no match)
  std::uint64_t punts{0};            // punted by explicit to-controller action
  std::uint64_t flow_mods{0};
  std::uint64_t packet_outs{0};
  std::uint64_t dropped{0};
  std::uint64_t standalone_entries{0};  // controller-channel losses survived
  std::uint64_t standalone_flushed{0};  // data rules dropped across flushes
  std::uint64_t stale_flowmods_rejected{0};  // fenced-out deposed-leader mods
};

class SdnSwitch : public net::Node {
 public:
  /// `owner_as` is the AS this switch represents in the cluster.
  explicit SdnSwitch(core::AsNumber owner_as) : owner_as_{owner_as} {}

  core::AsNumber owner_as() const { return owner_as_; }
  Dpid dpid() const { return id().value(); }

  /// Must be set (by the cluster builder) before start(): the port whose
  /// link leads to the controller.
  void set_controller_port(core::PortId port) { controller_port_ = port; }

  /// Pre-installed rules (e.g. BGP relay paths) may be added directly by the
  /// cluster builder before start; runtime programming goes via FlowMod.
  FlowTable& table() { return table_; }
  const FlowTable& table() const { return table_; }

  void start() override;
  void handle_packet(core::PortId ingress, const net::Packet& packet) override;
  void on_link_state(core::PortId port, bool up) override;

  /// True while the controller channel is down. In standalone mode the
  /// switch flushes its data-priority rules (fail-secure: no forwarding on
  /// state the dead controller can no longer retract), stops punting table
  /// misses, and accepts FlowMods arriving over any port — the degraded
  /// control path is the cluster speaker programming border switches
  /// through the static BGP relay rules.
  bool standalone() const { return standalone_; }

  /// Highest FlowMod programming epoch accepted so far (0 until a
  /// replicated controller starts fencing; see OfFlowMod::epoch).
  std::uint32_t max_epoch_seen() const { return max_epoch_seen_; }

  const SwitchCounters& counters() const { return counters_; }

 private:
  void handle_control(const net::Packet& packet);
  void send_to_controller(const OfMessage& message);
  void enter_standalone();
  void exit_standalone();
  void flush_data_rules(const char* why);
  void resend_port_states();
  /// "sw.<name>", built on first use (the node name is final by then).
  const std::string& log_name() const;

  core::AsNumber owner_as_;
  std::optional<core::PortId> controller_port_;
  FlowTable table_;
  SwitchCounters counters_;
  bool standalone_{false};
  std::uint32_t max_epoch_seen_{0};
};

}  // namespace bgpsdn::sdn
