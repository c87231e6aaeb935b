#include "sdn/switch.hpp"

#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "net/network.hpp"
#include "telemetry/trace.hpp"

namespace bgpsdn::sdn {

void SdnSwitch::start() {
  if (!controller_port_) return;  // isolated switch: nothing to announce
  OfHello hello;
  hello.dpid = dpid();
  hello.port_count = static_cast<std::uint16_t>(network().port_count(id()));
  send_to_controller(hello);
}

void SdnSwitch::send_to_controller(const OfMessage& message) {
  if (!controller_port_) return;
  net::Packet pkt;
  pkt.proto = net::Protocol::kOfControl;
  pkt.payload = encode(message);
  send(*controller_port_, std::move(pkt));
}

void SdnSwitch::handle_packet(core::PortId ingress, const net::Packet& packet) {
  // Control messages normally arrive only on the controller channel; in
  // standalone mode the speaker's relay links are the surviving control
  // path, so any port may carry FlowMods.
  if (packet.proto == net::Protocol::kOfControl &&
      ((controller_port_ && ingress == *controller_port_) || standalone_)) {
    handle_control(packet);
    return;
  }

  ++counters_.packets_in;
  const FlowEntry* entry = table_.lookup(ingress, packet);
  if (entry == nullptr) {
    ++counters_.table_misses;
    if (standalone_) return;  // nobody to punt to
    OfPacketIn in;
    in.in_port = ingress;
    in.reason = PacketInReason::kNoMatch;
    in.packet = packet;
    send_to_controller(std::move(in));
    return;
  }
  switch (entry->action.type) {
    case ActionType::kOutput:
      send(entry->action.port, packet);
      break;
    case ActionType::kToController: {
      ++counters_.punts;
      OfPacketIn in;
      in.in_port = ingress;
      in.reason = PacketInReason::kAction;
      in.packet = packet;
      send_to_controller(std::move(in));
      break;
    }
    case ActionType::kDrop:
      ++counters_.dropped;
      break;
  }
}

void SdnSwitch::handle_control(const net::Packet& packet) {
  const auto msg = decode(packet.payload);
  if (!msg) {
    logger().log(loop().now(), core::LogLevel::kWarn, log_name(),
                 "of_decode_error");
    return;
  }
  switch (type_of(*msg)) {
    case OfType::kFlowMod: {
      const auto& fm = std::get<OfFlowMod>(*msg);
      if (fm.epoch < max_epoch_seen_) {
        // A deposed leader's in-flight programming: the cluster has moved
        // to a higher epoch, so this mod would reintroduce stale state.
        ++counters_.stale_flowmods_rejected;
        logger().log(loop().now(), core::LogLevel::kWarn, log_name(),
                     "stale_flow_mod", "epoch ", fm.epoch, " < ",
                     max_epoch_seen_);
        telemetry().metrics().counter("sdn.switch.stale_flowmods_rejected").inc();
        break;
      }
      max_epoch_seen_ = fm.epoch;
      ++counters_.flow_mods;
      if (fm.command == FlowModCommand::kAdd) {
        FlowEntry e;
        e.match = fm.match;
        e.priority = fm.priority;
        e.action = fm.action;
        table_.add(std::move(e));
      } else {
        table_.remove(fm.match, fm.priority);
      }
      logger().log(loop().now(), core::LogLevel::kDebug, log_name(),
                   "flow_mod",
                   fm.command == FlowModCommand::kAdd ? "add " : "del ",
                   fm.match);
      auto& tel = telemetry();
      tel.metrics().counter("sdn.switch.flow_mods").inc();
      tel.metrics()
          .histogram("sdn.switch.table_size")
          .record(static_cast<std::int64_t>(table_.size()));
      if (tel.tracing()) {
        auto span = telemetry::TraceSpan::instant(loop().now(), "sdn",
                                                  "flow_mod", log_name());
        span.arg("op", fm.command == FlowModCommand::kAdd ? "add" : "del")
            .arg("match", fm.match.to_string())
            .arg("table_size", static_cast<std::int64_t>(table_.size()));
        tel.emit(span);
      }
      break;
    }
    case OfType::kPacketOut: {
      const auto& po = std::get<OfPacketOut>(*msg);
      ++counters_.packet_outs;
      send(po.out_port, po.packet);
      break;
    }
    case OfType::kEcho: {
      const auto& echo = std::get<OfEcho>(*msg);
      if (!echo.is_reply) send_to_controller(OfEcho{echo.token, true});
      break;
    }
    case OfType::kHello:
      break;  // controller greeting; nothing to do
    default:
      break;
  }
}

void SdnSwitch::on_link_state(core::PortId port, bool up) {
  if (controller_port_ && port == *controller_port_) {
    if (up) {
      exit_standalone();
    } else {
      enter_standalone();
    }
    return;
  }
  OfPortStatus status;
  status.port = port;
  status.up = up;
  send_to_controller(status);
}

void SdnSwitch::flush_data_rules(const char* why) {
  const auto flushed = table_.remove_below_priority(kRelayRulePriority);
  counters_.standalone_flushed += flushed;
  logger().log(loop().now(), core::LogLevel::kInfo, log_name(), why,
               "flushed ", flushed, " data rules");
}

void SdnSwitch::enter_standalone() {
  if (standalone_) return;
  standalone_ = true;
  ++counters_.standalone_entries;
  // Fail-secure: the dead controller cannot retract stale routes, so drop
  // every data rule. Relay rules survive — the cluster speaker keeps its
  // external BGP sessions and becomes the degraded control path.
  flush_data_rules("standalone_enter");
  auto& tel = telemetry();
  tel.metrics().counter("sdn.switch.standalone_entries").inc();
  if (tel.tracing()) {
    auto span = telemetry::TraceSpan::instant(loop().now(), "sdn",
                                              "standalone", log_name());
    span.arg("up", false);
    tel.emit(span);
  }
}

void SdnSwitch::exit_standalone() {
  if (!standalone_) return;
  standalone_ = false;
  // Rules installed over the degraded path are stale the moment a live
  // controller is back; flush again and re-handshake so it can repush.
  flush_data_rules("standalone_exit");
  if (telemetry().tracing()) {
    auto span = telemetry::TraceSpan::instant(loop().now(), "sdn",
                                              "standalone", log_name());
    span.arg("up", true);
    telemetry().emit(span);
  }
  start();
  // Any cluster link that changed while the channel was down never produced
  // a PortStatus (there was nobody to send it to). Replay the current state
  // of every data port so the revived controller's SwitchGraph converges to
  // reality instead of its pre-crash snapshot; up-to-date ports are no-ops
  // on the graph side.
  resend_port_states();
}

const std::string& SdnSwitch::log_name() const {
  return log_component("sw");
}

void SdnSwitch::resend_port_states() {
  const auto ports = network().port_count(id());
  for (std::size_t p = 0; p < ports; ++p) {
    const core::PortId port{static_cast<std::uint32_t>(p)};
    if (controller_port_ && port == *controller_port_) continue;
    const core::LinkId link = network().link_at(id(), port);
    if (!link.is_valid()) continue;
    OfPortStatus status;
    status.port = port;
    status.up = network().link_is_up(link);
    send_to_controller(status);
  }
}

}  // namespace bgpsdn::sdn
