#include "sdn/controller_base.hpp"

#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "net/network.hpp"

namespace bgpsdn::sdn {

void ControllerBase::base_crash() {
  crashed_ = true;
  switches_.clear();
  dpid_by_port_.clear();
  logger().log(loop().now(), core::LogLevel::kWarn, log_name(), "crash",
               "controller process down");
}

void ControllerBase::base_restart() {
  crashed_ = false;
  logger().log(loop().now(), core::LogLevel::kInfo, log_name(), "restart",
               "controller process up, awaiting switch handshakes");
}

void ControllerBase::handle_packet(core::PortId ingress, const net::Packet& packet) {
  if (crashed_) return;  // a dead process reads no sockets
  if (packet.proto != net::Protocol::kOfControl) return;
  const auto msg = decode(packet.payload);
  if (!msg) {
    logger().log(loop().now(), core::LogLevel::kWarn, log_name(),
                 "of_decode_error");
    return;
  }

  if (type_of(*msg) == OfType::kHello) {
    const auto& hello = std::get<OfHello>(*msg);
    SwitchChannel ch;
    ch.dpid = hello.dpid;
    ch.local_port = ingress;
    ch.port_count = hello.port_count;
    ch.connected = true;
    switches_[hello.dpid] = ch;
    dpid_by_port_[ingress.value()] = hello.dpid;
    // Greet back (completes the handshake; the switch ignores the content).
    send_to(hello.dpid, OfHello{0, 0});
    logger().log(loop().now(), core::LogLevel::kInfo, log_name(),
                 "switch_connected", "dpid ", hello.dpid);
    on_switch_connected(switches_[hello.dpid]);
    return;
  }

  const auto it = dpid_by_port_.find(ingress.value());
  if (it == dpid_by_port_.end()) return;  // message before Hello: ignore
  SwitchChannel& ch = switches_[it->second];

  switch (type_of(*msg)) {
    case OfType::kPacketIn:
      ++counters_.packet_ins;
      on_packet_in(ch, std::get<OfPacketIn>(*msg));
      break;
    case OfType::kPortStatus:
      ++counters_.port_status;
      logger().log(loop().now(), core::LogLevel::kInfo, log_name(),
                   "port_status", "dpid ", ch.dpid, " port ",
                   std::get<OfPortStatus>(*msg).port.value(),
                   std::get<OfPortStatus>(*msg).up ? " up" : " down");
      on_port_status(ch, std::get<OfPortStatus>(*msg));
      break;
    case OfType::kEcho: {
      const auto& echo = std::get<OfEcho>(*msg);
      if (!echo.is_reply) send_to(ch.dpid, OfEcho{echo.token, true});
      break;
    }
    default:
      break;
  }
}

void ControllerBase::send_to(Dpid dpid, const OfMessage& message) {
  if (crashed_) return;
  const auto it = switches_.find(dpid);
  if (it == switches_.end() || !it->second.connected) return;
  net::Packet pkt;
  pkt.proto = net::Protocol::kOfControl;
  pkt.payload = encode(message);
  send(it->second.local_port, std::move(pkt));
}

void ControllerBase::send_flow_mod(Dpid dpid, const OfFlowMod& mod) {
  ++counters_.flow_mods_sent;
  logger().log(loop().now(), core::LogLevel::kDebug, log_name(), "flow_mod_tx",
               "dpid ", dpid, ' ', mod.match, " -> ", mod.action);
  send_to(dpid, mod);
}

const std::string& ControllerBase::log_name() const {
  return log_component("ctrl");
}

void ControllerBase::send_packet_out(Dpid dpid, core::PortId out_port,
                                     const net::Packet& p) {
  ++counters_.packet_outs_sent;
  OfPacketOut out;
  out.out_port = out_port;
  out.packet = p;
  send_to(dpid, std::move(out));
}

}  // namespace bgpsdn::sdn
