// The datagram that travels over emulated links.
//
// Control protocols (BGP, the OpenFlow-like channel) serialize themselves
// into the payload; data-plane probes use the header fields only. A TTL
// guards against forwarding loops during convergence — exactly the transient
// the experiments measure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/bytes.hpp"
#include "net/ip.hpp"

namespace bgpsdn::net {

enum class Protocol : std::uint8_t {
  kBgp = 1,       // BGP-4 over its (abstracted) TCP session
  kOfControl = 2, // OpenFlow-like switch/controller channel
  kProbe = 3,     // data-plane reachability probe (the "ping"/video proxy)
  kData = 4,      // generic application traffic
};

const char* to_string(Protocol p);

struct Packet {
  Ipv4Addr src;
  Ipv4Addr dst;
  Protocol proto{Protocol::kData};
  std::uint8_t ttl{64};
  /// Serialized upper-layer message (wire bytes for BGP / OF control).
  /// Copy-on-write: forwarding and fan-out share one buffer.
  Bytes payload;
  /// Probe/flow correlation id, echoed back by probe responders.
  std::uint64_t flow_label{0};

  std::size_t size_bytes() const { return 20 + payload.size(); }

  /// e.g. "10.0.0.1 -> 10.1.0.1 [data, 64B]".
  void append_to(std::string& out) const;
  std::string to_string() const;
};

}  // namespace bgpsdn::net
