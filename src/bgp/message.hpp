// BGP-4 messages and their RFC 4271 wire codec.
//
// The emulation keeps the paper's "real router software" spirit: speakers
// exchange genuine BGP byte streams. OPEN carries the 4-octet-AS capability
// (RFC 6793); when both sides advertise it the session encodes AS_PATH with
// 32-bit AS numbers, otherwise 16-bit with AS_TRANS substitution.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "bgp/path_attributes.hpp"
#include "bgp/types.hpp"
#include "net/bytes.hpp"
#include "net/ip.hpp"

namespace bgpsdn::bgp {

enum class MessageType : std::uint8_t {
  kOpen = 1,
  kUpdate = 2,
  kNotification = 3,
  kKeepalive = 4,
};

const char* to_string(MessageType t);

/// RFC 6793: the 2-octet stand-in for a 4-octet AS number.
inline constexpr std::uint16_t kAsTrans = 23456;

/// RFC 4271 §4: maximum BGP message size in bytes.
inline constexpr std::size_t kMaxMessageSize = 4096;

struct OpenMessage {
  std::uint8_t version{4};
  core::AsNumber my_as;
  std::uint16_t hold_time_s{90};
  net::Ipv4Addr bgp_id;
  bool four_octet_as{true};

  bool operator==(const OpenMessage&) const = default;
};

struct UpdateMessage {
  std::vector<net::Prefix> withdrawn;
  /// Attributes apply to every NLRI prefix (one bundle per UPDATE, per RFC).
  /// Meaningless when nlri is empty.
  PathAttributes attributes;
  std::vector<net::Prefix> nlri;

  bool operator==(const UpdateMessage&) const = default;

  /// e.g. "UPDATE withdraw{10.1.0.0/16} announce{10.2.0.0/16} path=[2 1]
  /// nh=10.0.0.1 origin=IGP".
  void append_to(std::string& out) const;
  std::string to_string() const;
};

struct NotificationMessage {
  std::uint8_t code{0};
  std::uint8_t subcode{0};
  std::vector<std::byte> data;

  bool operator==(const NotificationMessage&) const = default;
};

struct KeepaliveMessage {
  bool operator==(const KeepaliveMessage&) const = default;
};

using Message =
    std::variant<OpenMessage, UpdateMessage, NotificationMessage, KeepaliveMessage>;

MessageType type_of(const Message& m);

/// Session-scoped codec options.
struct CodecOptions {
  /// Encode AS numbers in AS_PATH as 4 octets (negotiated via capability).
  bool four_octet_as{true};
};

/// Serialize to RFC 4271 wire format (16-byte marker, length, type, body).
/// Each message is encoded straight into the returned vector, reserved
/// from an upper bound on its size, so that vector is the only allocation.
std::vector<std::byte> encode(const Message& message, const CodecOptions& opts = {});
/// encode() of one UPDATE, without wrapping it in a Message first.
std::vector<std::byte> encode(const UpdateMessage& update,
                              const CodecOptions& opts = {});

/// Serialize into a packet buffer: KEEPALIVEs reuse one cached wire image,
/// anything else is encoded afresh. Routers send every UPDATE through
/// encode_shared(const UpdateMessage&). Byte-for-byte identical to encode().
net::Bytes encode_shared(const Message& message, const CodecOptions& opts = {});

/// The UPDATE encoder behind Session::send_update. A small ring cache of
/// wire images keyed by message value + codec hands an UPDATE sent
/// unchanged to several peers one shared buffer. Announcements carry each
/// peer's own next hop, so in practice its hits are withdraw-only UPDATEs;
/// anything else is encoded once, into the buffer the packet adopts.
/// Byte-for-byte identical to encode().
net::Bytes encode_shared(const UpdateMessage& update,
                         const CodecOptions& opts = {});

/// Split an UPDATE into pieces that each encode within kMaxMessageSize
/// (withdrawn routes and NLRI distributed across messages; the attribute
/// bundle repeated on every NLRI-carrying piece). Returns {update} when it
/// already fits.
std::vector<UpdateMessage> split_update(const UpdateMessage& update,
                                        const CodecOptions& opts = {});

/// Decode one message from wire bytes. Returns nullopt on any framing,
/// length or attribute error (a real speaker would send NOTIFICATION; the
/// session layer does that on decode failure).
std::optional<Message> decode(const std::vector<std::byte>& wire,
                              const CodecOptions& opts = {});

}  // namespace bgpsdn::bgp
