// IPv4 addresses and CIDR prefixes.
//
// The framework "automatically assigns IP addresses and configures network
// devices"; these are the value types that flow through BGP NLRI, FIBs and
// SDN flow matches. Everything is host-byte-order internally.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace bgpsdn::net {

/// An IPv4 address as a plain 32-bit value with parsing/formatting.
class Ipv4Addr {
 public:
  constexpr Ipv4Addr() = default;
  constexpr explicit Ipv4Addr(std::uint32_t bits) : bits_{bits} {}
  constexpr Ipv4Addr(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : bits_{(std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
              (std::uint32_t{c} << 8) | std::uint32_t{d}} {}

  /// Parse dotted-quad. Returns nullopt on malformed input.
  static std::optional<Ipv4Addr> parse(std::string_view s);

  constexpr std::uint32_t bits() const { return bits_; }
  constexpr bool is_unspecified() const { return bits_ == 0; }

  constexpr auto operator<=>(const Ipv4Addr&) const = default;

  /// Append the dotted quad, e.g. "10.0.0.1".
  void append_to(std::string& out) const;
  std::string to_string() const;

 private:
  std::uint32_t bits_{0};
};

/// A CIDR prefix: address bits masked to `length` leading bits.
/// The stored address is always canonical (host bits zero).
class Prefix {
 public:
  constexpr Prefix() = default;
  Prefix(Ipv4Addr addr, std::uint8_t length);

  /// Parse "a.b.c.d/len". Returns nullopt on malformed input or len > 32.
  static std::optional<Prefix> parse(std::string_view s);

  /// The default route 0.0.0.0/0.
  static constexpr Prefix default_route() { return Prefix{}; }

  Ipv4Addr network() const { return addr_; }
  std::uint8_t length() const { return len_; }

  /// Netmask as an address, e.g. /24 -> 255.255.255.0.
  Ipv4Addr netmask() const;

  bool contains(Ipv4Addr a) const;
  bool contains(const Prefix& other) const;
  bool overlaps(const Prefix& other) const;

  /// The two /(len+1) halves; length must be < 32.
  std::pair<Prefix, Prefix> split() const;

  /// The n-th address inside the prefix (0 = network address).
  Ipv4Addr address_at(std::uint32_t n) const;

  auto operator<=>(const Prefix&) const = default;

  /// Append "a.b.c.d/len".
  void append_to(std::string& out) const;
  std::string to_string() const;

 private:
  Ipv4Addr addr_{};
  std::uint8_t len_{0};
};

}  // namespace bgpsdn::net

namespace std {
template <>
struct hash<bgpsdn::net::Ipv4Addr> {
  size_t operator()(const bgpsdn::net::Ipv4Addr& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.bits());
  }
};
template <>
struct hash<bgpsdn::net::Prefix> {
  size_t operator()(const bgpsdn::net::Prefix& p) const noexcept {
    return std::hash<std::uint64_t>{}((std::uint64_t{p.network().bits()} << 8) |
                                      p.length());
  }
};
}  // namespace std
