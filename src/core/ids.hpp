// Strongly-typed identifiers.
//
// The framework wires many entity kinds together (nodes, links, ports, ASes,
// BGP sessions, flows). Tag types prevent an AS number from silently flowing
// into a slot expecting a link id.
#pragma once

#include <cstdint>
#include <compare>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "core/text.hpp"

namespace bgpsdn::core {

/// A value-semantic integer id with a phantom Tag. Ids are allocated by the
/// owning registry (Network, Experiment, ...) and are dense from zero unless
/// documented otherwise.
template <typename Tag, typename Rep = std::uint32_t>
class Id {
 public:
  constexpr Id() = default;
  constexpr explicit Id(Rep v) : v_{v} {}

  static constexpr Id invalid() { return Id{static_cast<Rep>(-1)}; }
  constexpr bool is_valid() const { return v_ != static_cast<Rep>(-1); }

  constexpr Rep value() const { return v_; }
  constexpr auto operator<=>(const Id&) const = default;

  std::string to_string() const { return std::to_string(v_); }

 private:
  Rep v_{static_cast<Rep>(-1)};
};

/// Dense id allocator for one Tag, owned by the registry that scopes the
/// ids (a Network for sessions, an Experiment for nodes, ...). Keeping the
/// counter inside the owning object — never in a global or function-local
/// static — is what lets many simulations run concurrently in one process
/// while each still hands out the same id sequence for the same build order.
template <typename Tag, typename Rep = std::uint32_t>
class IdAllocator {
 public:
  Id<Tag, Rep> allocate() { return Id<Tag, Rep>{next_++}; }

  /// Ids handed out so far.
  Rep allocated() const { return next_; }

 private:
  Rep next_{0};
};

struct NodeTag {};
struct LinkTag {};
struct PortTag {};
struct SessionTag {};
struct TimerTag {};

using NodeId = Id<NodeTag>;
using LinkId = Id<LinkTag>;
/// Port numbers are local to a node; 0-based.
using PortId = Id<PortTag>;
using SessionId = Id<SessionTag>;
using SessionIdAllocator = IdAllocator<SessionTag>;
using TimerId = Id<TimerTag, std::uint64_t>;

/// Autonomous System number. Not an Id: AS numbers are externally assigned
/// (by topology files or generators), not densely allocated.
class AsNumber {
 public:
  constexpr AsNumber() = default;
  constexpr explicit AsNumber(std::uint32_t v) : v_{v} {}

  constexpr std::uint32_t value() const { return v_; }
  constexpr auto operator<=>(const AsNumber&) const = default;

  /// "AS<n>".
  void append_to(std::string& out) const {
    out += "AS";
    append_decimal(out, v_);
  }
  std::string to_string() const { return text_of(*this); }

 private:
  std::uint32_t v_{0};
};

/// An AS number token: parse_uint64 within [1, 4294967295].
inline std::optional<AsNumber> parse_as_number(std::string_view token) {
  const auto v = parse_uint64(token);
  if (!v || *v == 0 || *v > 0xFFFFFFFFu) return std::nullopt;
  return AsNumber{static_cast<std::uint32_t>(*v)};
}

}  // namespace bgpsdn::core

namespace std {
template <typename Tag, typename Rep>
struct hash<bgpsdn::core::Id<Tag, Rep>> {
  size_t operator()(const bgpsdn::core::Id<Tag, Rep>& id) const noexcept {
    return std::hash<Rep>{}(id.value());
  }
};
template <>
struct hash<bgpsdn::core::AsNumber> {
  size_t operator()(const bgpsdn::core::AsNumber& as) const noexcept {
    return std::hash<std::uint32_t>{}(as.value());
  }
};
}  // namespace std
