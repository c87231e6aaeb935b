// Flow table of an SDN switch.
//
// Matches are (in_port, protocol, destination prefix) with a priority; the
// highest-priority most-specific match wins. Actions: output to a port,
// send to the controller, or drop. This is the OpenFlow 1.0 subset the
// paper's use-case needs (L3 destination routing + control-plane relays).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ids.hpp"
#include "net/ip.hpp"
#include "net/packet.hpp"

namespace bgpsdn::sdn {

/// Priority bands shared by everything that programs switch tables.
/// Data-plane routing rules sit below control-plane plumbing (the static
/// BGP relay paths), so a switch that loses its controller can flush all
/// routing state (`remove_below_priority(kRelayRulePriority)`) while the
/// relay rules — and with them the cluster speaker's reachability —
/// survive.
inline constexpr std::uint16_t kDataRulePriority = 100;
inline constexpr std::uint16_t kRelayRulePriority = 200;

struct FlowMatch {
  /// Wildcard when unset.
  std::optional<core::PortId> in_port;
  std::optional<net::Protocol> proto;
  /// Destination prefix; 0.0.0.0/0 matches everything.
  net::Prefix dst{net::Prefix::default_route()};

  bool matches(core::PortId ingress, const net::Packet& p) const {
    if (in_port && *in_port != ingress) return false;
    if (proto && *proto != p.proto) return false;
    return dst.contains(p.dst);
  }

  bool operator==(const FlowMatch&) const = default;

  /// e.g. "dst=10.1.0.0/16 in_port=2 proto=bgp".
  void append_to(std::string& out) const;
  std::string to_string() const;
};

enum class ActionType : std::uint8_t { kOutput = 0, kToController = 1, kDrop = 2 };

struct FlowAction {
  ActionType type{ActionType::kDrop};
  core::PortId port;  // for kOutput

  static FlowAction output(core::PortId p) { return {ActionType::kOutput, p}; }
  static FlowAction to_controller() { return {ActionType::kToController, {}}; }
  static FlowAction drop() { return {ActionType::kDrop, {}}; }

  bool operator==(const FlowAction&) const = default;

  /// "output:<port>", "controller" or "drop".
  void append_to(std::string& out) const;
  std::string to_string() const;
};

struct FlowEntry {
  FlowMatch match;
  std::uint16_t priority{0};
  FlowAction action;
  /// Statistics.
  std::uint64_t packets{0};
  std::uint64_t bytes{0};

  std::string to_string() const;
};

/// Priority-ordered flow table. Selection: among entries whose match
/// accepts the packet, highest priority wins; ties broken by longer dst
/// prefix, then insertion order (first wins).
///
/// lookup() is indexed: entries are bucketed by dst prefix length and hashed
/// on the masked network bits, so a lookup probes one hash bucket per
/// distinct prefix length present in the table (tracked in a bitmask)
/// instead of scanning every entry. Because priority can beat prefix length,
/// every present length is probed — there is no longest-match early exit —
/// but the per-bucket candidate lists are tiny in practice. The index is
/// rebuilt wholesale by the remove_* APIs (control-plane-rate operations);
/// lookup (data-plane rate) never mutates it.
class FlowTable {
 public:
  /// Insert or overwrite (same match+priority replaces).
  void add(FlowEntry entry);

  /// Remove entries with identical match and priority. Returns count removed.
  std::size_t remove(const FlowMatch& match, std::uint16_t priority);

  /// Remove every entry whose dst prefix equals `dst` (any priority/port).
  std::size_t remove_by_dst(const net::Prefix& dst);

  /// Remove every entry with priority strictly below `floor` (standalone-
  /// mode flush: drop routing state, keep control-plane plumbing).
  std::size_t remove_below_priority(std::uint16_t floor);

  /// Find the winning entry (and bump its counters if `account`).
  const FlowEntry* lookup(core::PortId ingress, const net::Packet& p,
                          bool account = true);

  std::size_t size() const { return entries_.size(); }
  const std::vector<FlowEntry>& entries() const { return entries_; }
  void clear();

  /// Deterministic bytes held by the table under the core/mem_stats.hpp
  /// allocation model: the entry slab plus the lookup index (hash nodes,
  /// bucket arrays, and per-bucket candidate vectors). Depends only on the
  /// programmed flow state, never on host allocator behavior.
  std::uint64_t approx_bytes() const;

 private:
  /// Masked network bits for `addr` at prefix length `len`.
  static std::uint32_t key_at(std::uint32_t addr_bits, int len) {
    return len == 0 ? 0u : addr_bits & (~std::uint32_t{0} << (32 - len));
  }
  void index_entry(std::size_t i);
  void rebuild_index();

  std::vector<FlowEntry> entries_;
  /// Entry indices (ascending = insertion order) bucketed by
  /// [dst prefix length][masked dst network bits].
  std::array<std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>, 33>
      by_len_;
  /// Bit L set iff by_len_[L] is non-empty.
  std::uint64_t len_mask_{0};
};

}  // namespace bgpsdn::sdn
