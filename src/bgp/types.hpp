// Common BGP value types and protocol constants.
#pragma once

#include <cstdint>
#include <string>

#include "core/ids.hpp"
#include "core/time.hpp"

namespace bgpsdn::bgp {

/// ORIGIN attribute values (RFC 4271 §5.1.1); lower is preferred.
enum class Origin : std::uint8_t { kIgp = 0, kEgp = 1, kIncomplete = 2 };

const char* to_string(Origin o);

/// Business relationship of a peer, Gao-Rexford style. Drives both the
/// import local-preference and the export filter.
enum class Relationship : std::uint8_t {
  kCustomer,  // peer is our customer
  kPeer,      // settlement-free peer
  kProvider,  // peer is our provider
};

const char* to_string(Relationship r);

/// The relationship seen from the other side of the link.
constexpr Relationship reverse(Relationship r) {
  switch (r) {
    case Relationship::kCustomer: return Relationship::kProvider;
    case Relationship::kProvider: return Relationship::kCustomer;
    case Relationship::kPeer: return Relationship::kPeer;
  }
  return Relationship::kPeer;
}

/// Default import local-preference per relationship: prefer customer routes
/// over peer routes over provider routes (standard operator practice).
constexpr std::uint32_t default_local_pref(Relationship r) {
  switch (r) {
    case Relationship::kCustomer: return 130;
    case Relationship::kPeer: return 100;
    case Relationship::kProvider: return 70;
  }
  return 100;
}

/// The jitter applied to the MRAI and keepalive timers, as fractions of
/// the interval: 75%-100%, as BGP implementations do.
inline constexpr double kTimerJitterLow = 0.75;
inline constexpr double kTimerJitterHigh = 1.0;

/// Protocol timer defaults. MRAI and keepalive follow Quagga's eBGP
/// defaults.
struct Timers {
  core::Duration hold{core::Duration::seconds(90)};
  core::Duration keepalive{core::Duration::seconds(30)};
  /// Minimum Route Advertisement Interval (per peer). The dominant clock of
  /// BGP path exploration and therefore of the paper's experiments. Paced
  /// the Quagga way: a free-running per-peer advertisement timer fires
  /// every (jittered) MRAI and flushes whatever announcements are pending,
  /// so a change waits for the next tick — on average half an interval.
  core::Duration mrai{core::Duration::seconds(30)};
};

}  // namespace bgpsdn::bgp
