// Route-flap damping (RFC 2439, simplified).
//
// The distributed counterpart of the controller's delayed recomputation:
// where the IDR controller batches bursty input centrally, a damping BGP
// router penalizes prefixes that flap on a peering and suppresses them
// until the exponentially-decaying penalty falls below the reuse
// threshold. Disabled by default (as in Quagga); the experiments enable it
// for stability comparisons.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "core/ids.hpp"
#include "core/time.hpp"
#include "net/ip.hpp"

namespace bgpsdn::bgp {

/// The penalties and thresholds are RFC 2439's suggested figures
/// (damping.cpp); only the decay and the ceiling are settable.
struct DampingConfig {
  bool enabled{false};
  /// Penalty halves every half_life.
  core::Duration half_life{core::Duration::seconds(900)};
  /// Penalty ceiling, expressed as the longest time a route may stay
  /// suppressed after its last flap.
  core::Duration max_suppress{core::Duration::seconds(3600)};
};

/// Per-(session, prefix) flap bookkeeping.
class FlapDampener {
 public:
  explicit FlapDampener(DampingConfig config = {}) : config_{config} {}

  const DampingConfig& config() const { return config_; }

  struct Verdict {
    double penalty{0.0};
    bool suppressed{false};
    /// When suppressed: how long until the penalty decays to the reuse
    /// threshold (callers schedule a re-evaluation then).
    core::Duration reuse_after{core::Duration::zero()};
  };

  /// Record one flap (withdrawal or attribute-changing update) and return
  /// the resulting state. No-op (never suppressed) when disabled.
  Verdict record_flap(core::SessionId session, const net::Prefix& prefix,
                      bool withdrawal, core::TimePoint now);

  /// Current suppression state without adding penalty.
  bool is_suppressed(core::SessionId session, const net::Prefix& prefix,
                     core::TimePoint now) const;

  double penalty(core::SessionId session, const net::Prefix& prefix,
                 core::TimePoint now) const;

  /// Whether the dampener has ever seen this route flap.
  bool has_history(core::SessionId session, const net::Prefix& prefix) const;

  /// Drop all state learned from a session (session reset).
  void clear_session(core::SessionId session);

  std::uint64_t total_suppressions() const { return suppressions_; }

 private:
  struct State {
    double penalty{0.0};
    core::TimePoint updated_at;
    bool suppressed{false};
  };
  using Key = std::pair<std::uint32_t, net::Prefix>;

  double decayed(const State& s, core::TimePoint now) const;
  core::Duration time_to_reach(double from, double to) const;

  DampingConfig config_;
  std::map<Key, State> state_;
  std::uint64_t suppressions_{0};
};

}  // namespace bgpsdn::bgp
