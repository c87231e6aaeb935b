#include "bgp/damping.hpp"

#include <algorithm>
#include <cmath>

namespace bgpsdn::bgp {

namespace {
/// Penalty added when the route is withdrawn / when it is re-advertised or
/// its attributes change (RFC 2439 suggested figures).
constexpr double kWithdrawPenalty = 1000.0;
constexpr double kUpdatePenalty = 500.0;
/// Suppress above this, reuse below that.
constexpr double kSuppressThreshold = 2000.0;
constexpr double kReuseThreshold = 750.0;
}  // namespace

double FlapDampener::decayed(const State& s, core::TimePoint now) const {
  const double dt = (now - s.updated_at).to_seconds();
  if (dt <= 0.0) return s.penalty;
  return s.penalty * std::exp2(-dt / config_.half_life.to_seconds());
}

core::Duration FlapDampener::time_to_reach(double from, double to) const {
  if (from <= to) return core::Duration::zero();
  const double half_lives = std::log2(from / to);
  return config_.half_life * half_lives;
}

FlapDampener::Verdict FlapDampener::record_flap(core::SessionId session,
                                                const net::Prefix& prefix,
                                                bool withdrawal,
                                                core::TimePoint now) {
  Verdict verdict;
  if (!config_.enabled) return verdict;

  State& s = state_[{session.value(), prefix}];
  const double before = decayed(s, now);
  // Suppression that already lapsed by decay is cleared before the new
  // flap is scored.
  if (s.suppressed && before <= kReuseThreshold) s.suppressed = false;
  double penalty = before + (withdrawal ? kWithdrawPenalty : kUpdatePenalty);
  // Ceiling: a route may never stay suppressed longer than max_suppress
  // after its last flap.
  const double ceiling =
      kReuseThreshold *
      std::exp2(config_.max_suppress.to_seconds() / config_.half_life.to_seconds());
  penalty = std::min(penalty, ceiling);

  const bool was_suppressed = s.suppressed;
  s.penalty = penalty;
  s.updated_at = now;
  if (penalty >= kSuppressThreshold) {
    s.suppressed = true;
    if (!was_suppressed) ++suppressions_;
  }
  verdict.penalty = penalty;
  verdict.suppressed = s.suppressed;
  if (s.suppressed) {
    verdict.reuse_after = time_to_reach(penalty, kReuseThreshold);
  }
  return verdict;
}

bool FlapDampener::is_suppressed(core::SessionId session,
                                 const net::Prefix& prefix,
                                 core::TimePoint now) const {
  if (!config_.enabled) return false;
  const auto it = state_.find({session.value(), prefix});
  if (it == state_.end() || !it->second.suppressed) return false;
  // Suppression lapses once the decayed penalty crosses the reuse line.
  return decayed(it->second, now) > kReuseThreshold;
}

double FlapDampener::penalty(core::SessionId session, const net::Prefix& prefix,
                             core::TimePoint now) const {
  const auto it = state_.find({session.value(), prefix});
  return it == state_.end() ? 0.0 : decayed(it->second, now);
}

bool FlapDampener::has_history(core::SessionId session,
                               const net::Prefix& prefix) const {
  return state_.count({session.value(), prefix}) > 0;
}

void FlapDampener::clear_session(core::SessionId session) {
  for (auto it = state_.begin(); it != state_.end();) {
    if (it->first.first == session.value()) {
      it = state_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace bgpsdn::bgp
