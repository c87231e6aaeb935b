// ConvergenceDetector — "the framework detects when the network has
// converged".
//
// Convergence is control-plane quiescence: no routing activity (BGP update
// transmissions, best-path changes, controller recomputation output, flow
// programming, speaker announcements) for a configurable quiet period.
// Keepalives and other liveness chatter do not count. The detector attaches
// as a Logger sink, so it observes exactly what the components emit.
#pragma once

#include <functional>
#include <set>
#include <string>

#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "core/time.hpp"
#include "framework/monitor_base.hpp"

namespace bgpsdn::framework {

/// Options for Experiment::wait_converged / ConvergenceDetector::wait.
struct WaitOpts {
  /// Quiet window that defines convergence. zero() = caller's default
  /// (Experiment substitutes 2x MRAI + 1 s).
  core::Duration quiet{core::Duration::zero()};
  /// Virtual-time budget for the whole wait.
  core::Duration timeout{core::Duration::seconds(3600)};
};

/// Structured result of a convergence wait.
struct ConvergenceResult {
  /// Time of the last routing activity — the convergence instant.
  core::TimePoint instant{};
  /// True when the timeout elapsed before the quiet window was met.
  bool timed_out{false};
  /// The quiet window that was actually applied (after defaulting).
  core::Duration quiet_window{core::Duration::zero()};

  /// Convergence latency relative to an event-injection instant.
  core::Duration since(core::TimePoint t0) const { return instant - t0; }
};

class ConvergenceDetector : public Monitor {
 public:
  /// Attaches to `logger` immediately.
  ConvergenceDetector(core::EventLoop& loop, core::Logger& logger);
  /// Convenience form for Experiment::attach_monitor.
  explicit ConvergenceDetector(Experiment& experiment);
  ~ConvergenceDetector() override;
  ConvergenceDetector(const ConvergenceDetector&) = delete;
  ConvergenceDetector& operator=(const ConvergenceDetector&) = delete;

  const char* kind() const override { return "convergence"; }
  /// {activity_count, last_activity_ns, timed_out}
  telemetry::Json snapshot() const override;

  /// Timestamp of the most recent routing activity (origin if none yet).
  core::TimePoint last_activity() const { return last_activity_; }
  std::uint64_t activity_count() const { return activity_count_; }

  /// Drive the event loop until `opts.quiet` virtual time passes with no
  /// routing activity, or `opts.timeout` virtual time elapses. The result's
  /// instant is the time of the last routing activity — the convergence
  /// instant, reported even when the timeout hits. A zero quiet window is
  /// used as-is here (the Experiment layer owns the MRAI-based defaulting).
  ConvergenceResult wait(const WaitOpts& opts);

 private:
  core::EventLoop& loop_;
  core::Logger& logger_;
  std::size_t sink_id_;
  /// The events that count as routing activity (BGP, the controller and
  /// the speaker). Transparent comparator: the sink looks records' event
  /// views up without building a std::string.
  std::set<std::string, std::less<>> events_;
  core::TimePoint last_activity_{};
  std::uint64_t activity_count_{0};
  bool timed_out_{false};
};

}  // namespace bgpsdn::framework
