#include "framework/convergence.hpp"

#include <algorithm>

#include "framework/experiment.hpp"

namespace bgpsdn::framework {

ConvergenceDetector::ConvergenceDetector(core::EventLoop& loop,
                                         core::Logger& logger)
    : loop_{loop}, logger_{logger} {
  events_ = {
      "update_tx",        "update_rx",     "best_changed", "best_lost",
      "origin_announce",  "origin_withdraw",
      "speaker_announce", "speaker_withdraw", "speaker_rx",
      "flow_mod",         "flow_mod_tx",   "collector_rx",
      "session_up",       "session_down",
  };
  sink_id_ = logger_.add_sink([this](const core::LogRecord& rec) {
    if (events_.count(rec.event) == 0) return;
    last_activity_ = rec.when;
    ++activity_count_;
  });
  last_activity_ = loop_.now();
}

ConvergenceDetector::ConvergenceDetector(Experiment& experiment)
    : ConvergenceDetector{experiment.loop(), experiment.logger()} {}

ConvergenceDetector::~ConvergenceDetector() { logger_.remove_sink(sink_id_); }

telemetry::Json ConvergenceDetector::snapshot() const {
  telemetry::Json j = telemetry::Json::object();
  j["activity_count"] = static_cast<std::int64_t>(activity_count_);
  j["last_activity_ns"] = last_activity_.nanos_since_origin();
  j["timed_out"] = timed_out_;
  return j;
}

ConvergenceResult ConvergenceDetector::wait(const WaitOpts& opts) {
  timed_out_ = false;
  // Anchor the quiet window at the call time: the caller has typically just
  // injected an event (withdrawal, link failure) whose consequences are
  // still queued, and a stale activity timestamp must not end the wait
  // before they run.
  if (last_activity_ < loop_.now()) last_activity_ = loop_.now();
  const core::TimePoint deadline = loop_.now() + opts.timeout;
  while (true) {
    const core::TimePoint quiet_until = last_activity_ + opts.quiet;
    if (loop_.now() >= quiet_until) break;
    if (loop_.now() >= deadline) {
      timed_out_ = true;
      break;
    }
    const core::TimePoint target = std::min(quiet_until, deadline);
    // Execute everything due before the target; if the queue runs dry the
    // loop clock still advances to the target.
    loop_.advance_to(target);
  }
  ConvergenceResult result;
  result.instant = last_activity_;
  result.timed_out = timed_out_;
  result.quiet_window = opts.quiet;
  return result;
}

}  // namespace bgpsdn::framework
