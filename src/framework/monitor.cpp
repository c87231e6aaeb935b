#include "framework/monitor.hpp"

#include <cstdio>

#include "framework/experiment.hpp"

namespace bgpsdn::framework {

RouteChangeTracker::RouteChangeTracker(core::Logger& logger) : logger_{logger} {
  sink_id_ = logger_.add_sink([this](const core::LogRecord& rec) {
    // The record's text is only valid during this call: keep copies.
    if (rec.event == "best_changed") {
      changes_.push_back({rec.when, std::string{rec.component},
                          std::string{rec.detail}, false});
    } else if (rec.event == "best_lost") {
      changes_.push_back({rec.when, std::string{rec.component},
                          std::string{rec.detail}, true});
    }
  });
}

RouteChangeTracker::RouteChangeTracker(Experiment& experiment)
    : RouteChangeTracker{experiment.logger()} {}

RouteChangeTracker::~RouteChangeTracker() { logger_.remove_sink(sink_id_); }

telemetry::Json RouteChangeTracker::snapshot() const {
  telemetry::Json j = telemetry::Json::object();
  j["total"] = static_cast<std::int64_t>(changes_.size());
  std::int64_t lost = 0;
  for (const auto& c : changes_) lost += c.lost ? 1 : 0;
  j["lost"] = lost;
  j["first_ns"] =
      changes_.empty() ? 0 : changes_.front().when.nanos_since_origin();
  j["last_ns"] =
      changes_.empty() ? 0 : changes_.back().when.nanos_since_origin();
  return j;
}

std::size_t RouteChangeTracker::count_for(const std::string& router_prefix) const {
  std::size_t n = 0;
  for (const auto& c : changes_) {
    if (c.router.compare(0, router_prefix.size(), router_prefix) == 0) ++n;
  }
  return n;
}

std::string RouteChangeTracker::timeline() const {
  std::string out;
  for (const auto& c : changes_) {
    out += c.when.to_string();
    out += "  ";
    out += c.router;
    out += c.lost ? "  LOST " : "  -> ";
    out += c.detail;
    out += '\n';
  }
  return out;
}

UpdateRateMonitor::UpdateRateMonitor(core::Logger& logger,
                                     core::Duration bucket_width)
    : logger_{logger}, width_{bucket_width} {
  sink_id_ = logger_.add_sink([this](const core::LogRecord& rec) {
    if (rec.event != "update_tx" && rec.event != "speaker_announce" &&
        rec.event != "speaker_withdraw") {
      return;
    }
    const auto bucket = static_cast<std::uint64_t>(rec.when.nanos_since_origin() /
                                                   width_.count_nanos());
    ++buckets_[bucket];
    ++total_;
  });
}

UpdateRateMonitor::UpdateRateMonitor(Experiment& experiment,
                                     core::Duration bucket_width)
    : UpdateRateMonitor{experiment.logger(), bucket_width} {}

UpdateRateMonitor::~UpdateRateMonitor() { logger_.remove_sink(sink_id_); }

telemetry::Json UpdateRateMonitor::snapshot() const {
  telemetry::Json j = telemetry::Json::object();
  j["total"] = static_cast<std::int64_t>(total_);
  j["bucket_width_ns"] = width_.count_nanos();
  telemetry::Json buckets = telemetry::Json::array();
  for (const auto& [bucket, count] : buckets_) {
    telemetry::Json entry = telemetry::Json::array();
    entry.push_back(static_cast<std::int64_t>(bucket));
    entry.push_back(static_cast<std::int64_t>(count));
    buckets.push_back(std::move(entry));
  }
  j["buckets"] = std::move(buckets);
  return j;
}

std::string UpdateRateMonitor::to_string() const {
  std::string out;
  for (const auto& [bucket, count] : buckets_) {
    const double t = static_cast<double>(bucket) * width_.to_seconds();
    char buf[64];
    std::snprintf(buf, sizeof buf, "t=%.1fs n=%llu\n", t,
                  static_cast<unsigned long long>(count));
    out += buf;
  }
  return out;
}

}  // namespace bgpsdn::framework
