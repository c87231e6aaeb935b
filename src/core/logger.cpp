#include "core/logger.hpp"

namespace bgpsdn::core {

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

std::string LogRecord::to_string() const {
  std::string s = when.to_string();
  s += " [";
  s += bgpsdn::core::to_string(level);
  s += "] ";
  s += component;
  s += " ";
  s += event;
  if (!detail.empty()) {
    s += ": ";
    s += detail;
  }
  return s;
}

void Logger::deliver(const LogRecord& rec) {
  for (const auto& sink : sinks_) {
    if (sink) sink(rec);
  }
  if (retain_) records_.emplace_back(rec);
}

std::size_t Logger::add_sink(Sink sink) {
  sinks_.push_back(std::move(sink));
  return sinks_.size() - 1;
}

void Logger::remove_sink(std::size_t id) {
  if (id < sinks_.size()) sinks_[id] = nullptr;
}

std::vector<OwnedLogRecord> Logger::filter(std::string_view event,
                                           std::string_view component_prefix) const {
  std::vector<OwnedLogRecord> out;
  for (const auto& r : records_) {
    if (r.event != event) continue;
    if (!std::string_view{r.component}.starts_with(component_prefix)) continue;
    out.push_back(r);
  }
  return out;
}

std::size_t Logger::count(std::string_view event) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.event == event) ++n;
  }
  return n;
}

}  // namespace bgpsdn::core
