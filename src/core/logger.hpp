// Structured event logging.
//
// The paper's framework ships "tools for automatic log file analysis"; here
// every component emits typed records into a Logger, and analysis tools
// (convergence detection, route-change tracking) consume the same records
// instead of re-parsing text.
//
// Records are formatted in place. An emitter hands Logger::log the pieces
// of its detail text (strings, characters, integers, and values with an
// `append_to(std::string&)` member such as addresses, prefixes and UPDATEs);
// below the minimum level nothing is formatted at all, and otherwise the
// pieces are appended into one buffer the Logger owns and reuses, so a
// record costs no temporary strings. Sinks receive a LogRecord whose text
// fields are views into that buffer and into the emitter's own names: they
// are valid only for the duration of the sink call. A sink that keeps text
// copies it (OwnedLogRecord, or its own strings), and a sink must not log
// into the Logger that is calling it.
#pragma once

#include <concepts>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/text.hpp"
#include "core/time.hpp"

namespace bgpsdn::core {

enum class LogLevel { kTrace, kDebug, kInfo, kWarn, kError };

const char* to_string(LogLevel level);

/// A value that formats itself into a caller's buffer.
template <typename T>
concept AppendsText = requires(const T& value, std::string& out) {
  value.append_to(out);
};

/// Append one piece of log text: a value with append_to(), a character, an
/// integer (in decimal) or anything convertible to std::string_view.
template <typename T>
void append_text(std::string& out, const T& part) {
  if constexpr (AppendsText<T>) {
    part.append_to(out);
  } else if constexpr (std::is_same_v<T, char>) {
    out.push_back(part);
  } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    append_decimal(out, part);
  } else {
    out.append(std::string_view{part});
  }
}

/// One log record as sinks see it. `component` identifies the emitter
/// ("bgp.AS3", "ctrl.ctrl"), `event` is a stable machine-readable tag
/// ("update_rx", "flow_mod"), and `detail` is free text for humans. The
/// three are views, valid only during the sink call.
struct LogRecord {
  TimePoint when;
  LogLevel level{LogLevel::kInfo};
  std::string_view component;
  std::string_view event;
  std::string_view detail;

  std::string to_string() const;
};

/// A retained record: an owning copy of a LogRecord's text.
struct OwnedLogRecord {
  TimePoint when;
  LogLevel level{LogLevel::kInfo};
  std::string component;
  std::string event;
  std::string detail;

  explicit OwnedLogRecord(const LogRecord& rec)
      : when{rec.when},
        level{rec.level},
        component{rec.component},
        event{rec.event},
        detail{rec.detail} {}

  LogRecord view() const { return {when, level, component, event, detail}; }
  std::string to_string() const { return view().to_string(); }
};

/// Formats records and forwards them to registered sinks, and retains
/// owning copies. Retention can be disabled for long benchmark runs.
class Logger {
 public:
  using Sink = std::function<void(const LogRecord&)>;

  /// Emit one record whose detail text is `parts`, appended in order (see
  /// append_text). Nothing is formatted when `level` is below the minimum
  /// level.
  template <typename... Parts>
  void log(TimePoint when, LogLevel level, std::string_view component,
           std::string_view event, const Parts&... parts) {
    if (level < min_level_) return;
    detail_.clear();
    (append_text(detail_, parts), ...);
    deliver(LogRecord{when, level, component, event, detail_});
  }

  /// Records below this level are dropped entirely.
  void set_min_level(LogLevel level) { min_level_ = level; }

  /// Keep records in memory (default true). Sinks still fire when disabled.
  void set_retain(bool retain) { retain_ = retain; }

  /// Register a sink; returns an id for remove_sink.
  std::size_t add_sink(Sink sink);
  void remove_sink(std::size_t id);

  const std::vector<OwnedLogRecord>& records() const { return records_; }
  void clear() { records_.clear(); }

  /// All retained records matching an event tag (and optionally a component
  /// prefix), in time order.
  std::vector<OwnedLogRecord> filter(std::string_view event,
                                     std::string_view component_prefix = {}) const;

  /// Count of retained records with the given event tag.
  std::size_t count(std::string_view event) const;

 private:
  void deliver(const LogRecord& rec);

  LogLevel min_level_{LogLevel::kInfo};
  bool retain_{true};
  /// The detail text of the record being delivered; cleared, never shrunk.
  std::string detail_;
  std::vector<OwnedLogRecord> records_;
  std::vector<Sink> sinks_;  // removed sinks become empty std::function
};

}  // namespace bgpsdn::core
