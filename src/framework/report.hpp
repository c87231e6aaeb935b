// BenchReport — the schema-stable JSON document every bench emits.
//
// Schema "bgpsdn.bench/1":
//   {
//     "schema": "bgpsdn.bench/1",
//     "bench": "<bench name>",
//     "params": { "<name>": <value>, ... },
//     "points": [
//       { "label": "...", "n": 10, "min": .., "q1": .., "median": ..,
//         "q3": .., "max": .., "mean": .., "stddev": ..,
//         "values": [..], "extra": { ... } },
//       ...
//     ],
//     "counters": { "<metric>": <int>, ... },
//     "footer": { "trials": .., "jobs": .., "wall_s": ..,
//                 "serial_equivalent_s": .., "speedup": ..,
//                 "trials_per_s": .. }
//   }
//
// Everything except the footer (wall-clock measurements) is deterministic
// for a given seed — byte-identical at any BGPSDN_JOBS value.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "framework/stats.hpp"
#include "framework/trial.hpp"
#include "telemetry/json.hpp"

namespace bgpsdn::framework {

class BenchReport {
 public:
  explicit BenchReport(std::string bench_name);

  /// Record a sweep parameter (shows under "params").
  void set_param(const std::string& name, telemetry::Json value);

  /// Append one sweep point: boxplot stats over `values`, raw values, and
  /// optional point-specific extras (e.g. per-point counters).
  void add_point(const std::string& label, const Summary& summary,
                 const std::vector<double>& values,
                 telemetry::Json extra = telemetry::Json::object());

  /// Accumulate a run-wide counter (summed across calls with one name).
  void add_counter(const std::string& name, std::int64_t value);
  /// add_counter for every entry of one task's counter map; callers merge
  /// the tasks of a sweep in task order.
  void add_counters(const std::map<std::string, std::int64_t>& counters);

  /// Wall-clock footer of a sweep: trials, jobs, wall_s, the
  /// serial-equivalent seconds (what one worker would have taken), speedup
  /// and throughput.
  void set_footer(const SweepTiming& timing);

  telemetry::Json to_json() const;
  std::string dump() const { return to_json().dump(); }

  /// Serialize to `path`; returns false (and leaves no partial file
  /// guarantees) on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  std::string bench_;
  telemetry::Json params_;
  telemetry::Json points_;
  telemetry::Json counters_;
  telemetry::Json footer_;
};

/// Prints the sweep footer line every sweep ends with:
/// `# sweep: N trials, jobs=J, wall W s, serial-equivalent S s, ...`.
void print_footer(const SweepTiming& timing);

}  // namespace bgpsdn::framework
