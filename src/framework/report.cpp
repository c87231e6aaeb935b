#include "framework/report.hpp"

#include <cstdio>

namespace bgpsdn::framework {

BenchReport::BenchReport(std::string bench_name)
    : bench_{std::move(bench_name)},
      params_{telemetry::Json::object()},
      points_{telemetry::Json::array()},
      counters_{telemetry::Json::object()},
      footer_{telemetry::Json::object()} {}

void BenchReport::set_param(const std::string& name, telemetry::Json value) {
  params_[name] = std::move(value);
}

void BenchReport::add_point(const std::string& label, const Summary& summary,
                            const std::vector<double>& values,
                            telemetry::Json extra) {
  telemetry::Json p = telemetry::Json::object();
  p["label"] = label;
  p["n"] = static_cast<std::int64_t>(summary.n);
  p["min"] = summary.min;
  p["q1"] = summary.q1;
  p["median"] = summary.median;
  p["q3"] = summary.q3;
  p["max"] = summary.max;
  p["mean"] = summary.mean;
  p["stddev"] = summary.stddev;
  telemetry::Json vals = telemetry::Json::array();
  for (const double v : values) vals.push_back(v);
  p["values"] = std::move(vals);
  p["extra"] = std::move(extra);
  points_.push_back(std::move(p));
}

void BenchReport::add_counter(const std::string& name, std::int64_t value) {
  if (const telemetry::Json* existing = counters_.find(name)) {
    counters_[name] = existing->as_int() + value;
  } else {
    counters_[name] = value;
  }
}

void BenchReport::add_counters(
    const std::map<std::string, std::int64_t>& counters) {
  for (const auto& [name, value] : counters) add_counter(name, value);
}

void BenchReport::set_footer(const SweepTiming& timing) {
  footer_ = telemetry::Json::object();
  footer_["trials"] = static_cast<std::int64_t>(timing.trials);
  footer_["jobs"] = static_cast<std::int64_t>(timing.jobs);
  footer_["wall_s"] = timing.wall_seconds;
  footer_["serial_equivalent_s"] = timing.serial_seconds;
  footer_["speedup"] = timing.speedup();
  footer_["trials_per_s"] = timing.trials_per_second();
}

telemetry::Json BenchReport::to_json() const {
  telemetry::Json j = telemetry::Json::object();
  j["schema"] = std::string{"bgpsdn.bench/1"};
  j["bench"] = bench_;
  j["params"] = params_;
  j["points"] = points_;
  j["counters"] = counters_;
  j["footer"] = footer_;
  return j;
}

bool BenchReport::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = dump();
  const std::size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  const bool newline_ok = std::fputc('\n', f) != EOF;
  const bool close_ok = std::fclose(f) == 0;
  return written == doc.size() && newline_ok && close_ok;
}

void print_footer(const SweepTiming& timing) {
  std::printf(
      "# sweep: %zu trials, jobs=%zu, wall %.2f s, serial-equivalent %.2f s, "
      "speedup %.2fx, %.2f trials/s\n",
      timing.trials, timing.jobs, timing.wall_seconds, timing.serial_seconds,
      timing.speedup(), timing.trials_per_second());
  std::fflush(stdout);
}

}  // namespace bgpsdn::framework
