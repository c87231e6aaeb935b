#include "framework/matrix.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "framework/config_text.hpp"
#include "framework/report.hpp"
#include "framework/stats.hpp"
#include "framework/trial.hpp"

namespace bgpsdn::framework {

namespace {

[[noreturn]] void bad(const std::string& message) {
  throw std::invalid_argument{message};
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out;
}

constexpr std::uint64_t kMaxCount = std::numeric_limits<std::size_t>::max();

bool is_axis_key(const std::string& key) {
  const auto& keys = axis_keys();
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

void require_axis_key(const std::string& key) {
  if (!is_axis_key(key)) {
    bad("unknown axis '" + key + "' (known: " + join(axis_keys()) + ")");
  }
}

/// `withdrawal`, `flap:6`, ...: an event kind with an optional cycle count
/// (flap trains only).
void apply_event(ExperimentSpec& spec, const std::string& value) {
  const auto colon = value.find(':');
  const auto kind = parse_event_kind(value.substr(0, colon));
  if (!kind || (colon != std::string::npos && *kind != EventKind::kFlapTrain)) {
    bad_value("event", value,
              "announcement|withdrawal|failover|flap-train[:<cycles>]");
  }
  if (colon != std::string::npos) {
    spec.flap_cycles = parse_integer("flaps", value.substr(colon + 1), 1,
                                     kMaxCount);
  }
  spec.event = *kind;
}

}  // namespace

const std::vector<std::string>& axis_keys() {
  static const std::vector<std::string> keys{
      "topology", "sdn-frac",        "sdn-count", "event",
      "damping",  "controller",      "mrai",      "recompute-delay",
      "replicas", "election-timeout-ms"};
  return keys;
}

void apply_axis_value(ExperimentSpec& spec, const std::string& axis,
                      const std::string& value) {
  require_axis_key(axis);
  if (axis == "topology") {
    const auto colon = value.find(':');
    if (colon == std::string::npos) bad_value(axis, value, "<model>:<size>");
    apply_topology(spec, value.substr(0, colon), value.substr(colon + 1));
  } else if (axis == "sdn-frac") {
    spec.sdn_fraction = parse_fraction(axis, value);
  } else if (axis == "sdn-count") {
    spec.sdn_count = parse_integer(axis, value, 0, kMaxCount);
    spec.sdn_fraction.reset();
  } else if (axis == "event") {
    apply_event(spec, value);
  } else {
    apply_setting(spec.config, axis, value);
  }
}

const std::string* MatrixCell::coord(const std::string& axis) const {
  for (const auto& [name, value] : coords) {
    if (name == axis) return &value;
  }
  return nullptr;
}

MatrixSpec MatrixSpec::parse(const std::string& text) {
  std::istringstream in{text};
  return parse(in);
}

MatrixSpec MatrixSpec::parse(std::istream& in) {
  MatrixSpec matrix;
  for_each_line(in, [&](const Tokens& t) {
    const std::string& cmd = t[0];
    if (cmd == "matrix") {
      expect_args(t, 1);
      matrix.name = t[1];
    } else if (cmd == "trials") {
      expect_args(t, 1);
      matrix.trials = parse_integer("trials", t[1], 1, kMaxCount);
    } else if (cmd == "base-seed") {
      matrix.base_seed = parse_seed_line(t);
    } else if (cmd == "axis") {
      if (t.size() < 2) bad("usage: axis <key> <value...>");
      const std::string& key = t[1];
      require_axis_key(key);
      for (const auto& existing : matrix.axes) {
        if (existing.name == key) bad("axis '" + key + "' declared twice");
      }
      if (t.size() < 3) bad("axis '" + key + "' has no values");
      MatrixAxis axis;
      axis.name = key;
      for (std::size_t i = 2; i < t.size(); ++i) {
        for (const auto& seen : axis.values) {
          if (seen == t[i]) {
            bad("duplicate value '" + t[i] + "' in axis '" + key + "'");
          }
        }
        // Validate the value's shape right here, against a scratch copy,
        // so a typo fails at its own line instead of inside expand().
        ExperimentSpec scratch = matrix.base;
        apply_axis_value(scratch, key, t[i]);
        axis.values.push_back(t[i]);
      }
      matrix.axes.push_back(std::move(axis));
    } else if (cmd == "topology") {
      // Scenario-DSL spelling: `topology clique 16`.
      expect_args(t, 2);
      apply_topology(matrix.base, t[1], t[2]);
    } else if (cmd == "wait-quiet") {
      expect_args(t, 1);
      matrix.base.wait_quiet = parse_seconds(cmd, t[1]);
    } else if (cmd == "flaps") {
      expect_args(t, 1);
      matrix.base.flap_cycles = parse_integer(cmd, t[1], 1, kMaxCount);
    } else if (cmd == "announce") {
      expect_args(t, 2);
      const auto as = parse_as(t[1]);
      matrix.base.announcements.emplace_back(as, parse_prefix(t[2]));
    } else if (cmd == "fault-seed") {
      matrix.base.faults.seed = parse_seed_line(t);
    } else if (cmd == "fault") {
      matrix.base.faults.events.push_back(parse_fault_line(t));
    } else if (is_setting_key(cmd)) {
      // A configuration key: `mrai 30`, `damping on`, `link-delay-ms 5`, ...
      expect_args(t, 1);
      apply_setting(matrix.base.config, cmd, t[1]);
    } else if (is_axis_key(cmd)) {
      // A spec-level axis key as a fixed setting: `event withdrawal`, ...
      expect_args(t, 1);
      apply_axis_value(matrix.base, cmd, t[1]);
    } else {
      bad("unknown key '" + cmd + "'");
    }
  });
  return matrix;
}

std::vector<MatrixCell> MatrixSpec::expand() const {
  if (axes.empty()) {
    bad("matrix declares no axes; add at least one 'axis' line");
  }
  std::size_t total = 1;
  for (const auto& axis : axes) total *= axis.values.size();

  std::vector<MatrixCell> cells;
  cells.reserve(total);
  std::map<std::string, std::string> signatures;  // signature -> label
  std::vector<std::size_t> odometer(axes.size(), 0);
  for (std::size_t index = 0; index < total; ++index) {
    MatrixCell cell;
    cell.spec = base;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const std::string& value = axes[a].values[odometer[a]];
      cell.coords.emplace_back(axes[a].name, value);
      if (!cell.label.empty()) cell.label += ',';
      cell.label += axes[a].name + "=" + value;
      apply_axis_value(cell.spec, axes[a].name, value);
    }
    try {
      cell.spec.resolve();
      cell.spec.validate();
    } catch (const std::invalid_argument& e) {
      bad("cell '" + cell.label + "': " + e.what());
    }
    const std::string sig = cell.spec.signature();
    if (const auto it = signatures.find(sig); it != signatures.end()) {
      bad("duplicate cells: '" + it->second + "' and '" + cell.label +
          "' configure identical experiments");
    }
    signatures.emplace(sig, cell.label);
    cells.push_back(std::move(cell));
    // Row-major order: the last axis varies fastest.
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++odometer[a] < axes[a].values.size()) break;
      odometer[a] = 0;
    }
  }
  return cells;
}

std::vector<MatrixCell> MatrixSpec::filter(std::vector<MatrixCell> cells,
                                           const std::string& axis,
                                           const std::string& value) const {
  const MatrixAxis* declared = nullptr;
  for (const auto& a : axes) {
    if (a.name == axis) declared = &a;
  }
  if (declared == nullptr) {
    std::vector<std::string> names;
    names.reserve(axes.size());
    for (const auto& a : axes) names.push_back(a.name);
    bad("unknown filter axis '" + axis + "' (declared axes: " + join(names) +
        ")");
  }
  bool known_value = false;
  for (const auto& v : declared->values) known_value |= v == value;
  if (!known_value) {
    bad("filter value '" + value + "' not in axis '" + axis +
        "' (values: " + join(declared->values) + ")");
  }
  std::vector<MatrixCell> kept;
  for (auto& cell : cells) {
    const std::string* coord = cell.coord(axis);
    if (coord != nullptr && *coord == value) kept.push_back(std::move(cell));
  }
  if (kept.empty()) bad("filter " + axis + "=" + value + " matches no cells");
  return kept;
}

bool run_spec_sweep(const std::vector<MatrixCell>& cells,
                    const std::string& key, std::size_t runs,
                    std::uint64_t base_seed, std::size_t jobs,
                    BenchReport* report,
                    const std::function<telemetry::Json(std::size_t)>& extra) {
  struct Trial {
    double seconds{0};
    std::map<std::string, std::int64_t> counters;
  };
  std::printf("%s\ttrial_s\ttrials_per_s\n", boxplot_header(key).c_str());
  const auto sweep = run_sweep(
      cells.size(), runs, jobs, [&](std::size_t cell, std::size_t run) {
        Trial trial;
        trial.seconds = cells[cell].spec.run_trial(
            base_seed + run, report != nullptr ? &trial.counters : nullptr);
        return trial;
      });
  bool all_ok = true;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::vector<double> values = sweep.values(c, &Trial::seconds);
    for (const double v : values) all_ok &= v >= 0.0;
    const Summary summary = summarize(values);
    const double seconds = sweep.point_seconds(c);
    std::printf("%s\t%.2f\t%.2f\n",
                boxplot_row(cells[c].label, summary).c_str(), seconds,
                seconds > 0 ? static_cast<double>(runs) / seconds : 0.0);
    if (report != nullptr) {
      report->add_point(cells[c].label, summary, values,
                        extra ? extra(c) : telemetry::Json::object());
    }
  }
  print_footer(sweep.timing);
  if (report != nullptr) {
    for (const Trial& trial : sweep.results) report->add_counters(trial.counters);
    report->set_footer(sweep.timing);
  }
  return all_ok;
}

}  // namespace bgpsdn::framework
