#include "framework/matrix.hpp"

#include <map>
#include <sstream>
#include <stdexcept>

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

double parse_double(const std::string& token, const char* what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(token, &pos);
    if (pos != token.size()) throw std::invalid_argument{""};
    return v;
  } catch (...) {
    bad(std::string{what} + " needs a number, got '" + token + "'");
  }
}

std::size_t parse_count(const std::string& token, const char* what) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(token, &pos);
    if (pos != token.size() || v < 0) throw std::invalid_argument{""};
    return static_cast<std::size_t>(v);
  } catch (...) {
    bad(std::string{what} + " needs a non-negative integer, got '" + token +
        "'");
  }
}

std::uint64_t parse_seed(const std::string& token, const char* what) {
  const auto seed = parse_uint64(token);
  if (!seed) {
    bad(std::string{what} + " needs an unsigned 64-bit integer, got '" +
        token + "'");
  }
  return *seed;
}

void apply_topology(ExperimentSpec& spec, const std::string& value) {
  const auto colon = value.find(':');
  if (colon == std::string::npos) {
    bad("want <model>:<size>, e.g. clique:16");
  }
  const std::string model_name = value.substr(0, colon);
  const auto model = parse_topology_model(model_name);
  if (!model) bad("unknown topology model '" + model_name + "'");
  const std::size_t size =
      parse_count(value.substr(colon + 1), "topology size");
  if (size < 2) bad("topology size must be >= 2, got " + std::to_string(size));
  spec.topology = *model;
  spec.topology_size = size;
}

void apply_event(ExperimentSpec& spec, const std::string& value) {
  std::string name = value;
  std::optional<std::size_t> cycles;
  if (const auto colon = value.find(':'); colon != std::string::npos) {
    name = value.substr(0, colon);
    cycles = parse_count(value.substr(colon + 1), "flap cycle count");
  }
  const auto kind = parse_event_kind(name);
  if (!kind) bad("unknown event kind '" + name + "'");
  if (cycles) {
    if (*kind != EventKind::kFlapTrain) {
      bad("only flap events take a cycle count");
    }
    if (*cycles < 1) bad("flap-train needs at least 1 cycle");
    spec.flap_cycles = *cycles;
  }
  spec.event = *kind;
}

void apply_on_off(bool& slot, const std::string& value, const char* what) {
  if (value == "on") {
    slot = true;
  } else if (value == "off") {
    slot = false;
  } else {
    bad(std::string{"want on|off for "} + what + ", got '" + value + "'");
  }
}

}  // namespace

const std::vector<std::string>& axis_keys() {
  static const std::vector<std::string> keys{
      "topology", "sdn-frac",   "sdn-count", "event",
      "spt",      "damping",    "controller", "mrai",
      "recompute-delay", "replicas", "election-timeout-ms"};
  return keys;
}

void apply_axis_value(ExperimentSpec& spec, const std::string& axis,
                      const std::string& value) {
  try {
    if (axis == "topology") {
      apply_topology(spec, value);
    } else if (axis == "sdn-frac") {
      const double f = parse_double(value, "sdn-frac");
      if (f < 0.0 || f > 1.0) {
        bad("sdn fraction must be in [0, 1], got " + value);
      }
      spec.sdn_fraction = f;
    } else if (axis == "sdn-count") {
      spec.sdn_count = parse_count(value, "sdn-count");
      spec.sdn_fraction.reset();
    } else if (axis == "event") {
      apply_event(spec, value);
    } else if (axis == "spt") {
      if (value == "incremental") {
        spec.config.incremental_spt = true;
      } else if (value == "reference") {
        spec.config.incremental_spt = false;
      } else {
        bad("want incremental|reference, got '" + value + "'");
      }
    } else if (axis == "damping") {
      apply_on_off(spec.config.damping.enabled, value, "damping");
    } else if (axis == "controller") {
      if (value == "idr") {
        spec.config.controller_style = ControllerStyle::kIdrCentralized;
      } else if (value == "routeflow") {
        spec.config.controller_style = ControllerStyle::kRouteFlowMirror;
      } else {
        bad("want idr|routeflow, got '" + value + "'");
      }
    } else if (axis == "mrai") {
      const double s = parse_double(value, "mrai");
      if (s < 0.0) bad("mrai must be >= 0, got " + value);
      spec.config.timers.mrai = core::Duration::seconds_f(s);
    } else if (axis == "recompute-delay") {
      const double s = parse_double(value, "recompute-delay");
      if (s < 0.0) bad("recompute delay must be >= 0, got " + value);
      spec.config.recompute_delay = core::Duration::seconds_f(s);
    } else if (axis == "replicas") {
      const std::size_t n = parse_count(value, "replicas");
      if (n < 1 || n > 16) {
        bad("replicas must be in [1, 16], got " + value);
      }
      spec.config.controller_replicas = n;
    } else if (axis == "election-timeout-ms") {
      const double ms = parse_double(value, "election-timeout-ms");
      if (ms <= 0.0) bad("election timeout must be > 0, got " + value);
      spec.config.ha.election_min = core::Duration::seconds_f(ms / 1000.0);
      spec.config.ha.election_max = core::Duration::seconds_f(ms / 500.0);
    } else {
      throw std::invalid_argument{"unknown axis '" + axis +
                                  "' (known: " + join(axis_keys()) + ")"};
    }
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    if (what.rfind("unknown axis ", 0) == 0) throw;
    bad("bad value '" + value + "' for axis '" + axis + "': " + what);
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
  std::string text_line;
  std::size_t number = 0;
  const auto fail = [&](const std::string& message) {
    bad("line " + std::to_string(number) + ": " + message);
  };
  while (std::getline(in, text_line)) {
    ++number;
    std::istringstream ls{text_line};
    std::vector<std::string> t;
    std::string tok;
    while (ls >> tok) {
      if (tok[0] == '#') break;
      t.push_back(tok);
    }
    if (t.empty()) continue;
    const std::string& cmd = t[0];
    const auto need = [&](std::size_t n) {
      if (t.size() != n + 1) {
        fail(cmd + " expects " + std::to_string(n) + " argument(s)");
      }
    };
    try {
      if (cmd == "matrix") {
        need(1);
        matrix.name = t[1];
      } else if (cmd == "trials") {
        need(1);
        matrix.trials = parse_count(t[1], "trials");
        if (matrix.trials < 1) fail("trials must be >= 1");
      } else if (cmd == "base-seed") {
        need(1);
        matrix.base_seed = parse_seed(t[1], "base-seed");
      } else if (cmd == "axis") {
        if (t.size() < 2) fail("usage: axis <key> <value...>");
        const std::string& key = t[1];
        bool known = false;
        for (const auto& k : axis_keys()) known |= k == key;
        if (!known) {
          fail("unknown axis '" + key + "' (known: " + join(axis_keys()) +
               ")");
        }
        for (const auto& existing : matrix.axes) {
          if (existing.name == key) fail("axis '" + key + "' declared twice");
        }
        if (t.size() < 3) fail("axis '" + key + "' has no values");
        MatrixAxis axis;
        axis.name = key;
        for (std::size_t i = 2; i < t.size(); ++i) {
          for (const auto& seen : axis.values) {
            if (seen == t[i]) {
              fail("duplicate value '" + t[i] + "' in axis '" + key + "'");
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
        need(2);
        apply_axis_value(matrix.base, "topology", t[1] + ":" + t[2]);
      } else if (cmd == "link-delay-ms") {
        need(1);
        const double ms = parse_double(t[1], "link-delay-ms");
        if (ms < 0.0) fail("link delay must be >= 0");
        matrix.base.config.default_link.delay =
            core::Duration::seconds_f(ms / 1000.0);
      } else if (cmd == "wait-quiet") {
        need(1);
        const double s = parse_double(t[1], "wait-quiet");
        if (s < 0.0) fail("wait-quiet must be >= 0");
        matrix.base.wait_quiet = core::Duration::seconds_f(s);
      } else if (cmd == "flaps") {
        need(1);
        matrix.base.flap_cycles = parse_count(t[1], "flaps");
        if (matrix.base.flap_cycles < 1) fail("flaps must be >= 1");
      } else if (cmd == "announce") {
        need(2);
        const auto as = parse_as_number(t[1]);
        if (!as) {
          fail("announce AS needs an integer in [1, 4294967295], got '" +
               t[1] + "'");
        }
        const auto prefix = net::Prefix::parse(t[2]);
        if (!prefix) fail("bad prefix '" + t[2] + "'");
        matrix.base.announcements.emplace_back(*as, *prefix);
      } else if (cmd == "fault-seed") {
        need(1);
        matrix.base.faults.seed = parse_seed(t[1], "fault-seed");
      } else if (cmd == "fault") {
        if (t.size() < 3) fail("usage: fault <seconds> <event...>");
        const double at_s = parse_double(t[1], "fault time");
        if (at_s < 0.0) fail("fault time must be >= 0");
        matrix.base.faults.events.push_back(FaultPlan::parse_event(
            {t.begin() + 2, t.end()}, core::Duration::seconds_f(at_s)));
      } else {
        bool is_axis_key = false;
        for (const auto& k : axis_keys()) is_axis_key |= k == cmd;
        if (is_axis_key) {
          // Fixed setting with an axis key: `mrai 30`, `damping on`, ...
          need(1);
          apply_axis_value(matrix.base, cmd, t[1]);
        } else {
          fail("unknown key '" + cmd + "'");
        }
      }
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      if (what.rfind("line ", 0) == 0) throw;
      fail(what);
    }
  }
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
    cell.spec.trials = trials;
    cell.spec.base_seed = base_seed;
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

}  // namespace bgpsdn::framework
