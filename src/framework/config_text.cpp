#include "framework/config_text.hpp"

#include <algorithm>
#include <climits>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/text.hpp"

namespace bgpsdn::framework {

namespace {

/// A finite real in [lo, hi] (lo itself excluded when `open_lo`).
double parse_real(std::string_view key, std::string_view token, double lo,
                  double hi, bool open_lo, std::string_view domain) {
  const auto v = core::parse_real(token, lo, hi, open_lo);
  if (!v) bad_value(key, token, domain);
  return *v;
}

/// The index of `token` in `choices`; the domain lists them.
std::size_t parse_choice(std::string_view key, std::string_view token,
                         std::initializer_list<std::string_view> choices) {
  std::string domain;
  std::size_t index = 0;
  for (const auto choice : choices) {
    if (choice == token) return index;
    if (index++ > 0) domain += '|';
    domain += choice;
  }
  bad_value(key, token, domain);
}

/// Flap cycles and ramp steps, stored in an int.
int parse_steps(std::string_view key, std::string_view token) {
  return static_cast<int>(parse_integer(key, token, 1, INT_MAX));
}

struct Setting {
  std::string_view key;
  void (*apply)(ExperimentConfig&, std::string_view key,
                std::string_view value);
};

constexpr Setting kSettings[] = {
    {"mrai",
     [](ExperimentConfig& c, std::string_view k, std::string_view v) {
       c.timers.mrai = parse_seconds(k, v);
     }},
    {"recompute-delay",
     [](ExperimentConfig& c, std::string_view k, std::string_view v) {
       c.recompute_delay = parse_seconds(k, v);
     }},
    {"link-delay-ms",
     [](ExperimentConfig& c, std::string_view k, std::string_view v) {
       c.default_link.delay =
           core::Duration::seconds_f(parse_millis(k, v, false) / 1000.0);
     }},
    {"controller",
     [](ExperimentConfig& c, std::string_view k, std::string_view v) {
       c.controller_style = parse_choice(k, v, {"idr", "routeflow"}) == 0
                                ? ControllerStyle::kIdrCentralized
                                : ControllerStyle::kRouteFlowMirror;
     }},
    {"damping",
     [](ExperimentConfig& c, std::string_view k, std::string_view v) {
       c.damping.enabled = parse_choice(k, v, {"on", "off"}) == 0;
     }},
    {"replicas",
     [](ExperimentConfig& c, std::string_view k, std::string_view v) {
       c.controller_replicas = parse_integer(k, v, 1, 16);
     }},
    {"election-timeout-ms",
     [](ExperimentConfig& c, std::string_view k, std::string_view v) {
       // Timeouts are drawn from [min, 2*min], Raft-style.
       const double ms = parse_millis(k, v, true);
       c.ha.election_min = core::Duration::seconds_f(ms / 1000.0);
       c.ha.election_max = core::Duration::seconds_f(ms / 500.0);
     }},
};

const Setting* find_setting(std::string_view key) {
  const auto it = std::find_if(std::begin(kSettings), std::end(kSettings),
                               [&](const Setting& s) { return s.key == key; });
  return it == std::end(kSettings) ? nullptr : it;
}

}  // namespace

void for_each_line(std::istream& in,
                   const std::function<void(const Tokens&)>& fn) {
  std::string text;
  std::size_t number = 0;
  Tokens tokens;
  while (std::getline(in, text)) {
    ++number;
    tokens.clear();
    std::istringstream words{text};
    for (std::string tok; words >> tok && tok[0] != '#';) tokens.push_back(tok);
    if (tokens.empty()) continue;
    try {
      fn(tokens);
    } catch (const std::exception& e) {
      throw std::invalid_argument{"line " + std::to_string(number) + ": " +
                                  e.what()};
    }
  }
}

void expect_args(const Tokens& t, std::size_t n) {
  if (t.size() != n + 1) {
    throw std::invalid_argument{t[0] + " expects " + std::to_string(n) +
                                " argument(s)"};
  }
}

void bad_value(std::string_view key, std::string_view token,
               std::string_view domain) {
  throw std::invalid_argument{"bad " + std::string{key} + " '" +
                              std::string{token} + "' (want " +
                              std::string{domain} + ")"};
}

std::uint64_t parse_integer(std::string_view key, std::string_view token,
                            std::uint64_t lo, std::uint64_t hi) {
  const auto v = core::parse_uint64(token);
  if (!v || *v < lo || *v > hi) {
    bad_value(key, token, std::to_string(lo) + ".." + std::to_string(hi));
  }
  return *v;
}

core::AsNumber parse_as(std::string_view token) {
  return core::AsNumber{static_cast<std::uint32_t>(
      parse_integer("AS number", token, 1, 0xFFFFFFFFu))};
}

std::uint64_t parse_seed(std::string_view token) {
  return parse_integer("seed", token, 0,
                       std::numeric_limits<std::uint64_t>::max());
}

int parse_replica_id(std::string_view token) {
  return static_cast<int>(parse_integer("replica id", token, 0, 15));
}

core::Duration parse_seconds(std::string_view key, std::string_view token) {
  return core::Duration::seconds_f(
      parse_real(key, token, 0.0, 1e9, false, "seconds in [0, 1e9]"));
}

double parse_millis(std::string_view key, std::string_view token,
                    bool positive) {
  return parse_real(key, token, 0.0, 1e9, positive,
                    positive ? "ms in (0, 1e9]" : "ms in [0, 1e9]");
}

double parse_fraction(std::string_view key, std::string_view token) {
  return parse_real(key, token, 0.0, 1.0, false, "[0, 1]");
}

net::Prefix parse_prefix(std::string_view token) {
  const auto prefix = net::Prefix::parse(token);
  if (!prefix) bad_value("prefix", token, "a.b.c.d/len");
  return *prefix;
}

bool is_setting_key(std::string_view key) {
  return find_setting(key) != nullptr;
}

void apply_setting(ExperimentConfig& config, std::string_view key,
                   std::string_view value) {
  const Setting* setting = find_setting(key);
  if (setting == nullptr) {
    throw std::invalid_argument{"unknown setting '" + std::string{key} + "'"};
  }
  setting->apply(config, key, value);
}

void apply_topology(ExperimentSpec& spec, std::string_view model,
                    std::string_view size) {
  const auto parsed = parse_topology_model(model);
  if (!parsed) {
    bad_value("topology model", model,
              "clique|line|ring|star|synth-caida|internet-like");
  }
  spec.topology = *parsed;
  spec.topology_size = parse_integer("topology size", size, 2, 0xFFFFFFFFu);
}

std::uint64_t parse_seed_line(const Tokens& t) {
  expect_args(t, 1);
  return parse_seed(t[1]);
}

FaultEvent parse_fault_line(const Tokens& t) {
  if (t.size() < 3) {
    throw std::invalid_argument{"usage: " + t[0] + " <seconds> <event...>"};
  }
  FaultEvent e;
  e.at = parse_seconds("fault time", t[1]);
  const std::string& kind = t[2];
  const std::size_t args = t.size() - 3;
  const auto need = [&](std::size_t n) {
    if (args != n) {
      throw std::invalid_argument{"'" + kind + "' takes " + std::to_string(n) +
                                  " argument(s), got " + std::to_string(args)};
    }
  };
  // Link-targeting kinds: the link's two ASes, then n - 2 parameters.
  const auto link = [&](std::size_t n) {
    need(n);
    e.a = parse_as(t[3]);
    e.b = parse_as(t[4]);
  };
  if (kind == "link-down" || kind == "link-up") {
    link(2);
    e.kind = kind == "link-down" ? FaultKind::kLinkDown : FaultKind::kLinkUp;
  } else if (kind == "flap") {
    link(4);
    e.kind = FaultKind::kLinkFlap;
    e.count = parse_steps("flap count", t[5]);
    e.period = parse_seconds("flap period", t[6]);
  } else if (kind == "loss") {
    link(3);
    e.kind = FaultKind::kLinkLoss;
    e.value = parse_fraction("loss probability", t[5]);
  } else if (kind == "loss-ramp") {
    link(5);
    e.kind = FaultKind::kLossRamp;
    e.value = parse_fraction("ramp target", t[5]);
    e.count = parse_steps("ramp steps", t[6]);
    e.period = parse_seconds("ramp interval", t[7]);
  } else if (kind == "corrupt") {
    link(4);
    e.kind = FaultKind::kCorrupt;
    e.value = parse_fraction("corruption probability", t[5]);
    e.period = parse_seconds("corruption window", t[6]);
  } else if (kind == "partition") {
    if (args == 0) {
      throw std::invalid_argument{"'partition' needs at least one AS"};
    }
    e.kind = FaultKind::kPartition;
    for (std::size_t i = 3; i < t.size(); ++i) {
      e.as_set.push_back(parse_as(t[i]));
    }
  } else if (kind == "heal") {
    need(0);
    e.kind = FaultKind::kPartitionHeal;
  } else if (kind == "controller-crash" || kind == "controller-restart") {
    if (args > 1) {
      throw std::invalid_argument{"'" + kind +
                                  "' takes at most one replica id, got " +
                                  std::to_string(args) + " arguments"};
    }
    e.kind = kind == "controller-crash" ? FaultKind::kControllerCrash
                                        : FaultKind::kControllerRestart;
    e.count = args == 1 ? parse_replica_id(t[3]) : -1;
  } else if (kind == "repl-partition" || kind == "repl-heal") {
    need(1);
    e.kind = kind == "repl-partition" ? FaultKind::kReplPartition
                                      : FaultKind::kReplHeal;
    e.count = parse_replica_id(t[3]);
  } else if (kind == "speaker-crash" || kind == "speaker-restart") {
    need(0);
    e.kind = kind == "speaker-crash" ? FaultKind::kSpeakerCrash
                                     : FaultKind::kSpeakerRestart;
  } else {
    throw std::invalid_argument{"unknown fault kind '" + kind + "'"};
  }
  return e;
}

std::uint64_t next_flag_value(int argc, char** argv, int& i) {
  const std::string flag = argv[i];
  if (i + 1 >= argc) throw std::invalid_argument{flag + " needs a value"};
  const std::string_view value = argv[++i];
  try {
    if (flag == "--seed" || flag == "--base-seed") return parse_seed(value);
    return parse_integer(std::string_view{flag}.substr(2), value, 1,
                         std::numeric_limits<std::uint64_t>::max());
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument{flag + ": " + e.what()};
  }
}

}  // namespace bgpsdn::framework
