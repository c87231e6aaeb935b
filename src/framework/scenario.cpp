#include "framework/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include <fstream>

#include "bgp/mrt.hpp"
#include "controller/route_compiler.hpp"
#include "framework/telemetry_monitor.hpp"
#include "framework/visualize.hpp"
#include "topology/datasets.hpp"
#include "topology/generators.hpp"

namespace bgpsdn::framework {

namespace {

/// Exception carrying a pre-formatted "line N: ..." message.
struct ScenarioError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::string join(const std::vector<std::string>& tokens, std::size_t from) {
  std::string out;
  for (std::size_t i = from; i < tokens.size(); ++i) {
    if (i > from) out += ' ';
    out += tokens[i];
  }
  return out;
}

}  // namespace

void ScenarioRunner::fail(const Line& line, const std::string& message) const {
  throw ScenarioError{"line " + std::to_string(line.number) + ": " + message};
}

core::AsNumber ScenarioRunner::parse_as(const Line& line,
                                        const std::string& token) const {
  const auto as = parse_as_number(token);
  if (!as) {
    fail(line, "bad AS number '" + token + "' (want 1..4294967295)");
  }
  return *as;
}

std::uint64_t ScenarioRunner::parse_seed(const Line& line,
                                         const std::string& token) const {
  const auto seed = parse_uint64(token);
  if (!seed) {
    fail(line, "bad seed '" + token + "' (want 0..18446744073709551615)");
  }
  return *seed;
}

net::Prefix ScenarioRunner::parse_prefix(const Line& line,
                                         const std::string& token) const {
  const auto p = net::Prefix::parse(token);
  if (!p) fail(line, "bad prefix '" + token + "'");
  return *p;
}

double ScenarioRunner::parse_number(const Line& line,
                                    const std::string& token) const {
  try {
    std::size_t pos = 0;
    const double v = std::stod(token, &pos);
    if (pos != token.size()) throw std::invalid_argument{""};
    return v;
  } catch (...) {
    fail(line, "bad number '" + token + "'");
  }
}

Experiment& ScenarioRunner::running(const Line& line) {
  if (experiment_ == nullptr) fail(line, "command requires 'start' first");
  return *experiment_;
}

ScenarioResult ScenarioRunner::run(const std::string& script) {
  std::istringstream in{script};
  return run(in);
}

ScenarioResult ScenarioRunner::run(std::istream& script) {
  ScenarioResult result;
  std::string text_line;
  std::size_t number = 0;
  try {
    while (std::getline(script, text_line)) {
      ++number;
      Line line;
      line.number = number;
      std::istringstream ls{text_line};
      std::string tok;
      while (ls >> tok) {
        if (tok[0] == '#') break;
        line.tokens.push_back(tok);
      }
      if (line.tokens.empty()) continue;
      execute(line, result);
    }
    result.ok = true;
  } catch (const ScenarioError& e) {
    result.ok = false;
    result.error = e.what();
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = "line " + std::to_string(number) + ": " + e.what();
  }
  return result;
}

void ScenarioRunner::execute(const Line& line, ScenarioResult& result) {
  const auto& t = line.tokens;
  const std::string& cmd = t[0];
  const auto need = [&](std::size_t n) {
    if (t.size() != n + 1) {
      fail(line, cmd + " expects " + std::to_string(n) + " argument(s)");
    }
  };
  const auto started = [&] { return experiment_ != nullptr; };
  const auto forbid_after_start = [&] {
    if (started()) fail(line, cmd + " must come before 'start'");
  };

  if (cmd == "seed") {
    need(1);
    forbid_after_start();
    config_.seed = parse_seed(line, t[1]);
  } else if (cmd == "mrai") {
    need(1);
    forbid_after_start();
    config_.timers.mrai = core::Duration::seconds_f(parse_number(line, t[1]));
  } else if (cmd == "recompute-delay") {
    need(1);
    forbid_after_start();
    config_.recompute_delay = core::Duration::seconds_f(parse_number(line, t[1]));
  } else if (cmd == "link-delay-ms") {
    need(1);
    forbid_after_start();
    config_.default_link.delay =
        core::Duration::seconds_f(parse_number(line, t[1]) / 1000.0);
  } else if (cmd == "controller") {
    need(1);
    forbid_after_start();
    if (t[1] == "idr") {
      config_.controller_style = ControllerStyle::kIdrCentralized;
    } else if (t[1] == "routeflow") {
      config_.controller_style = ControllerStyle::kRouteFlowMirror;
    } else {
      fail(line, "unknown controller style '" + t[1] + "' (idr|routeflow)");
    }
  } else if (cmd == "spt") {
    need(1);
    forbid_after_start();
    if (t[1] == "incremental") {
      config_.incremental_spt = true;
    } else if (t[1] == "reference") {
      config_.incremental_spt = false;
    } else {
      fail(line, "unknown spt engine '" + t[1] + "' (incremental|reference)");
    }
  } else if (cmd == "damping") {
    need(1);
    forbid_after_start();
    if (t[1] == "on") {
      config_.damping.enabled = true;
    } else if (t[1] == "off") {
      config_.damping.enabled = false;
    } else {
      fail(line, "usage: damping on|off");
    }
  } else if (cmd == "replicas") {
    need(1);
    forbid_after_start();
    const double v = parse_number(line, t[1]);
    const auto n = static_cast<std::size_t>(v);
    if (v != static_cast<double>(n) || n < 1 || n > 16) {
      fail(line, "replicas '" + t[1] + "' must be an integer in [1, 16]");
    }
    config_.controller_replicas = n;
  } else if (cmd == "election-timeout-ms") {
    need(1);
    forbid_after_start();
    const double ms = parse_number(line, t[1]);
    if (ms <= 0.0) {
      fail(line, "election-timeout-ms '" + t[1] + "' must be > 0");
    }
    // Timeouts are drawn from [min, 2*min], Raft-style.
    config_.ha.election_min = core::Duration::seconds_f(ms / 1000.0);
    config_.ha.election_max = core::Duration::seconds_f(ms / 500.0);
  } else if (cmd == "topology") {
    forbid_after_start();
    if (t.size() < 3) {
      fail(line,
           "usage: topology <clique|line|ring|star|synth-caida> <n> | "
           "topology caida-file <path>");
    }
    if (t[1] == "caida-file") {
      std::ifstream file{t[2]};
      if (!file) fail(line, "cannot open '" + t[2] + "'");
      spec_ = topology::parse_caida(file);
    } else {
      const auto n = static_cast<std::size_t>(parse_number(line, t[2]));
      if (t[1] == "clique") {
        spec_ = topology::clique(n);
      } else if (t[1] == "line") {
        spec_ = topology::line(n);
      } else if (t[1] == "ring") {
        spec_ = topology::ring(n);
      } else if (t[1] == "star") {
        spec_ = topology::star(n);
      } else if (t[1] == "synth-caida") {
        core::Rng rng{config_.seed};
        spec_ = topology::parse_caida_text(topology::synthesize_caida_text(n, rng));
      } else {
        fail(line, "unknown topology model '" + t[1] + "'");
      }
    }
    have_topology_ = true;
  } else if (cmd == "sdn") {
    forbid_after_start();
    if (!have_topology_) fail(line, "'sdn' requires a topology first");
    for (std::size_t i = 1; i < t.size(); ++i) {
      const auto as = parse_as(line, t[i]);
      if (!spec_.has_as(as)) fail(line, as.to_string() + " not in topology");
      members_.insert(as);
    }
  } else if (cmd == "host") {
    need(1);
    forbid_after_start();
    hosts_.push_back(parse_as(line, t[1]));
  } else if (cmd == "announce") {
    need(2);
    const auto as = parse_as(line, t[1]);
    const auto pfx = parse_prefix(line, t[2]);
    if (started()) {
      experiment_->announce_prefix(as, pfx);
      last_event_ = experiment_->loop().now();
    } else {
      pre_announce_.emplace_back(as, pfx);
    }
  } else if (cmd == "start") {
    need(0);
    if (started()) fail(line, "already started");
    if (!have_topology_) fail(line, "no topology declared");
    if (seed_override_) config_.seed = *seed_override_;
    experiment_ = std::make_unique<Experiment>(spec_, members_, config_);
    if (capture_telemetry_) experiment_->attach_monitor<TelemetryMonitor>();
    for (const auto as : hosts_) experiment_->add_host(as);
    for (const auto& [as, pfx] : pre_announce_) {
      experiment_->announce_prefix(as, pfx);
    }
    if (!experiment_->start()) fail(line, "sessions failed to establish");
    if (!fault_plan_.events.empty()) {
      // Arm after the initial bring-up so fault times count from the
      // converged state ("fault 0 controller-crash" = right after start).
      experiment_->attach_monitor<FaultInjector>(fault_plan_);
    }
    last_event_ = experiment_->loop().now();
    result.output.push_back("started: " + spec_.summary() + ", " +
                            std::to_string(members_.size()) + " SDN member(s)");
  } else if (cmd == "withdraw") {
    need(2);
    auto& exp = running(line);
    exp.withdraw_prefix(parse_as(line, t[1]), parse_prefix(line, t[2]));
    last_event_ = exp.loop().now();
  } else if (cmd == "fail-link") {
    need(2);
    auto& exp = running(line);
    exp.fail_link(parse_as(line, t[1]), parse_as(line, t[2]));
    last_event_ = exp.loop().now();
  } else if (cmd == "add-link") {
    need(2);
    auto& exp = running(line);
    exp.add_link(parse_as(line, t[1]), parse_as(line, t[2]));
    last_event_ = exp.loop().now();
  } else if (cmd == "restore-link") {
    need(2);
    auto& exp = running(line);
    exp.restore_link(parse_as(line, t[1]), parse_as(line, t[2]));
    last_event_ = exp.loop().now();
  } else if (cmd == "fault-seed") {
    need(1);
    forbid_after_start();
    fault_plan_.seed = parse_seed(line, t[1]);
  } else if (cmd == "fault") {
    if (t.size() < 3) fail(line, "usage: fault <seconds> <event...>");
    const auto at = core::Duration::seconds_f(parse_number(line, t[1]));
    if (at < core::Duration::zero()) fail(line, "fault time must be >= 0");
    FaultEvent event;
    try {
      event = FaultPlan::parse_event({t.begin() + 2, t.end()}, at);
    } catch (const std::invalid_argument& e) {
      fail(line, e.what());
    }
    if (started()) {
      // Post-start faults arm immediately, relative to now.
      FaultPlan one;
      one.seed = fault_plan_.seed;
      one.events.push_back(event);
      experiment_->attach_monitor<FaultInjector>(std::move(one));
      last_event_ = experiment_->loop().now();
    } else {
      fault_plan_.events.push_back(event);
    }
  } else if (cmd == "crash" || cmd == "restart") {
    if (t.size() != 2 && t.size() != 3) {
      fail(line, "usage: " + cmd + " controller [replica]|speaker");
    }
    auto& exp = running(line);
    const bool crash = cmd == "crash";
    if (t[1] == "controller") {
      int replica = -1;
      if (t.size() == 3) {
        const std::string& tok = t[2];
        const bool digits =
            !tok.empty() && std::all_of(tok.begin(), tok.end(), [](char c) {
              return c >= '0' && c <= '9';
            });
        if (!digits) {
          fail(line, "controller replica id '" + tok +
                         "' must be a non-negative integer");
        }
        // Clamp absurd ids so the int cast stays sane; the experiment's
        // bounds check below rejects anything >= the replica count anyway.
        replica = tok.size() > 6 ? 1000000 : std::stoi(tok);
      }
      try {
        crash ? exp.crash_controller_replica(replica)
              : exp.restart_controller_replica(replica);
      } catch (const std::invalid_argument& e) {
        fail(line, e.what());
      }
    } else if (t[1] == "speaker") {
      if (t.size() == 3) fail(line, "usage: " + cmd + " speaker");
      crash ? exp.crash_speaker() : exp.restart_speaker();
    } else {
      fail(line, "usage: " + cmd + " controller [replica]|speaker");
    }
    last_event_ = exp.loop().now();
    result.output.push_back(cmd + " " + join(t, 1));
  } else if (cmd == "run") {
    need(1);
    running(line).run_for(core::Duration::seconds_f(parse_number(line, t[1])));
  } else if (cmd == "wait-converged") {
    auto& exp = running(line);
    core::Duration quiet = core::Duration::zero();
    core::Duration timeout = core::Duration::seconds(3600);
    if (t.size() > 1) quiet = core::Duration::seconds_f(parse_number(line, t[1]));
    if (t.size() > 2) timeout = core::Duration::seconds_f(parse_number(line, t[2]));
    const ConvergenceResult conv =
        exp.wait_converged(WaitOpts{quiet, timeout});
    if (conv.timed_out) fail(line, "convergence timed out");
    char buf[64];
    std::snprintf(buf, sizeof buf, "converged %.3f s after the last event",
                  conv.since(last_event_).to_seconds());
    result.output.push_back(buf);
    result.convergence_seconds.push_back(conv.since(last_event_).to_seconds());
  } else if (cmd == "expect-route" || cmd == "expect-no-route") {
    need(2);
    auto& exp = running(line);
    const auto as = parse_as(line, t[1]);
    const auto pfx = parse_prefix(line, t[2]);
    bool has = false;
    if (exp.is_member(as)) {
      // Controller-style-agnostic: judge by the installed forwarding state.
      for (const auto& e : exp.member_switch(as).table().entries()) {
        if (e.match.dst == pfx &&
            e.priority == controller::kDataRulePriority &&
            e.action.type == sdn::ActionType::kOutput) {
          has = true;
          break;
        }
      }
    } else {
      has = exp.router(as).loc_rib().find(pfx) != nullptr;
    }
    const bool want = cmd == "expect-route";
    if (has != want) {
      fail(line, as.to_string() + (has ? " unexpectedly has " : " lacks ") +
                     pfx.to_string());
    }
    result.output.push_back("ok: " + join(t, 0));
  } else if (cmd == "expect-reachable" || cmd == "expect-unreachable") {
    need(2);
    auto& exp = running(line);
    const auto from = parse_as(line, t[1]);
    const auto host_as = parse_as(line, t[2]);
    const auto dst = exp.allocator().host_address(host_as, 0);
    const bool reachable = !exp.trace_route(from, dst).empty();
    const bool want = cmd == "expect-reachable";
    if (reachable != want) {
      fail(line, from.to_string() + (reachable ? " unexpectedly reaches "
                                               : " cannot reach ") +
                     "host of " + host_as.to_string());
    }
    result.output.push_back("ok: " + join(t, 0));
  } else if (cmd == "print-rib") {
    need(1);
    auto& exp = running(line);
    const auto as = parse_as(line, t[1]);
    if (exp.is_member(as)) fail(line, "print-rib targets a legacy router");
    exp.router(as).loc_rib().for_each([&](const bgp::Route& route) {
      result.output.push_back(as.to_string() + " " + route.prefix.to_string() +
                              " via [" +
                              route.attributes->as_path.to_string() + "]");
    });
  } else if (cmd == "print-trace") {
    need(2);
    auto& exp = running(line);
    const auto from = parse_as(line, t[1]);
    const auto host_as = parse_as(line, t[2]);
    const auto path =
        exp.trace_route(from, exp.allocator().host_address(host_as, 0));
    std::string out = "trace " + from.to_string() + " ->";
    if (path.empty()) out += " (unreachable)";
    for (const auto as : path) out += " " + as.to_string();
    result.output.push_back(out);
  } else if (cmd == "dump-mrt") {
    need(1);
    auto& exp = running(line);
    if (exp.collector() == nullptr) fail(line, "experiment has no collector");
    const auto records = bgp::collector_to_mrt(exp.collector()->observations());
    const auto data = bgp::write_mrt(records);
    std::ofstream out{t[1], std::ios::binary};
    if (!out) fail(line, "cannot write '" + t[1] + "'");
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    result.output.push_back("wrote " + std::to_string(records.size()) +
                            " MRT records (" + std::to_string(data.size()) +
                            " bytes) to " + t[1]);
  } else if (cmd == "print-dot") {
    // print-dot topology | print-dot forwarding <prefix>
    if (t.size() < 2) fail(line, "usage: print-dot topology|forwarding <prefix>");
    std::string dot;
    if (t[1] == "topology") {
      if (!have_topology_) fail(line, "no topology declared");
      dot = topology_dot(spec_, members_);
    } else if (t[1] == "forwarding") {
      need(2);
      dot = forwarding_dot(running(line), parse_prefix(line, t[2]));
    } else {
      fail(line, "unknown print-dot mode '" + t[1] + "'");
    }
    std::istringstream ds{dot};
    std::string dline;
    while (std::getline(ds, dline)) result.output.push_back(dline);
  } else if (cmd == "print-time") {
    need(0);
    result.output.push_back("t=" + running(line).loop().now().to_string());
  } else {
    fail(line, "unknown command '" + cmd + "'");
  }
}

}  // namespace bgpsdn::framework
