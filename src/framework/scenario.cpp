#include "framework/scenario.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bgp/mrt.hpp"
#include "controller/route_compiler.hpp"
#include "framework/config_text.hpp"
#include "framework/telemetry_monitor.hpp"
#include "framework/visualize.hpp"
#include "topology/datasets.hpp"

namespace bgpsdn::framework {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument{message};
}

std::string join(const std::vector<std::string>& tokens, std::size_t from) {
  std::string out;
  for (std::size_t i = from; i < tokens.size(); ++i) {
    if (i > from) out += ' ';
    out += tokens[i];
  }
  return out;
}

}  // namespace

Experiment& ScenarioRunner::running() {
  if (experiment_ == nullptr) fail("command requires 'start' first");
  return *experiment_;
}

ScenarioResult ScenarioRunner::run(const std::string& script) {
  std::istringstream in{script};
  return run(in);
}

ScenarioResult ScenarioRunner::run(std::istream& script) {
  ScenarioResult result;
  try {
    for_each_line(script, [&](const Tokens& t) { execute(t, result); });
    result.ok = true;
  } catch (const std::invalid_argument& e) {
    result.ok = false;
    result.error = e.what();
  }
  return result;
}

void ScenarioRunner::execute(const Tokens& t, ScenarioResult& result) {
  const std::string& cmd = t[0];
  const auto started = [&] { return experiment_ != nullptr; };
  const auto forbid_after_start = [&] {
    if (started()) fail(cmd + " must come before 'start'");
  };

  if (is_setting_key(cmd)) {
    expect_args(t, 1);
    forbid_after_start();
    apply_setting(config_, cmd, t[1]);
  } else if (cmd == "seed") {
    forbid_after_start();
    config_.seed = parse_seed_line(t);
  } else if (cmd == "topology") {
    forbid_after_start();
    if (t.size() == 3 && t[1] == "caida-file") {
      std::ifstream file{t[2]};
      if (!file) fail("cannot open '" + t[2] + "'");
      spec_ = topology::parse_caida(file);
    } else {
      expect_args(t, 2);
      ExperimentSpec shape;
      apply_topology(shape, t[1], t[2]);
      shape.validate();
      spec_ = shape.make_topology(config_.seed);
    }
    have_topology_ = true;
  } else if (cmd == "sdn") {
    forbid_after_start();
    if (!have_topology_) fail("'sdn' requires a topology first");
    for (std::size_t i = 1; i < t.size(); ++i) {
      const auto as = parse_as(t[i]);
      if (!spec_.has_as(as)) fail(as.to_string() + " not in topology");
      members_.insert(as);
    }
  } else if (cmd == "host") {
    expect_args(t, 1);
    forbid_after_start();
    hosts_.push_back(parse_as(t[1]));
  } else if (cmd == "announce") {
    expect_args(t, 2);
    const auto as = parse_as(t[1]);
    const auto pfx = parse_prefix(t[2]);
    if (started()) {
      experiment_->announce_prefix(as, pfx);
      last_event_ = experiment_->loop().now();
    } else {
      pre_announce_.emplace_back(as, pfx);
    }
  } else if (cmd == "start") {
    expect_args(t, 0);
    if (started()) fail("already started");
    if (!have_topology_) fail("no topology declared");
    if (seed_override_) config_.seed = *seed_override_;
    experiment_ = std::make_unique<Experiment>(spec_, members_, config_);
    if (capture_telemetry_) experiment_->attach_monitor<TelemetryMonitor>();
    for (const auto as : hosts_) experiment_->add_host(as);
    for (const auto& [as, pfx] : pre_announce_) {
      experiment_->announce_prefix(as, pfx);
    }
    if (!experiment_->start()) fail("sessions failed to establish");
    if (!fault_plan_.events.empty()) {
      // Arm after the initial bring-up so fault times count from the
      // converged state ("fault 0 controller-crash" = right after start).
      experiment_->attach_monitor<FaultInjector>(fault_plan_);
    }
    last_event_ = experiment_->loop().now();
    result.output.push_back("started: " + spec_.summary() + ", " +
                            std::to_string(members_.size()) + " SDN member(s)");
  } else if (cmd == "withdraw") {
    expect_args(t, 2);
    auto& exp = running();
    exp.withdraw_prefix(parse_as(t[1]), parse_prefix(t[2]));
    last_event_ = exp.loop().now();
  } else if (cmd == "fail-link") {
    expect_args(t, 2);
    auto& exp = running();
    exp.fail_link(parse_as(t[1]), parse_as(t[2]));
    last_event_ = exp.loop().now();
  } else if (cmd == "add-link") {
    expect_args(t, 2);
    auto& exp = running();
    exp.add_link(parse_as(t[1]), parse_as(t[2]));
    last_event_ = exp.loop().now();
  } else if (cmd == "restore-link") {
    expect_args(t, 2);
    auto& exp = running();
    exp.restore_link(parse_as(t[1]), parse_as(t[2]));
    last_event_ = exp.loop().now();
  } else if (cmd == "fault-seed") {
    forbid_after_start();
    fault_plan_.seed = parse_seed_line(t);
  } else if (cmd == "fault") {
    const FaultEvent event = parse_fault_line(t);
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
      fail("usage: " + cmd + " controller [replica]|speaker");
    }
    auto& exp = running();
    const bool crash = cmd == "crash";
    if (t[1] == "controller") {
      const int replica = t.size() == 3 ? parse_replica_id(t[2]) : -1;
      crash ? exp.crash_controller_replica(replica)
            : exp.restart_controller_replica(replica);
    } else if (t[1] == "speaker") {
      if (t.size() == 3) fail("usage: " + cmd + " speaker");
      crash ? exp.crash_speaker() : exp.restart_speaker();
    } else {
      fail("usage: " + cmd + " controller [replica]|speaker");
    }
    last_event_ = exp.loop().now();
    result.output.push_back(cmd + " " + join(t, 1));
  } else if (cmd == "run") {
    expect_args(t, 1);
    running().run_for(parse_seconds(cmd, t[1]));
  } else if (cmd == "wait-converged") {
    auto& exp = running();
    core::Duration quiet = core::Duration::zero();
    core::Duration timeout = core::Duration::seconds(3600);
    if (t.size() > 1) quiet = parse_seconds(cmd, t[1]);
    if (t.size() > 2) timeout = parse_seconds(cmd, t[2]);
    const ConvergenceResult conv =
        exp.wait_converged(WaitOpts{quiet, timeout});
    if (conv.timed_out) fail("convergence timed out");
    char buf[64];
    std::snprintf(buf, sizeof buf, "converged %.3f s after the last event",
                  conv.since(last_event_).to_seconds());
    result.output.push_back(buf);
    result.convergence_seconds.push_back(conv.since(last_event_).to_seconds());
  } else if (cmd == "expect-route" || cmd == "expect-no-route") {
    expect_args(t, 2);
    auto& exp = running();
    const auto as = parse_as(t[1]);
    const auto pfx = parse_prefix(t[2]);
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
      fail(as.to_string() + (has ? " unexpectedly has " : " lacks ") +
           pfx.to_string());
    }
    result.output.push_back("ok: " + join(t, 0));
  } else if (cmd == "expect-reachable" || cmd == "expect-unreachable") {
    expect_args(t, 2);
    auto& exp = running();
    const auto from = parse_as(t[1]);
    const auto host_as = parse_as(t[2]);
    const auto dst = exp.allocator().host_address(host_as, 0);
    const bool reachable = !exp.trace_route(from, dst).empty();
    const bool want = cmd == "expect-reachable";
    if (reachable != want) {
      fail(from.to_string() +
           (reachable ? " unexpectedly reaches " : " cannot reach ") +
           "host of " + host_as.to_string());
    }
    result.output.push_back("ok: " + join(t, 0));
  } else if (cmd == "print-rib") {
    expect_args(t, 1);
    auto& exp = running();
    const auto as = parse_as(t[1]);
    if (exp.is_member(as)) fail("print-rib targets a legacy router");
    exp.router(as).loc_rib().for_each([&](const bgp::Route& route) {
      result.output.push_back(as.to_string() + " " + route.prefix.to_string() +
                              " via [" +
                              route.attributes->as_path.to_string() + "]");
    });
  } else if (cmd == "print-trace") {
    expect_args(t, 2);
    auto& exp = running();
    const auto from = parse_as(t[1]);
    const auto host_as = parse_as(t[2]);
    const auto path =
        exp.trace_route(from, exp.allocator().host_address(host_as, 0));
    std::string out = "trace " + from.to_string() + " ->";
    if (path.empty()) out += " (unreachable)";
    for (const auto as : path) out += " " + as.to_string();
    result.output.push_back(out);
  } else if (cmd == "dump-mrt") {
    expect_args(t, 1);
    auto& exp = running();
    if (exp.collector() == nullptr) fail("experiment has no collector");
    const auto records = bgp::collector_to_mrt(exp.collector()->observations());
    const auto data = bgp::write_mrt(records);
    std::ofstream out{t[1], std::ios::binary};
    if (!out) fail("cannot write '" + t[1] + "'");
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    result.output.push_back("wrote " + std::to_string(records.size()) +
                            " MRT records (" + std::to_string(data.size()) +
                            " bytes) to " + t[1]);
  } else if (cmd == "print-dot") {
    // print-dot topology | print-dot forwarding <prefix>
    if (t.size() < 2) fail("usage: print-dot topology|forwarding <prefix>");
    std::string dot;
    if (t[1] == "topology") {
      if (!have_topology_) fail("no topology declared");
      dot = topology_dot(spec_, members_);
    } else if (t[1] == "forwarding") {
      expect_args(t, 2);
      dot = forwarding_dot(running(), parse_prefix(t[2]));
    } else {
      fail("unknown print-dot mode '" + t[1] + "'");
    }
    std::istringstream ds{dot};
    std::string dline;
    while (std::getline(ds, dline)) result.output.push_back(dline);
  } else if (cmd == "print-time") {
    expect_args(t, 0);
    result.output.push_back("t=" + running().loop().now().to_string());
  } else {
    fail("unknown command '" + cmd + "'");
  }
}

}  // namespace bgpsdn::framework
