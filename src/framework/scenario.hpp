// Scenario scripts — declarative experiment control.
//
// The paper's framework drives experiments from small Python scripts with
// commands to announce prefixes, wait for convergence, fail links and check
// the result. This is the equivalent text DSL, used by the `bgpsdn_run`
// CLI and by tests:
//
//     # Fig.2-style data point
//     seed 7
//     mrai 30
//     recompute-delay 2
//     topology clique 16
//     sdn 9 10 11 12 13 14 15 16
//     announce 1 10.0.0.0/16
//     start
//     withdraw 1 10.0.0.0/16
//     wait-converged
//     expect-no-route 2 10.0.0.0/16
//
// Commands before `start` configure the experiment; commands after it
// control and verify the running network. The configuration keys shared
// with `.matrix` files (mrai, recompute-delay, link-delay-ms, controller,
// damping, replicas, election-timeout-ms), `topology <model> <n>`,
// `fault` and `fault-seed` parse through the one front end in
// config_text.hpp, so every number is an exact token checked against its
// domain. A token starting with '#' comments out the rest of its line.
// Errors (syntax, unknown AS, failed expectation) abort the run with a
// message naming the line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "framework/experiment.hpp"
#include "framework/faults.hpp"

namespace bgpsdn::framework {

struct ScenarioResult {
  bool ok{false};
  /// Empty when ok; otherwise "line N: what went wrong".
  std::string error;
  /// Output lines produced by print-* / wait-converged / expect commands.
  std::vector<std::string> output;
  /// Seconds reported by each wait-converged command, in script order —
  /// what `bgpsdn_run --trials` summarizes across seeds.
  std::vector<double> convergence_seconds;
};

class ScenarioRunner {
 public:
  /// Parse and execute a whole script.
  ScenarioResult run(const std::string& script);
  ScenarioResult run(std::istream& script);

  /// Force the experiment seed regardless of any `seed` command in the
  /// script — how one script becomes many parallel seeded trials.
  void override_seed(std::uint64_t seed) { seed_override_ = seed; }

  /// Attach a TelemetryMonitor to the experiment as soon as `start`
  /// constructs it, so traces cover the whole run (bgpsdn_run --json).
  void set_capture_telemetry(bool on) { capture_telemetry_ = on; }

  /// Seed the fault plan before the script runs (bgpsdn_run --faults).
  /// Script `fault` / `fault-seed` commands extend/override it. The plan
  /// arms when `start` completes, so event times count from the converged
  /// initial state.
  void set_fault_plan(FaultPlan plan) { fault_plan_ = std::move(plan); }

  /// The experiment after a run (valid once `start` executed); lets callers
  /// inspect beyond what the script printed.
  Experiment* experiment() { return experiment_.get(); }

 private:
  void execute(const std::vector<std::string>& t, ScenarioResult& result);
  Experiment& running();

  ExperimentConfig config_{};
  std::optional<std::uint64_t> seed_override_;
  bool capture_telemetry_{false};
  topology::TopologySpec spec_{};
  bool have_topology_{false};
  std::set<core::AsNumber> members_;
  std::vector<core::AsNumber> hosts_;
  /// Originations issued before start.
  std::vector<std::pair<core::AsNumber, net::Prefix>> pre_announce_;
  /// Fault events declared before start (plus any CLI-provided plan);
  /// armed as one FaultInjector when `start` completes.
  FaultPlan fault_plan_;
  std::unique_ptr<Experiment> experiment_;
  /// Virtual time of the most recent event command (withdraw/announce/
  /// fail-link/...) — wait-converged reports relative to it.
  core::TimePoint last_event_{};
};

}  // namespace bgpsdn::framework
