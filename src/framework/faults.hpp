// Deterministic fault injection.
//
// A FaultPlan is a seeded list of fault events on the virtual-time axis:
// link failures and repairs, flap trains, loss ramps, payload corruption
// windows, AS-set partitions, and controller / speaker process crashes.
// The FaultInjector expands the plan into concrete actions and schedules
// them on the experiment's event loop, so a (topology, scenario, plan,
// seed) tuple fully determines the run — trials are byte-identical at any
// BGPSDN_JOBS value, which is what makes chaos experiments benchmarkable.
//
// Plans are expressible three ways: programmatically (build the struct),
// as scenario DSL commands (`fault 1.5 link-down 1 10`), or as a plan file
// passed to `bgpsdn_run --faults <file>`:
//
//   # one event per line; times are virtual seconds from the instant the
//   # injector is attached (experiment start for scenario/CLI plans)
//   seed 42
//   at 1.5 link-down 1 10
//   at 3   flap 1 10 5 0.4          # 5 down/up cycles, 0.4 s period
//   at 5   loss 1 10 0.2            # set drop probability
//   at 6   loss-ramp 1 10 0.5 5 1   # ramp to 0.5 over 5 steps, 1 s apart
//   at 8   corrupt 1 10 0.3 2       # corrupt payloads for a 2 s window
//   at 10  partition 7 8 9 10       # cut the AS set off from the rest
//   at 14  heal                     # restore the partition's links
//   at 16  controller-crash
//   at 18  controller-crash 1       # crash one controller replica (HA mode)
//   at 19  repl-partition 2         # cut a replica's replication links
//   at 19.5 repl-heal 2
//   at 20  controller-restart
//   at 24  speaker-crash
//   at 28  speaker-restart
//
// Every value is one exact token in its domain (config_text.hpp): times,
// periods and windows in [0, 1e9] seconds, probabilities in [0, 1], flap
// counts and ramp steps in 1..2147483647, replica ids in 0..15 and AS
// numbers in 1..4294967295. A token that begins with '#' starts a comment.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/event_loop.hpp"
#include "core/ids.hpp"
#include "core/random.hpp"
#include "core/time.hpp"
#include "framework/monitor_base.hpp"

namespace bgpsdn::framework {

class Experiment;

enum class FaultKind {
  kLinkDown,
  kLinkUp,
  kLinkFlap,
  kLinkLoss,
  kLossRamp,
  kCorrupt,
  kPartition,
  kPartitionHeal,
  kControllerCrash,
  kControllerRestart,
  kReplPartition,
  kReplHeal,
  kSpeakerCrash,
  kSpeakerRestart,
};

/// Stable snake_case name, used in telemetry counters, spans and snapshots.
const char* to_string(FaultKind kind);

struct FaultEvent {
  /// Virtual time from the instant the injector arms the plan.
  core::Duration at{core::Duration::zero()};
  FaultKind kind{FaultKind::kLinkDown};
  /// Link endpoints (link-targeting kinds).
  core::AsNumber a{};
  core::AsNumber b{};
  /// The cut-off AS set (kPartition).
  std::vector<core::AsNumber> as_set;
  /// Probability: drop rate (kLinkLoss), ramp target (kLossRamp),
  /// corruption rate (kCorrupt).
  double value{0.0};
  /// Cycles (kLinkFlap) / steps (kLossRamp). Controller kinds reuse this
  /// as the replica id (-1 = the whole controller / all replicas);
  /// kReplPartition/kReplHeal require a concrete id.
  int count{0};
  /// Cycle period (kLinkFlap), step interval (kLossRamp), window length
  /// (kCorrupt).
  core::Duration period{core::Duration::zero()};
};

struct FaultPlan {
  /// Seeds the injector's private jitter stream (flap cycle spacing);
  /// independent of the experiment seed so the same plan perturbs every
  /// trial identically. Zero means "no jitter".
  std::uint64_t seed{0};
  std::vector<FaultEvent> events;

  /// Parse the plan-file format documented above (`seed N`,
  /// `at <seconds> <event...>`) through the shared configuration lexer
  /// (config_text.hpp). Throws std::invalid_argument "line N: ...".
  static FaultPlan parse(const std::string& text);
};

/// Executes a FaultPlan against a built Experiment. Attach with
/// `experiment.attach_monitor<FaultInjector>(plan)`; events arm immediately
/// (validation errors throw right there, before any virtual time passes)
/// and fire as the loop advances. Every fired action bumps the
/// "faults.injected" and per-kind counters and emits an instant trace span
/// when tracing is on.
class FaultInjector final : public Monitor {
 public:
  FaultInjector(Experiment& experiment, FaultPlan plan);
  ~FaultInjector() override;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const char* kind() const override { return "faults"; }
  /// {planned, fired, by_kind:{...}, events:[{at_s, kind}, ...]}
  telemetry::Json snapshot() const override;

  const FaultPlan& plan() const { return plan_; }
  /// Concrete scheduled actions after plan expansion (a 5-cycle flap is 10).
  std::uint64_t planned() const { return planned_; }
  std::uint64_t fired() const { return fired_; }

 private:
  /// One expanded, concrete action.
  struct Action {
    core::TimePoint at;
    FaultKind kind{FaultKind::kLinkDown};
    core::LinkId link{};
    core::AsNumber a{};
    core::AsNumber b{};
    std::vector<core::AsNumber> as_set;
    double value{0.0};
    /// Replica id for controller kinds (-1 = whole controller).
    int replica{-1};
  };

  void validate(const FaultEvent& event) const;
  void expand(const FaultEvent& event, core::Rng& jitter,
              std::vector<Action>& out) const;
  void arm(std::vector<Action> actions);
  void fire(const Action& action);
  void apply(const Action& action);

  Experiment& experiment_;
  FaultPlan plan_;
  std::vector<core::TimerId> timers_;
  /// Links this injector downed for the active partition (heal target).
  std::vector<core::LinkId> partition_downed_;
  std::uint64_t planned_{0};
  std::uint64_t fired_{0};
  std::map<std::string, std::uint64_t> fired_by_kind_;
};

}  // namespace bgpsdn::framework
