// ExperimentSpec — the declarative experiment-construction API.
//
// One value object describes a whole seeded experiment cell: which topology
// generator and size, how much of the network is centralized, which routing
// event is injected and measured, the fault plan, the timer profile and the
// protocol toggles (damping, controller style). Benches build
// their sweeps from ExperimentSpec cells, the `bgpsdn_matrix` tool expands
// axis lists into a cross product of cells, and every later scenario axis
// (scale sweeps, federation, workloads) plugs in here instead of growing
// another hand-rolled main().
//
// A spec is pure data plus derivation helpers; `run_trial(seed)` is the
// whole measured experiment of the paper's figures — build, start, inject,
// wait for quiescence — and stays byte-identical to the historical bench
// code path for the same parameters.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "framework/experiment.hpp"
#include "framework/faults.hpp"
#include "topology/spec.hpp"

namespace bgpsdn::framework {

/// Topology generator selection ("theoretical models" plus the synthetic
/// CAIDA-like graph). All models are parameterized by one size.
enum class TopologyModel {
  kClique,
  kLine,
  kRing,
  kStar,
  kSynthCaida,
  /// Three-tier CAIDA-like Internet (topology::internet_like) with
  /// parameters scaled from `topology_size` (total AS count); the scale
  /// model for bench_scale sweeps.
  kInternetLike,
};

/// Stable name used in labels, diagnostics and the matrix file format.
const char* to_string(TopologyModel model);
std::optional<TopologyModel> parse_topology_model(std::string_view name);

/// The routing event injected after the network converged — what a trial
/// measures the convergence of.
enum class EventKind {
  kAnnouncement,  // Tup: a fresh prefix announced at the origin
  kWithdrawal,    // Tdown: the origin withdraws (Fig. 2 path hunting)
  kFailover,      // Tlong: dual-homed stub loses its primary link
  kFlapTrain,     // churn: repeated fail/restore of a cluster link
};

/// Stable names ("announcement", "withdrawal", "failover", "flap-train"),
/// matching the historical bench output strings.
const char* to_string(EventKind event);
/// Accepts both the stable names and the short matrix-axis spellings
/// ("announce", "withdraw", "flap").
std::optional<EventKind> parse_event_kind(std::string_view name);

/// Declarative description of one experiment cell. Fields are public —
/// the struct is plain data — but prefer ExperimentSpecBuilder, which
/// validates as it goes; resolve() + validate() make any hand-built value
/// safe before use.
struct ExperimentSpec {
  // --- topology ------------------------------------------------------------
  TopologyModel topology{TopologyModel::kClique};
  std::size_t topology_size{16};

  // --- centralization ------------------------------------------------------
  /// How many ASes join the SDN cluster; members are the top AS numbers
  /// (size, size-1, ...), so sdn_count = size is full centralization.
  std::size_t sdn_count{0};
  /// Alternative fractional form; resolve() turns it into sdn_count
  /// (rounded to nearest) once the topology size is final.
  std::optional<double> sdn_fraction;

  // --- event ---------------------------------------------------------------
  EventKind event{EventKind::kWithdrawal};
  /// Fail/restore cycles of a flap train (kFlapTrain only).
  std::size_t flap_cycles{4};

  // --- faults --------------------------------------------------------------
  /// Armed as a FaultInjector right after start(); empty = none.
  FaultPlan faults{};

  // --- timers, protocol toggles, seeds ------------------------------------
  /// Timer profile, damping, controller style, recompute delay and the
  /// per-trial seed all live in the ExperimentConfig (the seed field is
  /// overwritten per trial).
  ExperimentConfig config{};
  /// Quiet window for the post-event convergence wait; zero = the
  /// Experiment default (2x MRAI + 1 s).
  core::Duration wait_quiet{core::Duration::zero()};

  /// Prefix originations issued before start(). Empty = the default for the
  /// event kind: the origin AS announces primary_prefix().
  std::vector<std::pair<core::AsNumber, net::Prefix>> announcements;

  // --- canonical constants -------------------------------------------------
  /// The measured prefix (10.0.0.0/16) and the fresh prefix announced by
  /// kAnnouncement events (10.200.0.0/16).
  static net::Prefix primary_prefix();
  static net::Prefix fresh_prefix();
  /// Failover decoration AS numbers: the dual-homed stub and the backup
  /// intermediate (fixed at 100 / 101, which caps failover topologies at
  /// 99 ASes).
  static core::AsNumber failover_stub();
  static core::AsNumber failover_mid();

  // --- derivation ----------------------------------------------------------
  /// Folds sdn_fraction into sdn_count. Call before validate() when the
  /// spec was assembled field-by-field (the builder and the matrix expander
  /// do this for you).
  void resolve();

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;

  /// The AS that originates the measured prefix: the failover stub for
  /// kFailover, otherwise the first declared announcement's AS (AS 1 by
  /// default).
  core::AsNumber origin() const;

  /// The generated topology (failover adds the dual-homed stub and its
  /// backup path). `seed` feeds the synthetic-CAIDA generator only.
  topology::TopologySpec make_topology(std::uint64_t seed) const;

  /// The SDN member set: the top sdn_count AS numbers.
  std::set<core::AsNumber> make_members() const;

  /// The effective pre-start originations (declared or defaulted).
  std::vector<std::pair<core::AsNumber, net::Prefix>> effective_announcements()
      const;

  /// Build the experiment for one seed: topology, members, config with the
  /// seed applied, and all pre-start originations issued. Not started.
  std::unique_ptr<Experiment> make_experiment(std::uint64_t seed) const;

  /// Inject this spec's event into a started experiment and return the
  /// injection instant. kFlapTrain runs the whole train, waiting out
  /// convergence after every transition; the other kinds return immediately
  /// after the event, leaving the convergence wait to the caller.
  core::TimePoint inject_event(Experiment& experiment) const;

  /// The quiet window run_trial applies (wait_quiet, defaulted to
  /// 2x MRAI + 1 s).
  core::Duration effective_quiet() const;

  /// One full measured trial: build, start, (settle first for flap trains),
  /// arm faults, inject the event and wait for quiescence. Returns the
  /// convergence seconds since injection, or -1 when start() fails or any
  /// convergence wait times out. With `counters_out`, every telemetry
  /// counter of the experiment (once it started) is summed into the map.
  double run_trial(std::uint64_t seed,
                   std::map<std::string, std::int64_t>* counters_out =
                       nullptr) const;

  /// Canonical one-line rendering of every behavior-relevant field — equal
  /// signatures mean the specs configure the same experiment (duplicate
  /// matrix cells are detected with this).
  std::string signature() const;
};

/// The trial failure rule of ExperimentSpec::run_trial, shared with the
/// benches that drive an experiment by hand. `started` is what
/// `experiment.start()` returned; when it holds, this runs `measure()`.
/// The trial failed when the start failed or when any convergence wait in
/// `measure()` timed out (a flap train's waits included); then one line
/// naming the seed goes to stderr and the result is false, and the caller
/// reports the trial's point value as -1.
bool checked_trial(Experiment& experiment, bool started,
                   const std::function<void()>& measure);

/// Sums every telemetry counter of a finished experiment into `out` — the
/// "key counters" block of the JSON reports.
void accumulate_counters(Experiment& experiment,
                         std::map<std::string, std::int64_t>& out);

/// Fluent, validating assembly of an ExperimentSpec. Each setter does its
/// local checks immediately (throwing std::invalid_argument); build() runs
/// resolve() + the cross-field validation.
class ExperimentSpecBuilder {
 public:
  ExperimentSpecBuilder& topology(TopologyModel model, std::size_t size);
  ExperimentSpecBuilder& sdn_count(std::size_t count);
  ExperimentSpecBuilder& sdn_fraction(double fraction);
  ExperimentSpecBuilder& event(EventKind kind);
  ExperimentSpecBuilder& flap_cycles(std::size_t cycles);
  ExperimentSpecBuilder& faults(FaultPlan plan);
  /// Replace the whole base config (timers, toggles, delays) in one go —
  /// the bench profile hook.
  ExperimentSpecBuilder& config(const ExperimentConfig& cfg);
  ExperimentSpecBuilder& timers(const bgp::Timers& timers);
  ExperimentSpecBuilder& mrai(core::Duration mrai);
  ExperimentSpecBuilder& recompute_delay(core::Duration delay);
  ExperimentSpecBuilder& damping(bool enabled);
  ExperimentSpecBuilder& controller_style(ControllerStyle style);
  /// Controller replication factor (1 = the single-controller baseline,
  /// 2..16 = hot-standby HA; requires the IDR controller style).
  ExperimentSpecBuilder& controller_replicas(std::size_t replicas);
  /// Base election timeout; replicas draw from [timeout, 2*timeout].
  ExperimentSpecBuilder& election_timeout(core::Duration timeout);
  ExperimentSpecBuilder& wait_quiet(core::Duration quiet);
  ExperimentSpecBuilder& announce(core::AsNumber as, const net::Prefix& prefix);

  /// Resolve + validate; throws std::invalid_argument on inconsistency.
  ExperimentSpec build() const;

 private:
  ExperimentSpec spec_;
};

}  // namespace bgpsdn::framework
