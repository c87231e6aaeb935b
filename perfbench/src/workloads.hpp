// Workloads and the timed, checked trial of the host-time benchmark.
//
// A trial is one seeded experiment driven through the public framework API
// on the calling thread: generate the topology, construct the Experiment
// (with its pre-start originations), start() it, inject the workload's
// events one by one with a convergence wait after each, and destroy it.
// Every call into a layer is timed with a host clock, every layer's work is
// read from its public accessors, and the converged state is checked after
// bring-up and after every event.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/mem_stats.hpp"
#include "framework/experiment_spec.hpp"

namespace perfbench {

using bgpsdn::core::AsNumber;
using bgpsdn::net::Prefix;

/// Workload sizes: kFull is the benchmark, kSmoke the self-test.
enum class Scale { kFull, kSmoke };

/// One routing event injected after bring-up.
enum class Step {
  kWithdrawOrigin,  // the first origin withdraws all of its prefixes
  kFailUplink,      // one transit AS loses an uplink to its provider
  kRestoreUplink,   // ...which comes back
};

/// One member of a workload's trial population.
struct TrialInput {
  std::uint64_t seed{0};
  std::size_t sdn_count{0};

  /// Key in fingerprints.json ("<sdn_count>:<seed>").
  std::string key() const;
};

struct Workload {
  std::string name;
  /// Topology model, size, members, timers and pre-start originations.
  bgpsdn::framework::ExperimentSpec spec;
  std::vector<Step> steps;
  /// Quiet window of the convergence waits after bring-up and each event.
  bgpsdn::core::Duration quiet;
  /// The fixed trial population, sized so one pass takes about 30 s;
  /// --seed draws the order trials run in.
  std::vector<TrialInput> pool;
};

/// nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name, Scale scale);

/// Host seconds charged to each layer during a traced trial. Time between
/// two spans goes to the layer of the later span; time after a phase's
/// last span goes to other_s.
struct LayerTimes {
  double bgp_rx_s{0};     // up to a bgp/update_rx span (incl. net delivery)
  double bgp_fsm_s{0};    // up to a bgp/fsm span
  double bgp_decision_s{0};
  double bgp_tx_s{0};     // bgp/update_tx and bgp/mrai_wait
  double ctrl_input_s{0};  // ctrl/recompute_batch, graph_transform, others
  double ctrl_decide_s{0};   // up to ctrl/dijkstra
  double ctrl_compile_s{0};  // up to ctrl/flow_install
  double sdn_flow_mod_s{0};
  double speaker_s{0};
  double other_s{0};
};

struct TrialResult {
  std::string failure;  // empty = every output check passed
  // Host seconds per phase.
  double topology_s{0};
  double build_s{0};
  double start_s{0};
  double events_s{0};
  double teardown_s{0};
  double setup_s() const { return topology_s + build_s; }
  double trial_s() const {
    return topology_s + build_s + start_s + events_s + teardown_s;
  }
  // Work, read from the layers' public accessors.
  std::uint64_t events{0};
  std::map<std::string, std::int64_t> counters;
  bgpsdn::controller::IdrCounters idr{};
  bgpsdn::core::MemStats mem{};
  std::size_t ases{0};
  std::uint64_t log_records{0};
  std::uint64_t log_bytes{0};
  /// Virtual instants: end of start(), then each event's convergence.
  std::vector<std::int64_t> virtual_ns;
  // Traced trials only.
  LayerTimes layers{};
  std::uint64_t spans{0};
  std::uint64_t rx_updates{0};
  std::uint64_t rx_routes{0};  // NLRI + withdrawn over all received UPDATEs

  /// Canonical rendering of everything deterministic about the trial.
  std::string fingerprint_text() const;
  /// 64-bit FNV-1a of fingerprint_text(), as 16 hex digits.
  std::string fingerprint() const;
};

TrialResult run_trial(const Workload& workload, const TrialInput& input,
                      bool traced);

}  // namespace perfbench
