// Chaos bench: data-plane time-to-recovery under injected faults, with and
// without the centralized controller.
//
// The paper argues centralization accelerates reconvergence; the robustness
// question is what it costs when the central component itself fails. Each
// row injects one FaultPlan into a converged 10-AS hybrid clique (members
// 7-10, a host behind legacy AS 1) and measures how long until every AS —
// legacy FIBs and member flow tables alike — can trace a live data-plane
// path to the host again:
//
//   bgp_linkfail      all-legacy baseline, one clique link fails
//   hybrid_linkfail   same failure with the controller in charge
//   degraded_linkfail same failure while degraded to distributed BGP
//   ctrl_crash        the controller crashes (switches flush; fallback
//                     reconverges the cluster over the relay links)
//   ctrl_restart      the controller returns and resyncs from the speaker
//   speaker_restart   the cluster speaker crashes silently and returns;
//                     peers rediscover it via hold-timer expiry
//   ha_failover_rN    replication-factor sweep (N = 1..5): the serving
//                     controller replica crashes at the same instant a
//                     clique link fails. r1 is the single-controller
//                     baseline (full degradation to distributed BGP);
//                     r>=2 elects a hot standby, which replays the
//                     unacknowledged delta suffix and reprograms — the
//                     failover hiccup the HA layer exists to shrink.
//
// Fast timers (MRAI 0.3 s, hold 6 s, recompute 100 ms) keep the virtual
// clock short; recovery is probed every 100 ms and censored at 60 s.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "framework/faults.hpp"

using namespace bgpsdn;

namespace {

constexpr std::size_t kCliqueSize = 10;
constexpr std::uint64_t kDefaultBaseSeed = 9000;
const core::AsNumber kHostAs{1};
constexpr double kTimeoutS = 60.0;

struct Row {
  const char* label;
  bool with_members;
  /// Crash the controller (and let the fallback reconverge) before t0.
  bool pre_degrade;
  /// FaultPlan armed at t0 — the disruption being measured.
  const char* plan;
  /// Controller replication factor (1 = the single-controller baseline).
  std::size_t replicas{1};
};

// The HA rows crash the serving replica (id 0) and fail a clique link in
// the same instant, so recovery needs a live controller to reprogram the
// member flow tables around the failure.
constexpr const char* kHaPlan = "at 0 controller-crash 0\nat 0 link-down 1 10";

constexpr Row kRows[] = {
    {"bgp_linkfail", false, false, "at 0 link-down 1 10"},
    {"hybrid_linkfail", true, false, "at 0 link-down 1 10"},
    {"degraded_linkfail", true, true, "at 0 link-down 1 10"},
    {"ctrl_crash", true, false, "at 0 controller-crash"},
    {"ctrl_restart", true, true, "at 0 controller-restart"},
    {"speaker_restart", true, false,
     "at 0 speaker-crash\nat 8 speaker-restart"},
    {"ha_failover_r1", true, false, kHaPlan, 1},
    {"ha_failover_r2", true, false, kHaPlan, 2},
    {"ha_failover_r3", true, false, kHaPlan, 3},
    {"ha_failover_r4", true, false, kHaPlan, 4},
    {"ha_failover_r5", true, false, kHaPlan, 5},
};

/// One trial's observables: the recovery time, the HA failover figures
/// whose medians go into the row's extra block (zero for non-HA rows), and
/// the experiment's counters.
struct TrialResult {
  /// Virtual seconds from arming the row's plan until every AS reaches the
  /// host again (100 ms probe; kTimeoutS when censored). -1 on setup
  /// failure.
  double recovery_s{-1.0};
  double flow_mods_replayed{0.0};
  double election_latency_s{0.0};
  std::map<std::string, std::int64_t> counters;
};

framework::ExperimentConfig fast_config(std::uint64_t seed) {
  framework::ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.timers.mrai = core::Duration::millis(300);
  cfg.timers.hold = core::Duration::seconds(6);
  cfg.timers.keepalive = core::Duration::seconds(2);
  cfg.recompute_delay = core::Duration::millis(100);
  return cfg;
}

bool all_reach(framework::Experiment& exp, net::Ipv4Addr host) {
  for (const auto as : exp.spec().ases) {
    if (as == kHostAs) continue;
    if (exp.trace_route(as, host).empty()) return false;
  }
  return true;
}

TrialResult run_row(const Row& row, std::uint64_t seed) {
  auto cfg = fast_config(seed);
  cfg.controller_replicas = row.replicas;
  const auto spec = topology::clique(kCliqueSize);
  std::set<core::AsNumber> members;
  if (row.with_members) {
    for (std::uint32_t as = 7; as <= kCliqueSize; ++as) {
      members.insert(core::AsNumber{as});
    }
  }
  framework::Experiment exp{spec, members, cfg};
  const auto host_addr = exp.add_host(kHostAs).address();
  TrialResult result;
  const bool started = exp.start(core::Duration::seconds(600));
  const auto probe_until_reach = [&]() -> double {
    const auto t0 = exp.loop().now();
    while ((exp.loop().now() - t0).to_seconds() < kTimeoutS) {
      exp.run_for(core::Duration::millis(100));
      if (all_reach(exp, host_addr)) {
        return (exp.loop().now() - t0).to_seconds();
      }
    }
    return kTimeoutS;  // censored
  };
  const bool ok = bench::checked_trial(exp, started, [&] {
    if (row.pre_degrade) {
      exp.crash_controller();
      // A fallback that never reconverges is a setup failure.
      if (probe_until_reach() >= kTimeoutS) return;
    }

    exp.attach_monitor<framework::FaultInjector>(
        framework::FaultPlan::parse(row.plan));
    result.recovery_s = probe_until_reach();
    if (exp.replica_set() != nullptr) {
      const auto& rc = exp.replica_set()->counters();
      result.flow_mods_replayed = static_cast<double>(rc.flow_mods_replayed);
      result.election_latency_s =
          exp.replica_set()->last_election_latency().to_seconds();
    }
    bench::accumulate_counters(exp, result.counters);
  });
  if (!ok) result.recovery_s = -1.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv);
  const std::size_t runs = cli.runs_or(bench::default_runs());
  const std::size_t points = std::size(kRows);
  const std::uint64_t base_seed = cli.seed_or(kDefaultBaseSeed);
  std::printf("# data-plane time-to-recovery [s] under injected faults, "
              "%zu-AS clique, members 7-%zu\n",
              kCliqueSize, kCliqueSize);
  std::printf("# boxplots over %zu runs; 100 ms probe, censored at %.0f s\n",
              runs, kTimeoutS);
  std::printf("%s\n", framework::boxplot_header("fault").c_str());

  const auto sweep = framework::run_sweep(
      points, runs, framework::default_jobs(),
      [&](std::size_t point, std::size_t run) {
        return run_row(kRows[point], base_seed + run);
      });

  framework::BenchReport report{"bench_chaos"};
  for (std::size_t p = 0; p < points; ++p) {
    const auto values = sweep.values(p, &TrialResult::recovery_s);
    const auto summary = framework::summarize(values);
    std::printf("%s\n",
                framework::boxplot_row(kRows[p].label, summary).c_str());
    telemetry::Json extra = telemetry::Json::object();
    extra["fault"] = std::string{kRows[p].plan};
    extra["replicas"] = static_cast<std::int64_t>(kRows[p].replicas);
    extra["flow_mods_replayed_median"] = framework::quantile(
        sweep.values(p, &TrialResult::flow_mods_replayed), 0.5);
    extra["election_latency_s_median"] = framework::quantile(
        sweep.values(p, &TrialResult::election_latency_s), 0.5);
    report.add_point(kRows[p].label, summary, values, std::move(extra));
  }
  framework::print_footer(sweep.timing);

  if (cli.want_json()) {
    report.set_param("clique_size",
                     telemetry::Json{static_cast<std::int64_t>(kCliqueSize)});
    report.set_param("members", telemetry::Json{std::string{"7-10"}});
    report.set_param("runs",
                     telemetry::Json{static_cast<std::int64_t>(runs)});
    report.set_param("timeout_s", telemetry::Json{kTimeoutS});
    for (const auto& trial : sweep.results) report.add_counters(trial.counters);
    report.set_footer(sweep.timing);
    bench::finish_report(report, cli);
  }
  return bench::any_failed(sweep, &TrialResult::recovery_s) ? 1 : 0;
}
