// Stability ablation: distributed route-flap damping (RFC 2439) versus the
// controller's centralized delayed recomputation, under a flapping origin.
//
// The paper motivates delayed recomputation as the controller-side defence
// against "bursts in external BGP input"; classic BGP defends the same
// flapping with per-router damping. This bench puts both on the same
// scenario — a 16-AS clique with 8 SDN members whose origin flaps its
// prefix 5 times — and reports the churn each mechanism (and their
// combination) leaves: BGP updates heard by a far legacy AS, flow-mods
// pushed into the cluster, and whether the prefix is usable at the end.
#include <cstdio>

#include "bench_common.hpp"

using namespace bgpsdn;

namespace {

struct ChurnResult {
  double updates_at_observer{0};
  double flow_mods{0};
  double suppressions{0};
  bool usable_at_end{false};
};

ChurnResult run(bool damping, core::Duration recompute_delay,
                std::uint64_t seed) {
  framework::ExperimentConfig cfg = bench::paper_config();
  cfg.seed = seed;
  cfg.timers.mrai = core::Duration::seconds(5);
  cfg.recompute_delay = recompute_delay;
  cfg.damping.enabled = damping;
  cfg.damping.half_life = core::Duration::seconds(60);
  cfg.damping.max_suppress = core::Duration::seconds(240);

  const auto spec = topology::clique(16);
  std::set<core::AsNumber> members;
  for (std::uint32_t as = 9; as <= 16; ++as) members.insert(core::AsNumber{as});
  framework::Experiment exp{spec, members, cfg};
  const core::AsNumber origin{1}, observer{8};
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(origin, pfx);

  ChurnResult res;
  const bool started = exp.start();
  const bool ok = bench::checked_trial(exp, started, [&] {
    const auto updates0 = exp.router(observer).counters().updates_rx;
    const auto mods0 = exp.idr_controller()->counters().flow_adds +
                       exp.idr_controller()->counters().flow_deletes;

    // Five withdraw/re-announce cycles, 8 s apart (inside the half-life).
    for (int i = 0; i < 5; ++i) {
      exp.withdraw_prefix(origin, pfx);
      exp.run_for(core::Duration::seconds(8));
      exp.announce_prefix(origin, pfx);
      exp.run_for(core::Duration::seconds(8));
    }
    exp.wait_converged(framework::WaitOpts{core::Duration::seconds(11),
                                           core::Duration::seconds(2400)});
    // Give damping reuse timers a chance before judging usability.
    exp.run_for(core::Duration::seconds(240));

    res.updates_at_observer = static_cast<double>(
        exp.router(observer).counters().updates_rx - updates0);
    res.flow_mods = static_cast<double>(
        exp.idr_controller()->counters().flow_adds +
        exp.idr_controller()->counters().flow_deletes - mods0);
    std::uint64_t suppressions = 0;
    for (const auto as : spec.ases) {
      if (!exp.is_member(as)) {
        suppressions += exp.router(as).counters().routes_suppressed;
      }
    }
    res.suppressions = static_cast<double>(suppressions);
    res.usable_at_end = exp.router(observer).loc_rib().find(pfx) != nullptr;
  });
  if (!ok) res.updates_at_observer = -1.0;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv);
  const std::size_t runs = cli.runs_or(bench::default_runs());
  std::printf("# flap-stability ablation: 16-AS clique, 8 SDN members, origin "
              "flaps 5x (MRAI 5 s)\n");
  std::printf("# medians over %zu runs\n", runs);
  std::printf("damping\trecompute_s\tobs_updates\tflow_mods\tsuppressions\tusable\n");
  const double delays[] = {0.0, 2.0, 8.0};
  constexpr std::size_t kCols = std::size(delays);
  const std::uint64_t base_seed = cli.seed_or(5000);
  // Point = (damping, delay) combo; the whole grid shares the worker pool.
  const auto sweep = framework::run_sweep(
      2 * kCols, runs, framework::default_jobs(),
      [&](std::size_t point, std::size_t r) {
        return run(point / kCols == 1,
                   core::Duration::seconds_f(delays[point % kCols]),
                   base_seed + r);
      });
  framework::BenchReport report{"ablation_damping"};
  report.set_param("runs", telemetry::Json{static_cast<std::int64_t>(runs)});
  for (std::size_t point = 0; point < 2 * kCols; ++point) {
    const bool damping = point / kCols == 1;
    const auto upd = sweep.values(point, &ChurnResult::updates_at_observer);
    const auto mods = sweep.values(point, &ChurnResult::flow_mods);
    const auto sup = sweep.values(point, &ChurnResult::suppressions);
    int usable = 0;
    for (const double u : sweep.values(point, &ChurnResult::usable_at_end)) {
      usable += u > 0 ? 1 : 0;
    }
    std::printf("%s\t%.0f\t%.0f\t%.0f\t%.0f\t%d/%zu\n",
                damping ? "on" : "off", delays[point % kCols],
                framework::quantile(upd, 0.5), framework::quantile(mods, 0.5),
                framework::quantile(sup, 0.5), usable, runs);
    std::fflush(stdout);
    if (cli.want_json()) {
      char label[48];
      std::snprintf(label, sizeof label, "damping_%s_delay%.0fs",
                    damping ? "on" : "off", delays[point % kCols]);
      telemetry::Json extra = telemetry::Json::object();
      extra["flow_mods_median"] = framework::quantile(mods, 0.5);
      extra["suppressions_median"] = framework::quantile(sup, 0.5);
      extra["usable_runs"] = static_cast<std::int64_t>(usable);
      report.add_point(label, framework::summarize(upd), upd,
                       std::move(extra));
    }
  }
  framework::print_footer(sweep.timing);
  report.set_footer(sweep.timing);
  bench::finish_report(report, cli);
  return bench::any_failed(sweep, &ChurnResult::updates_at_observer) ? 1 : 0;
}
