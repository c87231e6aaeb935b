// Ablation of the paper's design insight #2: "the need for a delayed
// recomputation of best paths on the controller's side, so as to improve
// overall stability and rate-limit route flaps due to bursts in external
// BGP input."
//
// Two sweeps over the fixed evaluation topology (16-AS clique, 8 SDN
// members):
//
//   1. Delay sweep — origin withdrawal (the burstiest input) swept over the
//      controller's recompute delay. Reported per delay: convergence time,
//      recompute passes, flow-mods, announcements to the legacy world, and
//      the recompute cost (total virtual-time span of recompute_batch — the
//      sum of the ctrl.idr.batch_wait_ns histogram).
//
//   2. Churn ablation — a link-flap train on a cluster link under the
//      controller's delta-SPT engine. The recomputation work — prefix
//      recomputes and SPT vertices settled — is the ablation result;
//      validate_bench_json.py gates it against a from-scratch engine's
//      figures for the same trains (DESIGN.md §11).
#include <cstdio>

#include "bench_common.hpp"

using namespace bgpsdn;

namespace {

/// Total recompute_batch span (seconds of virtual time) accumulated so far:
/// the sum of the batch-wait histogram, which records one sample per pass
/// covering first-dirtying-input -> batch execution.
double batch_span_seconds(framework::Experiment& exp) {
  const auto* h =
      exp.telemetry().metrics().find_histogram("ctrl.idr.batch_wait_ns");
  return h == nullptr ? 0.0 : static_cast<double>(h->sum()) * 1e-9;
}

// --- sweep 1: recompute delay ----------------------------------------------

struct AblationPoint {
  double conv_seconds{0};
  double recomputes{0};
  double flow_mods{0};
  double speaker_msgs{0};
  double batch_span_s{0};
};

AblationPoint run_point(core::Duration recompute_delay, std::uint64_t seed) {
  const auto cell = framework::ExperimentSpecBuilder{}
                        .topology(framework::TopologyModel::kClique, 16)
                        .sdn_count(8)
                        .event(framework::EventKind::kWithdrawal)
                        .config(bench::paper_config())
                        .recompute_delay(recompute_delay)
                        .wait_quiet(core::Duration::seconds(61))
                        .build();
  // The cell is driven by hand (not run_trial) because the result reads
  // controller deltas around the event, not just the convergence time.
  const auto exp = cell.make_experiment(seed);
  AblationPoint p;
  const bool started = exp->start();
  const bool ok = bench::checked_trial(*exp, started, [&] {
    auto* ctrl = exp->idr_controller();
    const auto recomputes0 = ctrl->counters().recompute_passes;
    const auto mods0 = ctrl->counters().flow_adds + ctrl->counters().flow_deletes;
    const auto spk0 = exp->cluster_speaker()->counters().announces_tx +
                      exp->cluster_speaker()->counters().withdraws_tx;
    const double span0 = batch_span_seconds(*exp);

    const auto t0 = cell.inject_event(*exp);
    const auto conv = exp->wait_converged(framework::WaitOpts{
        cell.effective_quiet(), core::Duration::seconds(3600)});

    p.conv_seconds = conv.since(t0).to_seconds();
    p.recomputes =
        static_cast<double>(ctrl->counters().recompute_passes - recomputes0);
    p.flow_mods = static_cast<double>(ctrl->counters().flow_adds +
                                      ctrl->counters().flow_deletes - mods0);
    p.speaker_msgs =
        static_cast<double>(exp->cluster_speaker()->counters().announces_tx +
                            exp->cluster_speaker()->counters().withdraws_tx -
                            spk0);
    p.batch_span_s = batch_span_seconds(*exp) - span0;
  });
  if (!ok) p.conv_seconds = -1.0;
  return p;
}

// --- sweep 2: churn -----------------------------------------------------------

struct ChurnPoint {
  double conv_seconds{0};       // virtual time of the whole flap train
  double prefix_recomputes{0};  // per-prefix decisions recomputed
  double settles{0};            // SPT vertices settled (see below)
  double flow_mods{0};
};

/// One flap train: `flaps` fail/restore cycles of the 9-10 cluster link,
/// waiting out convergence after every transition. The settle count is the
/// SPT vertices the engine replayed (a from-scratch engine would settle
/// every tree vertex of every recomputed prefix).
ChurnPoint run_churn(std::size_t flaps, std::uint64_t seed) {
  const auto cell = framework::ExperimentSpecBuilder{}
                        .topology(framework::TopologyModel::kClique, 16)
                        .sdn_count(8)
                        .event(framework::EventKind::kFlapTrain)
                        .flap_cycles(flaps)
                        .config(bench::paper_config())
                        .announce(core::AsNumber{1},
                                  *net::Prefix::parse("10.90.0.0/16"))
                        .announce(core::AsNumber{1},
                                  *net::Prefix::parse("10.91.0.0/16"))
                        .announce(core::AsNumber{2},
                                  *net::Prefix::parse("10.92.0.0/16"))
                        .announce(core::AsNumber{2},
                                  *net::Prefix::parse("10.93.0.0/16"))
                        .build();
  // Driven by hand (not run_trial) for the controller deltas; the flap
  // train itself — fail/restore the link between the two lowest members,
  // waiting out convergence after every transition — is inject_event().
  const auto exp = cell.make_experiment(seed);
  ChurnPoint p;
  const bool started = exp->start();
  const bool ok = bench::checked_trial(*exp, started, [&] {
    exp->wait_converged();

    auto* ctrl = exp->idr_controller();
    const auto recomputes0 = ctrl->counters().prefix_recomputes;
    const auto replayed0 = ctrl->counters().spt_vertices_replayed;
    const auto mods0 = ctrl->counters().flow_adds + ctrl->counters().flow_deletes;
    const auto t0 = exp->loop().now();
    cell.inject_event(*exp);

    p.conv_seconds = (exp->loop().now() - t0).to_seconds();
    p.prefix_recomputes =
        static_cast<double>(ctrl->counters().prefix_recomputes - recomputes0);
    p.settles = static_cast<double>(ctrl->counters().spt_vertices_replayed -
                                    replayed0);
    p.flow_mods = static_cast<double>(ctrl->counters().flow_adds +
                                      ctrl->counters().flow_deletes - mods0);
  });
  if (!ok) p.conv_seconds = -1.0;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv);
  const std::size_t runs = cli.runs_or(bench::default_runs());
  std::printf(
      "# delayed-recomputation ablation: 16-AS clique, 8 SDN members, "
      "withdrawal burst\n");
  std::printf("# medians over %zu runs\n", runs);
  std::printf("delay_s\tconv_s\trecomputes\tflow_mods\tspeaker_msgs\tbatch_span_s\n");
  const double delays[] = {0.0, 0.5, 1.0, 2.0, 4.0, 8.0};
  const auto sweep = framework::run_sweep(
      std::size(delays), runs, framework::default_jobs(),
      [&](std::size_t point, std::size_t r) {
        return run_point(core::Duration::seconds_f(delays[point]),
                         cli.seed_or(2000) + r);
      });
  framework::BenchReport report{"ablation_recompute"};
  report.set_param("runs", telemetry::Json{static_cast<std::int64_t>(runs)});
  for (std::size_t point = 0; point < std::size(delays); ++point) {
    const auto conv = sweep.values(point, &AblationPoint::conv_seconds);
    const auto rec = sweep.values(point, &AblationPoint::recomputes);
    const auto mods = sweep.values(point, &AblationPoint::flow_mods);
    const auto spk = sweep.values(point, &AblationPoint::speaker_msgs);
    const auto span = sweep.values(point, &AblationPoint::batch_span_s);
    std::printf("%.1f\t%.2f\t%.0f\t%.0f\t%.0f\t%.2f\n", delays[point],
                framework::quantile(conv, 0.5), framework::quantile(rec, 0.5),
                framework::quantile(mods, 0.5), framework::quantile(spk, 0.5),
                framework::quantile(span, 0.5));
    std::fflush(stdout);
    if (cli.want_json()) {
      char label[32];
      std::snprintf(label, sizeof label, "delay%.1fs", delays[point]);
      telemetry::Json extra = telemetry::Json::object();
      extra["recomputes_median"] = framework::quantile(rec, 0.5);
      extra["flow_mods_median"] = framework::quantile(mods, 0.5);
      extra["speaker_msgs_median"] = framework::quantile(spk, 0.5);
      extra["batch_span_s_median"] = framework::quantile(span, 0.5);
      report.add_point(label, framework::summarize(conv), conv,
                       std::move(extra));
    }
  }
  framework::print_footer(sweep.timing);

  // Churn ablation: the recomputation work a cluster-link flap train costs
  // the delta-SPT engine.
  std::printf(
      "\n# churn ablation: cluster-link flap train, incremental "
      "recomputation\n");
  std::printf("flaps\tconv_s\tprefix_recomputes\tsettles\tflow_mods\n");
  const std::size_t flap_counts[] = {2, 6, 12};
  const auto churn = framework::run_sweep(
      std::size(flap_counts), runs, framework::default_jobs(),
      [&](std::size_t point, std::size_t r) {
        return run_churn(flap_counts[point], cli.seed_or(3000) + r);
      });
  for (std::size_t point = 0; point < std::size(flap_counts); ++point) {
    const std::size_t flaps = flap_counts[point];
    const auto conv = churn.values(point, &ChurnPoint::conv_seconds);
    const auto rec = churn.values(point, &ChurnPoint::prefix_recomputes);
    const auto settles = churn.values(point, &ChurnPoint::settles);
    const auto mods = churn.values(point, &ChurnPoint::flow_mods);
    std::printf("%zu\t%.2f\t%.0f\t%.0f\t%.0f\n", flaps,
                framework::quantile(conv, 0.5), framework::quantile(rec, 0.5),
                framework::quantile(settles, 0.5),
                framework::quantile(mods, 0.5));
    std::fflush(stdout);
    if (cli.want_json()) {
      // The label keeps its engine suffix so the points stay comparable
      // with the committed baseline.
      char label[48];
      std::snprintf(label, sizeof label, "churn%zu_incremental", flaps);
      telemetry::Json extra = telemetry::Json::object();
      extra["prefix_recomputes_median"] = framework::quantile(rec, 0.5);
      extra["settles_median"] = framework::quantile(settles, 0.5);
      extra["flow_mods_median"] = framework::quantile(mods, 0.5);
      report.add_point(label, framework::summarize(conv), conv,
                       std::move(extra));
    }
  }
  framework::print_footer(churn.timing);
  report.set_footer(sweep.timing + churn.timing);
  bench::finish_report(report, cli);
  return bench::any_failed(sweep, &AblationPoint::conv_seconds) ||
                 bench::any_failed(churn, &ChurnPoint::conv_seconds)
             ? 1
             : 0;
}
