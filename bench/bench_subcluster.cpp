// Sub-cluster resilience experiment (paper objective §2: "an intra-cluster
// link failure does not isolate the controlled ASes: paths over the legacy
// Internet could still connect the sub-clusters").
//
// Topology: an interleaved line 1-[2]-3-[4]-5-... where every even AS is
// an SDN member. Members are mutually non-adjacent, so each is its own
// sub-cluster, and every member beyond the first only hears routes to the
// origin (AS 1) whose AS paths cross the members closer to the origin —
// exactly the situation where the naive "prune anything crossing the
// cluster" rule isolates the deep members, while the fixpoint bridging
// rule settles them pass by pass over the legacy hops in between. We
// report, with bridging ON vs OFF:
//   * how many member switches can route the origin prefix,
//   * end-to-end reachability from the deepest member's host,
//   * convergence time of the withdrawal that follows.
#include <cstdio>

#include "bench_common.hpp"

using namespace bgpsdn;

namespace {

struct Result {
  std::size_t members_routed{0};
  std::size_t members_total{0};
  bool deep_host_reachable{false};
  double withdrawal_conv_s{0};
};

Result run(bool bridging, std::size_t members_n, std::uint64_t seed) {
  framework::ExperimentConfig cfg = bench::paper_config();
  cfg.seed = seed;
  cfg.subcluster_bridging = bridging;
  cfg.timers.mrai = core::Duration::seconds(5);  // keep the sweep snappy

  // Interleaved line: AS 2, 4, 6, ... are members.
  const std::size_t total = 2 * members_n + 1;
  const auto spec = topology::line(total);
  std::set<core::AsNumber> members;
  for (std::size_t i = 0; i < members_n; ++i) {
    members.insert(core::AsNumber{static_cast<std::uint32_t>(2 * (i + 1))});
  }

  framework::Experiment exp{spec, members, cfg};
  auto& origin_host = exp.add_host(core::AsNumber{1});
  const core::AsNumber deepest{static_cast<std::uint32_t>(2 * members_n)};
  exp.add_host(deepest);

  Result res;
  res.members_total = members_n;
  const bool started = exp.start();
  const bool ok = bench::checked_trial(exp, started, [&] {
    const auto pfx = exp.as_prefix(core::AsNumber{1});
    const auto* decision = exp.idr_controller()->decision_for(pfx);
    for (const auto as : members) {
      if (decision != nullptr &&
          decision->reachable(exp.member_switch(as).dpid())) {
        ++res.members_routed;
      }
    }
    res.deep_host_reachable =
        !exp.trace_route(deepest, origin_host.address()).empty();

    const auto t0 = exp.loop().now();
    exp.withdraw_prefix(core::AsNumber{1}, pfx);
    const auto conv = exp.wait_converged(framework::WaitOpts{
        core::Duration::seconds(11), core::Duration::seconds(1200)});
    res.withdrawal_conv_s = conv.since(t0).to_seconds();
  });
  if (!ok) res.withdrawal_conv_s = -1.0;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv);
  const std::size_t runs = cli.runs_or(bench::default_runs());
  std::printf(
      "# sub-cluster bridging: interleaved line 1-[2]-3-[4]-..., origin at "
      "AS1\n");
  std::printf("# medians over %zu runs; MRAI 5 s\n", runs);
  std::printf("members\tbridging\trouted\tdeep_reach\twithdraw_conv_s\n");
  const std::size_t member_counts[] = {2, 4, 6};
  const std::uint64_t base_seed = cli.seed_or(4000);
  // Point = (members_n, bridging) combo, bridging fastest-varying to match
  // the printed row order.
  const auto sweep = framework::run_sweep(
      std::size(member_counts) * 2, runs, framework::default_jobs(),
      [&](std::size_t point, std::size_t r) {
        return run(point % 2 == 1, member_counts[point / 2], base_seed + r);
      });
  framework::BenchReport report{"subcluster"};
  report.set_param("runs", telemetry::Json{static_cast<std::int64_t>(runs)});
  for (std::size_t point = 0; point < std::size(member_counts) * 2; ++point) {
    const std::size_t members_n = member_counts[point / 2];
    const bool bridging = point % 2 == 1;
    const auto routed = sweep.values(point, &Result::members_routed);
    const auto reach = sweep.values(point, &Result::deep_host_reachable);
    const auto conv = sweep.values(point, &Result::withdrawal_conv_s);
    std::printf("%zu\t%s\t%.0f/%zu\t%.0f%%\t%.2f\n", members_n,
                bridging ? "on" : "off", framework::quantile(routed, 0.5),
                members_n, 100.0 * framework::quantile(reach, 0.5),
                framework::quantile(conv, 0.5));
    std::fflush(stdout);
    if (cli.want_json()) {
      char label[48];
      std::snprintf(label, sizeof label, "members%zu_bridging_%s", members_n,
                    bridging ? "on" : "off");
      telemetry::Json extra = telemetry::Json::object();
      extra["members_total"] = static_cast<std::int64_t>(members_n);
      extra["routed_median"] = framework::quantile(routed, 0.5);
      extra["deep_reach_median"] = framework::quantile(reach, 0.5);
      report.add_point(label, framework::summarize(conv), conv,
                       std::move(extra));
    }
  }
  framework::print_footer(sweep.timing);
  report.set_footer(sweep.timing);
  bench::finish_report(report, cli);
  return bench::any_failed(sweep, &Result::withdrawal_conv_s) ? 1 : 0;
}
