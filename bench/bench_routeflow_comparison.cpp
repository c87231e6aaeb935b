// Related-work comparison: the paper's IDR controller vs a RouteFlow-style
// baseline on the Fig. 2 withdrawal scenario.
//
// "RouteFlow is a platform where the controller application mirrors the
// SDN topology to a virtual network and runs a legacy routing protocol on
// top of it. Our controller however does not rely on routing decisions of
// legacy protocols but runs its own algorithms, enabling better
// integration with SDN concepts."
//
// Both controllers drive identical clusters on identical scenarios. The
// IDR controller computes routes centrally (one delayed recomputation per
// burst), so convergence falls with the SDN fraction; RouteFlow's mirrored
// virtual routers hunt at legacy BGP speed, so centralizing more ASes buys
// little — the cluster is BGP all the way down.
#include <cstdio>

#include "bench_common.hpp"

using namespace bgpsdn;

namespace {

double run_one(framework::ControllerStyle style, std::size_t sdn_count,
               std::uint64_t seed) {
  framework::ExperimentConfig cfg = bench::paper_config();
  cfg.seed = seed;
  cfg.controller_style = style;
  const auto spec = topology::clique(16);
  std::set<core::AsNumber> members;
  for (std::size_t i = 0; i < sdn_count; ++i) {
    members.insert(core::AsNumber{static_cast<std::uint32_t>(16 - i)});
  }
  framework::Experiment exp{spec, members, cfg};
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(core::AsNumber{1}, pfx);
  double seconds = -1.0;
  const bool started = exp.start(core::Duration::seconds(600));
  const bool ok = bench::checked_trial(exp, started, [&] {
    const auto t0 = exp.loop().now();
    exp.withdraw_prefix(core::AsNumber{1}, pfx);
    const auto conv = exp.wait_converged(framework::WaitOpts{
        core::Duration::seconds(61), core::Duration::seconds(3600)});
    seconds = conv.since(t0).to_seconds();
  });
  return ok ? seconds : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv);
  const std::size_t runs = cli.runs_or(bench::default_runs());
  std::printf("# withdrawal convergence [s] on a 16-AS clique: IDR controller "
              "vs RouteFlow-style mirror\n");
  std::printf("# medians over %zu runs, paper-faithful timers\n", runs);
  std::printf("sdn_frac\tidr\trouteflow\n");
  const std::size_t fractions[] = {0, 4, 8, 12, 15};
  const std::uint64_t base_seed = cli.seed_or(6000);
  // Point = (fraction, controller style); both styles of a fraction are
  // independent simulations, so the whole comparison shares one pool.
  const auto sweep = framework::run_sweep(
      std::size(fractions) * 2, runs, framework::default_jobs(),
      [&](std::size_t point, std::size_t run) {
        const auto style = point % 2 == 0
                               ? framework::ControllerStyle::kIdrCentralized
                               : framework::ControllerStyle::kRouteFlowMirror;
        return run_one(style, fractions[point / 2], base_seed + run);
      });
  for (std::size_t f = 0; f < std::size(fractions); ++f) {
    std::printf("%zu/16\t%.2f\t%.2f\n", fractions[f],
                framework::quantile(sweep.values(2 * f), 0.5),
                framework::quantile(sweep.values(2 * f + 1), 0.5));
  }
  framework::print_footer(sweep.timing);
  if (cli.want_json()) {
    framework::BenchReport report{"routeflow_comparison"};
    report.set_param("runs", telemetry::Json{static_cast<std::int64_t>(runs)});
    for (std::size_t f = 0; f < std::size(fractions); ++f) {
      for (std::size_t style = 0; style < 2; ++style) {
        const auto values = sweep.values(2 * f + style);
        char label[48];
        std::snprintf(label, sizeof label, "sdn%zu_%s", fractions[f],
                      style == 0 ? "idr" : "routeflow");
        report.add_point(label, framework::summarize(values), values);
      }
    }
    report.set_footer(sweep.timing);
    bench::finish_report(report, cli);
  }
  return bench::any_failed(sweep) ? 1 : 0;
}
