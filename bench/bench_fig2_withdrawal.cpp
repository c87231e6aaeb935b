// Fig. 2 reproduction: "IDR convergence time of route withdrawal on a
// 16-AS clique topology versus fraction of ASes with centralized route
// control. The remaining ASes use standard BGP. We show boxplots over 10
// runs."
//
// AS 1 (always legacy) originates 10.0.0.0/16, the network converges, the
// origin withdraws, and the convergence detector reports when routing goes
// quiet. The paper's claim is a roughly linear reduction with the SDN
// fraction; the pure-BGP end shows minutes of MRAI-paced path hunting, the
// full-SDN end collapses to the controller's single delayed recomputation.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bgpsdn;
  const bench::BenchCli cli = bench::parse_cli(argc, argv);
  framework::BenchReport report{"fig2_withdrawal"};
  const bool ok = bench::run_sdn_sweep(bench::EventKind::kWithdrawal, 16,
                                       cli.runs_or(bench::default_runs()),
                                       bench::paper_config(),
                                       cli.want_json() ? &report : nullptr,
                                       cli.seed_or(1000));
  bench::finish_report(report, cli);
  return ok ? 0 : 1;
}
