// §4 prose result: new-prefix announcement shows smaller reductions than
// withdrawal.
//
// After initial convergence AS 1 announces a second, previously unknown
// prefix. Announcement propagation has no path hunting — every AS accepts
// the first (and best) path it hears, so convergence is a single wave of
// updates bounded by one MRAI round; centralization helps only modestly.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bgpsdn;
  const bench::BenchCli cli = bench::parse_cli(argc, argv);
  framework::BenchReport report{"announcement"};
  const bool ok = bench::run_sdn_sweep(bench::EventKind::kAnnouncement, 16,
                                       cli.runs_or(bench::default_runs()),
                                       bench::paper_config(),
                                       cli.want_json() ? &report : nullptr,
                                       cli.seed_or(1000));
  bench::finish_report(report, cli);
  return ok ? 0 : 1;
}
