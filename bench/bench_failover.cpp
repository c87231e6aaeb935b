// §4 prose result: "route fail-over ... experiments did not show this
// linear improvement, but smaller reductions."
//
// A dual-homed stub AS originates the prefix: primary link into clique
// member AS 1, backup path via an intermediate AS into the opposite side
// of the clique. Failing the primary link is a classic Tlong event: the
// clique hunts from the short [1 100] routes towards the valid but longer
// [.. 101 100] backup, but the exploration terminates as soon as the
// backup is found — far fewer MRAI rounds than a full withdrawal, so
// centralization helps less and non-linearly (the paper's observation).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bgpsdn;
  const bench::BenchCli cli = bench::parse_cli(argc, argv);
  framework::BenchReport report{"failover"};
  const bool ok = bench::run_sdn_sweep(bench::EventKind::kFailover, 16,
                                       cli.runs_or(bench::default_runs()),
                                       bench::paper_config(),
                                       cli.want_json() ? &report : nullptr,
                                       cli.seed_or(1000));
  bench::finish_report(report, cli);
  return ok ? 0 : 1;
}
