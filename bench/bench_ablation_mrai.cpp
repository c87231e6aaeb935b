// Baseline sensitivity: MRAI drives BGP path exploration.
//
// The paper's BGP baseline inherits Quagga's 30 s eBGP MRAI; this ablation
// verifies that the framework's withdrawal convergence behaves like the
// classic BGP result (convergence ~ O(clique size x MRAI)) and quantifies
// how the Fig. 2 baseline would move under different MRAI settings —
// the knob that dominates the absolute numbers of the reproduction.
#include <cstdio>

#include "bench_common.hpp"

using namespace bgpsdn;

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv);
  const std::size_t runs = cli.runs_or(bench::default_runs());
  std::printf("# BGP-only withdrawal convergence [s]: clique size x MRAI\n");
  std::printf("# medians over %zu runs\n", runs);
  std::printf("clique\\mrai");
  const double mrais[] = {0.0, 5.0, 15.0, 30.0};
  const std::size_t cliques[] = {4, 8, 12, 16};
  constexpr std::size_t kCols = std::size(mrais);
  for (const double m : mrais) std::printf("\t%.0fs", m);
  std::printf("\n");

  // Every (clique, MRAI, seed) triple is one independent simulation; run
  // the whole grid on the shared pool and print it cell by cell after.
  const std::uint64_t base_seed = cli.seed_or(3000);
  const auto sweep = framework::run_sweep(
      std::size(cliques) * kCols, runs, framework::default_jobs(),
      [&](std::size_t point, std::size_t run) {
        const auto cell =
            framework::ExperimentSpecBuilder{}
                .topology(framework::TopologyModel::kClique,
                          cliques[point / kCols])
                .event(framework::EventKind::kWithdrawal)
                .config(bench::paper_config())
                .mrai(core::Duration::seconds_f(mrais[point % kCols]))
                .build();
        return cell.run_trial(base_seed + run);
      });
  for (std::size_t row = 0; row < std::size(cliques); ++row) {
    std::printf("%zu", cliques[row]);
    for (std::size_t col = 0; col < kCols; ++col) {
      std::printf("\t%.2f",
                  framework::quantile(sweep.values(row * kCols + col), 0.5));
    }
    std::printf("\n");
  }
  framework::print_footer(sweep.timing);
  if (cli.want_json()) {
    framework::BenchReport report{"ablation_mrai"};
    report.set_param("runs", telemetry::Json{static_cast<std::int64_t>(runs)});
    for (std::size_t row = 0; row < std::size(cliques); ++row) {
      for (std::size_t col = 0; col < kCols; ++col) {
        const auto values = sweep.values(row * kCols + col);
        char label[48];
        std::snprintf(label, sizeof label, "clique%zu_mrai%.0fs", cliques[row],
                      mrais[col]);
        report.add_point(label, framework::summarize(values), values);
      }
    }
    report.set_footer(sweep.timing);
    bench::finish_report(report, cli);
  }
  return bench::any_failed(sweep) ? 1 : 0;
}
