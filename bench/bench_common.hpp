// Shared driver for the paper-reproduction experiment benches.
//
// Each bench binary reproduces one table/figure: it sweeps a parameter
// (SDN fraction, recompute delay, MRAI, clique size), runs N seeded trials
// per point, and prints the same boxplot rows the paper's figures show.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "framework/config_text.hpp"
#include "framework/experiment_spec.hpp"
#include "framework/matrix.hpp"
#include "framework/report.hpp"
#include "topology/generators.hpp"
#include "framework/stats.hpp"
#include "framework/trial.hpp"

namespace bgpsdn::bench {

/// Options common to every bench binary.
struct BenchCli {
  /// Where to write the bgpsdn.bench/1 JSON document; empty = stdout only.
  std::string json_path;
  /// --trials / --seed overrides; unset = the bench's own defaults.
  std::optional<std::size_t> trials;
  std::optional<std::uint64_t> seed;

  bool want_json() const { return !json_path.empty(); }
  std::size_t runs_or(std::size_t fallback) const {
    return trials ? *trials : fallback;
  }
  std::uint64_t seed_or(std::uint64_t fallback) const {
    return seed ? *seed : fallback;
  }
};

/// Parses the shared bench options — `--json <path>`, `--trials N`,
/// `--seed S`, `--help` — and exits on usage errors, so benches can call it
/// first thing in main(). With `passthrough` non-null, unrecognized
/// arguments are collected there (argv[0] first) instead of rejected — for
/// benches that forward the rest to another parser (bench_micro ->
/// google-benchmark).
inline BenchCli parse_cli(int argc, char** argv,
                          std::vector<char*>* passthrough = nullptr) {
  BenchCli cli;
  if (passthrough != nullptr) passthrough->push_back(argv[0]);
  const auto value_arg = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      cli.json_path = value_arg(i, "--json");
    } else if (arg == "--trials" || arg == "--seed") {
      try {
        const std::uint64_t v = framework::next_flag_value(argc, argv, i);
        if (arg == "--trials") {
          cli.trials = v;
        } else {
          cli.seed = v;
        }
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        std::exit(2);
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--json <path>] [--trials N] [--seed S]\n\n"
          "Runs the bench and prints boxplot rows to stdout. With --json it\n"
          "additionally writes a schema-stable bgpsdn.bench/1 JSON document\n"
          "(everything but the wall-clock footer is deterministic per seed).\n"
          "--trials and --seed override the bench's run count and base seed\n"
          "(BGPSDN_QUICK=1 is the 3-run smoke default).\n",
          argv[0]);
      std::exit(0);
    } else if (passthrough != nullptr) {
      passthrough->push_back(argv[i]);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n", argv[0],
                   arg.c_str());
      std::exit(2);
    }
  }
  return cli;
}

/// Writes the report if --json was given; exits non-zero on I/O failure.
inline void finish_report(const framework::BenchReport& report,
                          const BenchCli& cli) {
  if (!cli.want_json()) return;
  if (!report.write_file(cli.json_path)) {
    std::fprintf(stderr, "failed to write %s\n", cli.json_path.c_str());
    std::exit(1);
  }
  std::printf("# json: %s\n", cli.json_path.c_str());
}

/// ExperimentSpec::run_trial's failure rule for the benches that drive an
/// experiment by hand (framework helper, re-exported for the benches): a
/// failed trial reports its point value as -1 (see any_failed()).
using framework::checked_trial;

/// Whether any trial of `sweep` failed, i.e. reads a negative point value
/// through `point`. A bench prints its rows and report first, then exits 1
/// when this holds.
template <typename R, typename Proj = std::identity>
bool any_failed(const framework::Sweep<R>& sweep, Proj point = {}) {
  for (const R& r : sweep.results) {
    if (std::invoke(point, r) < 0) return true;
  }
  return false;
}

/// Sums every telemetry counter of a finished experiment into `out` —
/// the "key counters" block of the JSON reports (framework helper,
/// re-exported for the benches).
using framework::accumulate_counters;

/// Shorthands: the benches sweep EventKind cells over clique topologies.
using framework::EventKind;

/// The base spec every SDN-fraction sweep cell derives from: a hybrid
/// clique (AS 1 is always legacy; members come from the top AS numbers)
/// where the event is injected after convergence. See EventKind for the
/// scenario shapes (kWithdrawal = paper Fig. 2, kFailover = Tlong,
/// kAnnouncement = Tup).
inline framework::ExperimentSpec sweep_base_spec(
    EventKind event, std::size_t clique_size,
    const framework::ExperimentConfig& base_config) {
  return framework::ExperimentSpecBuilder{}
      .topology(framework::TopologyModel::kClique, clique_size)
      .event(event)
      .config(base_config)
      .build();
}

/// Print a full SDN-fraction sweep as boxplot rows. Trials run in parallel
/// across both fractions and seeds (BGPSDN_JOBS workers); rows keep the
/// exact serial-run values, plus each row's serial-equivalent seconds and
/// effective trials/sec. Returns false when any trial failed.
inline bool run_sdn_sweep(EventKind event, std::size_t clique_size,
                          std::size_t runs,
                          const framework::ExperimentConfig& base_config,
                          framework::BenchReport* report = nullptr,
                          std::uint64_t base_seed = 1000) {
  std::printf("# %s convergence time [s] on a %zu-AS clique vs SDN fraction\n",
              framework::to_string(event), clique_size);
  std::printf("# boxplots over %zu runs (paper: %s)\n", runs,
              event == EventKind::kWithdrawal
                  ? "Fig. 2"
                  : "SS4 prose result, smaller reductions than Fig. 2");
  const framework::ExperimentSpec base =
      sweep_base_spec(event, clique_size, base_config);
  std::vector<framework::MatrixCell> cells;
  for (std::size_t k = 0; k < clique_size; ++k) {
    framework::MatrixCell& cell = cells.emplace_back();
    cell.label = std::to_string(k) + "/" + std::to_string(clique_size);
    cell.spec = base;
    cell.spec.sdn_count = k;
  }
  const bool ok = framework::run_spec_sweep(cells, "sdn_frac", runs, base_seed,
                                            framework::default_jobs(), report);
  if (report != nullptr) {
    report->set_param("event",
                      telemetry::Json{std::string{framework::to_string(event)}});
    report->set_param("clique_size",
                      telemetry::Json{static_cast<std::int64_t>(clique_size)});
    report->set_param("runs", telemetry::Json{static_cast<std::int64_t>(runs)});
  }
  return ok;
}

/// Paper-faithful timer defaults (Quagga eBGP profile).
inline framework::ExperimentConfig paper_config() {
  framework::ExperimentConfig cfg;
  // Defaults in bgp::Timers already match (MRAI 30 s, keepalive 30 s,
  // hold 90 s); recompute delay 2 s.
  return cfg;
}

/// Trial count: 10 as in the paper; BGPSDN_QUICK=1 drops to 3 for smoke runs.
inline std::size_t default_runs() { return framework::quick_mode() ? 3 : 10; }

}  // namespace bgpsdn::bench
