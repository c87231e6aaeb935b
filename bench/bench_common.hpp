// Shared driver for the paper-reproduction experiment benches.
//
// Each bench binary reproduces one table/figure: it sweeps a parameter
// (SDN fraction, recompute delay, MRAI, clique size), runs N seeded trials
// per point, and prints the same boxplot rows the paper's figures show.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "framework/config_text.hpp"
#include "framework/experiment_spec.hpp"
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
    EventKind event, std::size_t clique_size, std::size_t runs,
    const framework::ExperimentConfig& base_config, std::uint64_t base_seed) {
  return framework::ExperimentSpecBuilder{}
      .topology(framework::TopologyModel::kClique, clique_size)
      .event(event)
      .config(base_config)
      .trials(runs)
      .base_seed(base_seed)
      .build();
}

/// Footer every bench prints after a parallel sweep: real wall time, the
/// serial-equivalent time (sum of per-trial wall times — what jobs=1 would
/// have cost), and the measured speedup between the two.
inline void print_parallel_footer(std::size_t trials, std::size_t jobs,
                                  double wall_s, double trial_s) {
  std::printf(
      "# sweep: %zu trials, jobs=%zu, wall %.2f s, serial-equivalent %.2f s, "
      "speedup %.2fx, %.2f trials/s\n",
      trials, jobs, wall_s, trial_s, wall_s > 0 ? trial_s / wall_s : 0.0,
      wall_s > 0 ? static_cast<double>(trials) / wall_s : 0.0);
  std::fflush(stdout);
}

inline void print_parallel_footer(const framework::SweepResult& sweep) {
  print_parallel_footer(sweep.trials, sweep.jobs, sweep.wall_seconds,
                        sweep.trial_seconds);
}

/// Timing of a run_trial_grid call (benches whose trials return structs).
struct GridTiming {
  std::size_t trials{0};
  std::size_t jobs{1};
  double wall_seconds{0};
  double trial_seconds{0};
};

/// Runs fn(point, run) for every (point, run) pair on a shared worker pool
/// honoring BGPSDN_JOBS, storing results by index — deterministic output
/// order regardless of the job count. For benches whose trials produce a
/// metrics struct rather than one double.
template <typename R, typename Fn>
GridTiming run_trial_grid(std::size_t points, std::size_t runs,
                          std::vector<R>& results, Fn&& fn) {
  // lint: wall-clock-ok(wall/serial-equivalent footer timing only; never
  // feeds simulation state or the deterministic JSON points/counters)
  using Clock = std::chrono::steady_clock;
  GridTiming timing;
  timing.trials = points * runs;
  timing.jobs = framework::default_jobs();
  results.assign(points * runs, R{});
  std::vector<double> seconds(points * runs, 0.0);
  const auto t0 = Clock::now();
  framework::parallel_for_index(
      points * runs, timing.jobs, [&](std::size_t task) {
        const auto s0 = Clock::now();
        results[task] = fn(task / runs, task % runs);
        seconds[task] =
            std::chrono::duration<double>(Clock::now() - s0).count();
      });
  timing.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  // lint: float-order-ok(index-ordered vector, and wall timing is footer
  // diagnostics excluded from the determinism diff)
  for (const double s : seconds) timing.trial_seconds += s;
  return timing;
}

inline void print_parallel_footer(const GridTiming& timing) {
  print_parallel_footer(timing.trials, timing.jobs, timing.wall_seconds,
                        timing.trial_seconds);
}

/// Print a full SDN-fraction sweep as boxplot rows. Trials run in parallel
/// across both fractions and seeds (BGPSDN_JOBS workers); rows keep the
/// exact serial-run values, plus each row's serial-equivalent seconds and
/// effective trials/sec.
inline void run_sdn_sweep(EventKind event, std::size_t clique_size,
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
  std::printf("%s\ttrial_s\ttrials_per_s\n",
              framework::boxplot_header("sdn_frac").c_str());
  const framework::ExperimentSpec base =
      sweep_base_spec(event, clique_size, runs, base_config, base_seed);
  // Per-task counter snapshots land in index-addressed slots and are summed
  // in task order after the sweep — deterministic at any job count.
  std::vector<std::map<std::string, std::int64_t>> task_counters(
      report != nullptr ? clique_size * runs : 0);
  framework::ParamSweepRunner runner{runs, base_seed};
  const auto sweep = runner.run(clique_size,
                                [&](std::size_t k, std::uint64_t seed) {
    framework::ExperimentSpec cell = base;
    cell.sdn_count = k;
    auto* counters =
        report != nullptr
            ? &task_counters[k * runs +
                             static_cast<std::size_t>(seed - base_seed)]
            : nullptr;
    return cell.run_trial(seed, counters);
  });
  for (std::size_t k = 0; k < clique_size; ++k) {
    const auto& row = sweep.points[k];
    char label[48];
    std::snprintf(label, sizeof label, "%zu/%zu", k, clique_size);
    std::printf("%s\t%.2f\t%.2f\n",
                framework::boxplot_row(label, row.summary).c_str(),
                row.trial_seconds, row.trials_per_second());
    if (report != nullptr) report->add_point(label, row.summary, row.values);
  }
  print_parallel_footer(sweep);
  if (report != nullptr) {
    report->set_param("event",
                      telemetry::Json{std::string{framework::to_string(event)}});
    report->set_param("clique_size",
                      telemetry::Json{static_cast<std::int64_t>(clique_size)});
    report->set_param("runs", telemetry::Json{static_cast<std::int64_t>(runs)});
    for (const auto& per_task : task_counters) {
      for (const auto& [name, value] : per_task) {
        report->add_counter(name, value);
      }
    }
    report->set_footer(static_cast<std::int64_t>(sweep.trials),
                       static_cast<std::int64_t>(sweep.jobs),
                       sweep.wall_seconds, sweep.trial_seconds);
  }
}

/// Paper-faithful timer defaults (Quagga eBGP profile).
inline framework::ExperimentConfig paper_config() {
  framework::ExperimentConfig cfg;
  // Defaults in bgp::Timers already match (MRAI 30 s, keepalive 30 s,
  // hold 90 s); recompute delay 2 s.
  return cfg;
}

/// Trial count: 10 as in the paper; BGPSDN_QUICK=1 drops to 3 for smoke runs.
inline std::size_t default_runs() {
  const char* quick = std::getenv("BGPSDN_QUICK");
  return (quick != nullptr && quick[0] == '1') ? 3 : 10;
}

}  // namespace bgpsdn::bench
