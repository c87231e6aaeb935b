// bgpsdn_run — execute a scenario script.
//
//   $ bgpsdn_run experiment.bgpsdn              # one run, from a file
//   $ bgpsdn_run -                              # one run, from stdin
//   $ bgpsdn_run --trials 10 experiment.bgpsdn  # 10 seeded parallel trials
//
// With --trials N the script is executed N times with seeds base, base+1,
// ... (overriding any `seed` command), in parallel across BGPSDN_JOBS (or
// --jobs) worker threads — one independent simulation per seed, exactly like
// the paper's "boxplots over 10 runs". The per-trial wait-converged times
// are summarized as a boxplot row; per-trial output is suppressed.
//
// Exit code 0 when the script ran and every expectation held (in every
// trial); 1 otherwise.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "framework/config_text.hpp"
#include "framework/report.hpp"
#include "framework/scenario.hpp"
#include "framework/stats.hpp"
#include "framework/telemetry_monitor.hpp"
#include "framework/trial.hpp"

namespace {

void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--trials N] [--base-seed S] [--jobs J] [--json PATH] "
               "[--faults PATH] <scenario-file | ->\n"
               "  --json PATH  write a bgpsdn.bench/1 JSON document: single "
               "runs include\n"
               "               the full telemetry capture (metrics, monitors, "
               "trace stats),\n"
               "               --trials runs include the boxplot point and "
               "footer\n"
               "  --faults PATH  arm a fault plan when the scenario's 'start' "
               "completes\n"
               "               (see src/framework/faults.hpp for the plan "
               "grammar)\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t trials = 1;
  std::uint64_t base_seed = 1000;
  std::size_t jobs = 0;  // 0 = BGPSDN_JOBS / hardware_concurrency
  std::string json_path;
  std::string faults_path;
  std::string input;
  bool have_input = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg{argv[i]};
      if (arg == "--trials") {
        trials = bgpsdn::framework::next_flag_value(argc, argv, i);
      } else if (arg == "--base-seed") {
        base_seed = bgpsdn::framework::next_flag_value(argc, argv, i);
      } else if (arg == "--jobs") {
        jobs = bgpsdn::framework::next_flag_value(argc, argv, i);
      } else if (arg == "--json") {
        if (i + 1 >= argc) {
          std::cerr << "--json needs a path\n";
          return 1;
        }
        json_path = argv[++i];
      } else if (arg == "--faults") {
        if (i + 1 >= argc) {
          std::cerr << "--faults needs a path\n";
          return 1;
        }
        faults_path = argv[++i];
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else if (!have_input) {
        input = arg;
        have_input = true;
      } else {
        usage(argv[0]);
        return 1;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  if (!have_input) {
    usage(argv[0]);
    return 1;
  }

  // Read the whole script up front: stdin is not replayable across trials.
  std::string script;
  if (input == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    script = buf.str();
  } else {
    std::ifstream file{input};
    if (!file) {
      std::cerr << "cannot open " << input << "\n";
      return 1;
    }
    std::ostringstream buf;
    buf << file.rdbuf();
    script = buf.str();
  }

  bgpsdn::framework::FaultPlan fault_plan;
  bool have_faults = false;
  if (!faults_path.empty()) {
    std::ifstream file{faults_path};
    if (!file) {
      std::cerr << "cannot open " << faults_path << "\n";
      return 1;
    }
    std::ostringstream buf;
    buf << file.rdbuf();
    try {
      fault_plan = bgpsdn::framework::FaultPlan::parse(buf.str());
    } catch (const std::exception& e) {
      std::cerr << faults_path << ": " << e.what() << "\n";
      return 1;
    }
    have_faults = true;
  }

  if (trials == 1) {
    // lint: wall-clock-ok(wall_s footer only; the simulation itself runs on
    // virtual time and the determinism diff excludes the footer)
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    bgpsdn::framework::ScenarioRunner runner;
    runner.set_capture_telemetry(!json_path.empty());
    if (have_faults) runner.set_fault_plan(fault_plan);
    const auto result = runner.run(script);
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    for (const auto& line : result.output) std::cout << line << "\n";
    if (!json_path.empty()) {
      namespace fw = bgpsdn::framework;
      namespace tel = bgpsdn::telemetry;
      fw::BenchReport report{"bgpsdn_run"};
      report.set_param("scenario", tel::Json{input});
      report.set_param("trials", tel::Json{std::int64_t{1}});
      if (have_faults) report.set_param("faults", tel::Json{faults_path});
      tel::Json extra = tel::Json::object();
      if (auto* exp = runner.experiment(); exp != nullptr) {
        extra["monitors"] = exp->monitors_snapshot();
        tel::Json snap = exp->telemetry().metrics().snapshot();
        for (const auto& [name, value] : snap["counters"].entries()) {
          report.add_counter(name, value.as_int());
        }
      }
      report.add_point("wait_converged_s",
                       fw::summarize(result.convergence_seconds),
                       result.convergence_seconds, std::move(extra));
      report.set_footer(1, 1, wall, wall);
      if (!report.write_file(json_path)) {
        std::cerr << "failed to write " << json_path << "\n";
        return 1;
      }
      std::printf("# json: %s\n", json_path.c_str());
    }
    if (!result.ok) {
      std::cerr << "FAILED: " << result.error << "\n";
      return 1;
    }
    return 0;
  }

  // lint: wall-clock-ok(wall/serial-equivalent/speedup footer of --trials
  // runs; excluded from the jobs=1-vs-4 determinism diff)
  using Clock = std::chrono::steady_clock;
  if (jobs == 0) jobs = bgpsdn::framework::default_jobs();
  std::vector<bgpsdn::framework::ScenarioResult> results(trials);
  std::vector<double> trial_seconds(trials, 0.0);
  // Per-trial counter snapshots, index-addressed and summed in trial order
  // afterwards — deterministic at any job count.
  std::vector<std::map<std::string, std::int64_t>> trial_counters(
      json_path.empty() ? 0 : trials);
  const auto t0 = Clock::now();
  bgpsdn::framework::parallel_for_index(trials, jobs, [&](std::size_t i) {
    const auto s0 = Clock::now();
    bgpsdn::framework::ScenarioRunner runner;
    runner.override_seed(base_seed + i);
    if (have_faults) runner.set_fault_plan(fault_plan);
    results[i] = runner.run(script);
    if (!json_path.empty()) {
      if (auto* exp = runner.experiment(); exp != nullptr) {
        bgpsdn::telemetry::Json snap = exp->telemetry().metrics().snapshot();
        for (const auto& [name, value] : snap["counters"].entries()) {
          trial_counters[i][name] += value.as_int();
        }
      }
    }
    trial_seconds[i] = std::chrono::duration<double>(Clock::now() - s0).count();
  });
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

  bool all_ok = true;
  std::vector<double> final_conv;
  for (std::size_t i = 0; i < trials; ++i) {
    if (!results[i].ok) {
      all_ok = false;
      std::cerr << "FAILED (seed " << base_seed + i
                << "): " << results[i].error << "\n";
    } else if (!results[i].convergence_seconds.empty()) {
      final_conv.push_back(results[i].convergence_seconds.back());
    }
  }

  std::printf("# %zu seeded trials (seeds %llu..%llu), jobs=%zu\n", trials,
              static_cast<unsigned long long>(base_seed),
              static_cast<unsigned long long>(base_seed + trials - 1), jobs);
  if (!final_conv.empty()) {
    std::printf("%s\n",
                bgpsdn::framework::boxplot_header("metric").c_str());
    std::printf("%s\n",
                bgpsdn::framework::boxplot_row(
                    "wait_converged_s",
                    bgpsdn::framework::summarize(final_conv))
                    .c_str());
  }
  double serial = 0.0;
  // lint: float-order-ok(index-ordered vector, and the speedup footer is
  // wall-clock diagnostics excluded from the determinism diff)
  for (const double s : trial_seconds) serial += s;
  std::printf(
      "# wall %.2f s, serial-equivalent %.2f s, speedup %.2fx, %.2f trials/s\n",
      wall, serial, wall > 0 ? serial / wall : 0.0,
      wall > 0 ? static_cast<double>(trials) / wall : 0.0);
  if (!json_path.empty()) {
    namespace fw = bgpsdn::framework;
    namespace tel = bgpsdn::telemetry;
    fw::BenchReport report{"bgpsdn_run"};
    report.set_param("scenario", tel::Json{input});
    report.set_param("trials",
                     tel::Json{static_cast<std::int64_t>(trials)});
    report.set_param("base_seed",
                     tel::Json{static_cast<std::int64_t>(base_seed)});
    if (have_faults) report.set_param("faults", tel::Json{faults_path});
    report.add_point("wait_converged_s", fw::summarize(final_conv),
                     final_conv);
    for (const auto& per_trial : trial_counters) {
      for (const auto& [name, value] : per_trial) {
        report.add_counter(name, value);
      }
    }
    report.set_footer(static_cast<std::int64_t>(trials),
                      static_cast<std::int64_t>(jobs), wall, serial);
    if (!report.write_file(json_path)) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::printf("# json: %s\n", json_path.c_str());
  }
  return all_ok ? 0 : 1;
}
