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
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "framework/config_text.hpp"
#include "framework/experiment_spec.hpp"
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

  namespace fw = bgpsdn::framework;
  namespace tel = bgpsdn::telemetry;
  // A single run keeps the script's own seed and runs on this thread;
  // --trials N overrides the seed per trial and spreads the trials over the
  // worker pool.
  const bool single = trials == 1;
  const bool want_json = !json_path.empty();
  struct Trial {
    fw::ScenarioResult result;
    std::map<std::string, std::int64_t> counters;
    tel::Json extra = tel::Json::object();
  };
  const auto sweep = fw::run_sweep(
      1, trials, single ? 1 : jobs, [&](std::size_t, std::size_t i) {
        fw::ScenarioRunner runner;
        if (single) {
          runner.set_capture_telemetry(want_json);
        } else {
          runner.override_seed(base_seed + i);
        }
        if (have_faults) runner.set_fault_plan(fault_plan);
        Trial trial;
        trial.result = runner.run(script);
        if (auto* exp = runner.experiment(); want_json && exp != nullptr) {
          fw::accumulate_counters(*exp, trial.counters);
          if (single) trial.extra["monitors"] = exp->monitors_snapshot();
        }
        return trial;
      });

  bool all_ok = true;
  std::vector<double> final_conv;
  if (single) {
    const Trial& trial = sweep.results.front();
    for (const auto& line : trial.result.output) std::cout << line << "\n";
    all_ok = trial.result.ok;
    final_conv = trial.result.convergence_seconds;
  } else {
    for (std::size_t i = 0; i < trials; ++i) {
      const fw::ScenarioResult& result = sweep.results[i].result;
      if (!result.ok) {
        all_ok = false;
        std::cerr << "FAILED (seed " << base_seed + i << "): " << result.error
                  << "\n";
      } else if (!result.convergence_seconds.empty()) {
        final_conv.push_back(result.convergence_seconds.back());
      }
    }
    std::printf("# %zu seeded trials (seeds %llu..%llu), jobs=%zu\n", trials,
                static_cast<unsigned long long>(base_seed),
                static_cast<unsigned long long>(base_seed + trials - 1),
                sweep.timing.jobs);
    if (!final_conv.empty()) {
      std::printf("%s\n", fw::boxplot_header("metric").c_str());
      std::printf(
          "%s\n",
          fw::boxplot_row("wait_converged_s", fw::summarize(final_conv))
              .c_str());
    }
    fw::print_footer(sweep.timing);
  }

  if (want_json) {
    fw::BenchReport report{"bgpsdn_run"};
    report.set_param("scenario", tel::Json{input});
    report.set_param("trials", tel::Json{static_cast<std::int64_t>(trials)});
    if (!single) {
      report.set_param("base_seed",
                       tel::Json{static_cast<std::int64_t>(base_seed)});
    }
    if (have_faults) report.set_param("faults", tel::Json{faults_path});
    // A single run lists every wait's convergence time and its monitors;
    // --trials lists each trial's last wait.
    report.add_point("wait_converged_s", fw::summarize(final_conv), final_conv,
                     single ? sweep.results.front().extra
                            : tel::Json::object());
    for (const Trial& trial : sweep.results) report.add_counters(trial.counters);
    report.set_footer(sweep.timing);
    if (!report.write_file(json_path)) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::printf("# json: %s\n", json_path.c_str());
  }
  if (single && !all_ok) {
    std::cerr << "FAILED: " << sweep.results.front().result.error << "\n";
  }
  return all_ok ? 0 : 1;
}
