// bgpsdn_matrix — run a scenario matrix (.matrix file) through the trial pool.
//
//   $ bgpsdn_matrix scenarios/fig2.matrix
//   $ bgpsdn_matrix --filter event=withdrawal --trials 3 scenarios/fig2.matrix
//   $ bgpsdn_matrix --list scenarios/fig2.matrix       # print cells, run none
//
// The file declares fixed settings plus per-axis value lists (see
// src/framework/matrix.hpp for the format); the cross product of cells runs
// as seeded trials on BGPSDN_JOBS (or --jobs) workers. Rows and the --json
// document are byte-identical at any job count (only the wall-clock footer
// varies). BGPSDN_QUICK=1 caps trials at 3, matching the benches.
//
// Exit code 0 when every trial converged; 1 when any trial failed to start
// or timed out.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "framework/config_text.hpp"
#include "framework/matrix.hpp"
#include "framework/report.hpp"
#include "framework/trial.hpp"

namespace {

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--trials N] [--seed S] [--jobs J] [--json PATH]\n"
         "       [--filter axis=value]... [--list] <matrix-file | ->\n"
         "  --trials N   override the file's trial count\n"
         "  --seed S     override the file's base seed\n"
         "  --filter     keep only cells whose axis coordinate matches;\n"
         "               repeatable, filters compose (AND)\n"
         "  --list       print the expanded cell labels and exit\n"
         "  --json PATH  write a bgpsdn.bench/1 document with per-cell\n"
         "               boxplot stats, coordinates and telemetry counters\n"
         "BGPSDN_QUICK=1 caps trials at 3 for smoke runs.\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::size_t> trials_override;
  std::optional<std::uint64_t> seed_override;
  std::size_t jobs = 0;  // 0 = BGPSDN_JOBS / hardware_concurrency
  std::string json_path;
  std::vector<std::pair<std::string, std::string>> filters;
  bool list_only = false;
  std::string input;
  bool have_input = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg{argv[i]};
      if (arg == "--trials") {
        trials_override = bgpsdn::framework::next_flag_value(argc, argv, i);
      } else if (arg == "--seed") {
        seed_override = bgpsdn::framework::next_flag_value(argc, argv, i);
      } else if (arg == "--jobs") {
        jobs = bgpsdn::framework::next_flag_value(argc, argv, i);
      } else if (arg == "--json") {
        if (i + 1 >= argc) {
          std::cerr << "--json needs a path\n";
          return 2;
        }
        json_path = argv[++i];
      } else if (arg == "--filter") {
        if (i + 1 >= argc) {
          std::cerr << "--filter needs axis=value\n";
          return 2;
        }
        const std::string value{argv[++i]};
        const auto eq = value.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == value.size()) {
          std::cerr << "--filter wants axis=value, got '" << value << "'\n";
          return 2;
        }
        filters.emplace_back(value.substr(0, eq), value.substr(eq + 1));
      } else if (arg == "--list") {
        list_only = true;
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else if (!have_input) {
        input = arg;
        have_input = true;
      } else {
        usage(argv[0]);
        return 2;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  if (!have_input) {
    usage(argv[0]);
    return 2;
  }

  std::string text;
  if (input == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    text = buf.str();
  } else {
    std::ifstream file{input};
    if (!file) {
      std::cerr << "cannot open " << input << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << file.rdbuf();
    text = buf.str();
  }

  namespace fw = bgpsdn::framework;
  fw::MatrixSpec matrix;
  std::vector<fw::MatrixCell> cells;
  try {
    matrix = fw::MatrixSpec::parse(text);
    if (trials_override) matrix.trials = *trials_override;
    if (seed_override) matrix.base_seed = *seed_override;
    if (fw::quick_mode() && matrix.trials > 3) matrix.trials = 3;
    cells = matrix.expand();
    for (const auto& [axis, value] : filters) {
      cells = matrix.filter(std::move(cells), axis, value);
    }
  } catch (const std::exception& e) {
    std::cerr << input << ": " << e.what() << "\n";
    return 2;
  }

  if (list_only) {
    for (const auto& cell : cells) std::printf("%s\n", cell.label.c_str());
    return 0;
  }

  std::printf("# matrix %s: %zu cells x %zu trials (seeds %llu..%llu)\n",
              matrix.name.c_str(), cells.size(), matrix.trials,
              static_cast<unsigned long long>(matrix.base_seed),
              static_cast<unsigned long long>(matrix.base_seed +
                                              matrix.trials - 1));
  namespace tel = bgpsdn::telemetry;
  fw::BenchReport report{"bgpsdn_matrix"};
  const bool all_ok = fw::run_spec_sweep(
      cells, "cell", matrix.trials, matrix.base_seed, jobs,
      json_path.empty() ? nullptr : &report, [&](std::size_t c) {
        tel::Json coords = tel::Json::object();
        for (const auto& [axis, value] : cells[c].coords) {
          coords[axis] = tel::Json{value};
        }
        tel::Json extra = tel::Json::object();
        extra["coords"] = std::move(coords);
        return extra;
      });

  if (!json_path.empty()) {
    report.set_param("matrix", tel::Json{matrix.name});
    report.set_param("file", tel::Json{input});
    report.set_param("trials",
                     tel::Json{static_cast<std::int64_t>(matrix.trials)});
    report.set_param("base_seed",
                     tel::Json{static_cast<std::int64_t>(matrix.base_seed)});
    tel::Json axes = tel::Json::object();
    for (const auto& axis : matrix.axes) {
      tel::Json values = tel::Json::array();
      for (const auto& v : axis.values) values.push_back(tel::Json{v});
      axes[axis.name] = std::move(values);
    }
    report.set_param("axes", std::move(axes));
    if (!filters.empty()) {
      tel::Json applied = tel::Json::array();
      for (const auto& [axis, value] : filters) {
        applied.push_back(tel::Json{axis + "=" + value});
      }
      report.set_param("filters", std::move(applied));
    }
    if (!report.write_file(json_path)) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::printf("# json: %s\n", json_path.c_str());
  }
  return all_ok ? 0 : 1;
}
