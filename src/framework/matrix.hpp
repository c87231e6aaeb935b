// MatrixSpec — declarative scenario matrices over ExperimentSpec.
//
// The paper's result is a sweep (convergence vs. SDN fraction x event
// type); a matrix file declares per-axis value lists and fixed settings,
// and expand() produces the cross product of ExperimentSpec cells that the
// `bgpsdn_matrix` CLI runs through the trial pool:
//
//     # fig2-and-friends in one file
//     matrix fig2_sweep
//     trials 10
//     base-seed 1000
//     topology clique 16          # fixed setting, scenario-DSL spelling
//     mrai 30
//     recompute-delay 2
//     axis sdn-frac 0 0.25 0.5 0.75 1
//     axis event withdrawal announcement failover
//     axis damping on off
//
// Fixed lines share the scenario DSL's key vocabulary and parsers
// (config_text.hpp: `topology`, `mrai`, `damping`, `fault`, ...);
// `axis <key> <values...>` sweeps one setting instead of fixing it. Every
// axis value is validated at parse time with the same diagnostic as its
// fixed line, the cross product is checked for semantic duplicates, and
// all parse diagnostics carry the offending line number.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "framework/experiment_spec.hpp"
#include "telemetry/json.hpp"

namespace bgpsdn::framework {

/// The sweepable axis keys, in the order `axis` lines accept them:
/// topology, sdn-frac, sdn-count, event, damping, controller, mrai,
/// recompute-delay, replicas, election-timeout-ms. Returned by axis_keys()
/// for diagnostics.
const std::vector<std::string>& axis_keys();

/// Apply one axis value (e.g. "clique:16" for axis "topology", "0.5" for
/// axis "sdn-frac") to a spec. The spec-level keys (topology, sdn-frac,
/// sdn-count, event) are handled here; the rest go to apply_setting().
/// Shared by fixed matrix lines, axis lines and expansion. Throws
/// std::invalid_argument with a self-contained message on unknown keys or
/// malformed values.
void apply_axis_value(ExperimentSpec& spec, const std::string& axis,
                      const std::string& value);

struct MatrixAxis {
  std::string name;
  std::vector<std::string> values;
};

/// One expanded cell: the resolved spec plus its coordinates — one
/// (axis, value) pair per declared axis, in axis order.
struct MatrixCell {
  /// "sdn-frac=0.5,event=withdrawal,damping=on"
  std::string label;
  std::vector<std::pair<std::string, std::string>> coords;
  ExperimentSpec spec;

  /// The value of one coordinate; nullptr when the axis is not declared.
  const std::string* coord(const std::string& axis) const;
};

class MatrixSpec {
 public:
  std::string name{"matrix"};
  std::size_t trials{10};
  std::uint64_t base_seed{1000};
  /// Fixed settings every cell starts from.
  ExperimentSpec base{};
  /// Swept axes, in declaration order (first axis varies slowest).
  std::vector<MatrixAxis> axes;

  /// Parse the matrix file format. Throws std::invalid_argument with a
  /// "line N: ..." message on any malformed input.
  static MatrixSpec parse(const std::string& text);
  static MatrixSpec parse(std::istream& in);

  /// The full cross product, in row-major axis order. Each cell is
  /// resolved and validated; semantically identical cells (same
  /// ExperimentSpec::signature()) and empty products are rejected with
  /// std::invalid_argument.
  std::vector<MatrixCell> expand() const;

  /// Keep only cells whose `axis` coordinate equals `value`. Throws
  /// std::invalid_argument when the axis is not declared or no cell
  /// matches.
  std::vector<MatrixCell> filter(std::vector<MatrixCell> cells,
                                 const std::string& axis,
                                 const std::string& value) const;
};

class BenchReport;

/// Runs `runs` seeded trials (seeds base_seed, base_seed+1, ...) of every
/// cell's spec with ExperimentSpec::run_trial on one sweep (`jobs` workers,
/// 0 = default_jobs()). Prints the boxplot header (key column `key`), one
/// row per cell with its trial_s and trials_per_s columns, and the sweep
/// footer. With a report, adds one point per cell (its extras from
/// `extra(cell index)` when given), every trial's counters in task order
/// and the footer. Returns false when any trial failed (run_trial < 0).
bool run_spec_sweep(
    const std::vector<MatrixCell>& cells, const std::string& key,
    std::size_t runs, std::uint64_t base_seed, std::size_t jobs,
    BenchReport* report,
    const std::function<telemetry::Json(std::size_t)>& extra = {});

}  // namespace bgpsdn::framework
