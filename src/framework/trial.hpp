// run_sweep — the one timed runner behind every seeded sweep.
//
// The paper reports "boxplots over 10 runs"; every bench, `bgpsdn_run
// --trials` and `bgpsdn_matrix` sweep is a grid of points x runs trials.
// Trials are independent simulations — each builds its own Experiment
// (event loop, network, rng) — so they parallelize across worker threads
// while each simulation stays single-threaded inside. Results are stored
// by (point, run) index, which makes them bit-identical whether jobs=1 or
// jobs=N. The runner also times every task and the whole sweep: this file
// is the one place outside the micro benches that reads the wall clock,
// and those figures feed only footers and timing columns, which sit
// outside the determinism contract.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

namespace bgpsdn::framework {

/// Worker-thread count for parallel trial execution: the BGPSDN_JOBS
/// environment variable when it is a positive integer (whole token),
/// otherwise std::thread::hardware_concurrency(). Never returns 0.
std::size_t default_jobs();

/// Smoke mode of the benches and bgpsdn_matrix: true when BGPSDN_QUICK is
/// set to the integer 1 (whole token).
bool quick_mode();

/// Runs fn(0), ..., fn(total-1) on up to `jobs` worker threads. Which thread
/// executes which index is unspecified; callers keep determinism by writing
/// only to index-addressed slots. jobs <= 1 degenerates to a plain serial
/// loop on the calling thread (no threads spawned). The first exception
/// thrown by any fn is rethrown on the calling thread after all workers
/// finish.
void parallel_for_index(std::size_t total, std::size_t jobs,
                        const std::function<void(std::size_t)>& fn);

/// Wall-clock timing of one sweep.
struct SweepTiming {
  std::size_t trials{0};
  std::size_t jobs{1};
  double wall_seconds{0};    // real elapsed time of the whole sweep
  double serial_seconds{0};  // sum of every task's own wall time

  /// Measured speedup over a serial run: the serial run's wall time is the
  /// sum of per-task times, so the ratio is the effective parallelism.
  double speedup() const {
    return wall_seconds > 0 ? serial_seconds / wall_seconds : 0.0;
  }
  double trials_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(trials) / wall_seconds : 0.0;
  }
  /// The timing of two sweeps run one after the other.
  SweepTiming operator+(const SweepTiming& other) const;
};

/// Runs fn(0..total-1) like parallel_for_index on `jobs` workers
/// (0 = default_jobs()), storing each task's own wall seconds in
/// `task_seconds[i]`.
SweepTiming run_timed(std::size_t total, std::size_t jobs,
                      std::vector<double>& task_seconds,
                      const std::function<void(std::size_t)>& fn);

/// The results of run_sweep, index = point * runs + run.
template <typename R>
struct Sweep {
  std::size_t runs{0};
  std::vector<R> results;
  std::vector<double> task_seconds;  // each task's own wall time
  SweepTiming timing;

  /// One point's results in run order, projected to doubles (`proj` may be
  /// a pointer to a data member).
  template <typename Proj = std::identity>
  std::vector<double> values(std::size_t point, Proj proj = {}) const {
    std::vector<double> out;
    out.reserve(runs);
    for (std::size_t r = 0; r < runs; ++r) {
      out.push_back(
          static_cast<double>(std::invoke(proj, results[point * runs + r])));
    }
    return out;
  }

  /// One point's serial-equivalent seconds (its tasks' wall times).
  double point_seconds(std::size_t point) const {
    double total = 0.0;
    for (std::size_t r = 0; r < runs; ++r) {
      total += task_seconds[point * runs + r];
    }
    return total;
  }
};

/// Runs fn(point, run) for every point < `points` and run < `runs` on
/// `jobs` workers (0 = default_jobs()). With jobs > 1, fn must be
/// thread-safe (each call builds its own simulation); results land in
/// (point, run) order regardless of jobs.
template <typename Fn>
auto run_sweep(std::size_t points, std::size_t runs, std::size_t jobs,
               Fn&& fn) {
  using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t, std::size_t>>;
  static_assert(!std::is_same_v<R, bool>,
                "std::vector<bool> slots are not safe to fill in parallel");
  Sweep<R> sweep;
  sweep.runs = runs;
  sweep.results.resize(points * runs);
  sweep.timing = run_timed(points * runs, jobs, sweep.task_seconds,
                           [&](std::size_t task) {
                             sweep.results[task] = fn(task / runs, task % runs);
                           });
  return sweep;
}

}  // namespace bgpsdn::framework
