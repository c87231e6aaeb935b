// Reentrancy + parallel-trial regression tests: simulations must be fully
// deterministic given a seed, regardless of how many ran before them in the
// same process or which thread they run on, and the parallel trial runner
// must produce byte-identical summaries at any jobs count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "framework/experiment.hpp"
#include "framework/experiment_spec.hpp"
#include "framework/stats.hpp"
#include "framework/trial.hpp"
#include "topology/generators.hpp"

namespace bgpsdn {
namespace {

using framework::Experiment;
using framework::ExperimentConfig;

/// Everything observable about one seeded hybrid run: the convergence time,
/// the full structured-log event stream, and how many session ids the
/// network handed out.
struct TrialTrace {
  double seconds{0};
  std::vector<std::string> log_lines;
  std::uint32_t session_ids{0};
};

TrialTrace traced_trial(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.timers.mrai = core::Duration::millis(500);
  cfg.recompute_delay = core::Duration::millis(200);
  cfg.retain_logs = true;
  const auto spec = topology::clique(4);
  Experiment exp{spec, {core::AsNumber{3}, core::AsNumber{4}}, cfg};
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(core::AsNumber{1}, pfx);
  EXPECT_TRUE(exp.start());
  const auto t0 = exp.loop().now();
  exp.withdraw_prefix(core::AsNumber{1}, pfx);
  const auto conv = exp.wait_converged();

  TrialTrace trace;
  trace.seconds = conv.since(t0).to_seconds();
  for (const auto& rec : exp.logger().records()) {
    trace.log_lines.push_back(rec.to_string());
  }
  trace.session_ids = exp.network().session_ids().allocated();
  return trace;
}

/// A cheap pure-BGP convergence trial for exercising the runners.
double quick_trial(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.timers.mrai = core::Duration::millis(500);
  Experiment exp{topology::clique(4), {}, cfg};
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(core::AsNumber{1}, pfx);
  EXPECT_TRUE(exp.start());
  const auto t0 = exp.loop().now();
  exp.withdraw_prefix(core::AsNumber{1}, pfx);
  return exp.wait_converged().since(t0).to_seconds();
}

// The determinism regression at the heart of the reentrancy refactor: a
// second Experiment in the same process must replay the first one exactly —
// same convergence time, same session ids, same log stream. Before session
// ids moved off a process-wide static counter, the second run's ids (and
// every log line naming them) differed.
TEST(Determinism, RepeatedSeededExperimentsAreIdentical) {
  const TrialTrace first = traced_trial(7);
  const TrialTrace second = traced_trial(7);
  ASSERT_FALSE(first.log_lines.empty());
  EXPECT_GT(first.session_ids, 0u);
  EXPECT_EQ(first.seconds, second.seconds);
  EXPECT_EQ(first.session_ids, second.session_ids);
  EXPECT_EQ(first.log_lines, second.log_lines);
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity check that the comparison above is not vacuous.
  const TrialTrace a = traced_trial(7);
  const TrialTrace b = traced_trial(8);
  EXPECT_NE(a.log_lines, b.log_lines);
}

TEST(Determinism, WorkerThreadMatchesMainThread) {
  const TrialTrace on_main = traced_trial(11);
  TrialTrace on_worker;
  std::thread worker{[&] { on_worker = traced_trial(11); }};
  worker.join();
  EXPECT_EQ(on_main.seconds, on_worker.seconds);
  EXPECT_EQ(on_main.session_ids, on_worker.session_ids);
  EXPECT_EQ(on_main.log_lines, on_worker.log_lines);
}

TEST(TrialRunnerParallel, SummaryIsByteIdenticalAcrossJobs) {
  const auto trial = [](std::size_t, std::size_t run) {
    return quick_trial(500 + run);
  };
  const auto serial = framework::run_sweep(1, 6, 1, trial);
  const auto pooled = framework::run_sweep(1, 6, 4, trial);
  EXPECT_EQ(serial.timing.jobs, 1u);
  EXPECT_EQ(pooled.timing.jobs, 4u);
  const auto& serial_values = serial.results;
  const auto& pooled_values = pooled.results;
  EXPECT_EQ(serial_values, pooled_values);
  const auto serial_row =
      framework::boxplot_row("conv_s", framework::summarize(serial_values));
  const auto pooled_row =
      framework::boxplot_row("conv_s", framework::summarize(pooled_values));
  EXPECT_EQ(serial_row, pooled_row);
}

TEST(ParamSweepRunnerParallel, SweepIsDeterministicAcrossJobs) {
  const auto trial = [](std::size_t point, std::size_t run) {
    // Deterministic stand-in keyed on both coordinates.
    const std::uint64_t seed = 500 + run;
    return static_cast<double>(point * 1000 + seed % 97);
  };
  const auto a = framework::run_sweep(3, 4, 1, trial);
  const auto b = framework::run_sweep(3, 4, 3, trial);
  ASSERT_EQ(a.results.size(), 12u);
  ASSERT_EQ(b.results.size(), 12u);
  EXPECT_EQ(a.timing.trials, 12u);
  EXPECT_EQ(b.timing.trials, 12u);
  for (std::size_t p = 0; p < 3; ++p) {
    const auto sa = framework::summarize(a.values(p));
    const auto sb = framework::summarize(b.values(p));
    EXPECT_EQ(sa.median, sb.median) << p;
    EXPECT_EQ(sa.min, sb.min) << p;
    EXPECT_EQ(sa.max, sb.max) << p;
  }
}

/// A struct result, as the benches return: the measurement plus the
/// experiment's counters.
struct CountedTrial {
  double seconds{0};
  std::map<std::string, std::int64_t> counters;
  bool operator==(const CountedTrial&) const = default;
};

TEST(TrialSweepParallel, StructResultsAreIdenticalAcrossJobs) {
  const auto trial = [](std::size_t point, std::size_t run) {
    ExperimentConfig cfg;
    cfg.seed = 700 + run;
    cfg.timers.mrai = core::Duration::millis(500);
    cfg.recompute_delay = core::Duration::millis(200);
    std::set<core::AsNumber> members;
    if (point == 1) members = {core::AsNumber{3}, core::AsNumber{4}};
    Experiment exp{topology::clique(4), members, cfg};
    const auto pfx = *net::Prefix::parse("10.0.0.0/16");
    exp.announce_prefix(core::AsNumber{1}, pfx);
    EXPECT_TRUE(exp.start());
    const auto t0 = exp.loop().now();
    exp.withdraw_prefix(core::AsNumber{1}, pfx);
    CountedTrial result;
    result.seconds = exp.wait_converged().since(t0).to_seconds();
    framework::accumulate_counters(exp, result.counters);
    return result;
  };
  const auto serial = framework::run_sweep(2, 3, 1, trial);
  const auto pooled = framework::run_sweep(2, 3, 4, trial);
  ASSERT_EQ(serial.results.size(), 6u);
  EXPECT_FALSE(serial.results[0].counters.empty());
  EXPECT_EQ(serial.results, pooled.results);
  EXPECT_EQ(pooled.task_seconds.size(), 6u);
  EXPECT_EQ(pooled.timing.trials, 6u);
  // Both points really ran: the hybrid point differs from pure BGP.
  EXPECT_NE(serial.results[0].counters, serial.results[3].counters);
}

TEST(ParallelForIndex, VisitsEveryIndexExactlyOnce) {
  std::vector<int> visits(100, 0);
  framework::parallel_for_index(visits.size(), 4,
                                [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < visits.size(); ++i) EXPECT_EQ(visits[i], 1) << i;
}

TEST(ParallelForIndex, PropagatesWorkerExceptions) {
  EXPECT_THROW(
      framework::parallel_for_index(
          8, 4,
          [](std::size_t i) {
            if (i == 3) throw std::runtime_error{"boom"};
          }),
      std::runtime_error);
}

TEST(DefaultJobs, HonorsEnvVar) {
  const char* prior = std::getenv("BGPSDN_JOBS");
  const std::string saved = prior != nullptr ? prior : "";
  ::unsetenv("BGPSDN_JOBS");
  const std::size_t machine = framework::default_jobs();
  EXPECT_GE(machine, 1u);
  ::setenv("BGPSDN_JOBS", "3", 1);
  EXPECT_EQ(framework::default_jobs(), 3u);
  // Malformed values fall back to the machine: the whole token must be a
  // positive integer.
  for (const char* bad : {"not-a-number", "3x", "+3", " 3", "0", ""}) {
    ::setenv("BGPSDN_JOBS", bad, 1);
    EXPECT_EQ(framework::default_jobs(), machine) << "'" << bad << "'";
  }
  ::unsetenv("BGPSDN_JOBS");
  if (prior != nullptr) ::setenv("BGPSDN_JOBS", saved.c_str(), 1);
}

}  // namespace
}  // namespace bgpsdn
