#include "framework/trial.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "core/text.hpp"

namespace bgpsdn::framework {

namespace {

/// The value of an environment variable as a whole-token unsigned integer;
/// nullopt when unset or malformed.
std::optional<std::uint64_t> env_uint(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;
  return core::parse_uint64(env);
}

}  // namespace

std::size_t default_jobs() {
  if (const auto jobs = env_uint("BGPSDN_JOBS"); jobs && *jobs >= 1) {
    return static_cast<std::size_t>(*jobs);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

bool quick_mode() { return env_uint("BGPSDN_QUICK") == 1u; }

void parallel_for_index(std::size_t total, std::size_t jobs,
                        const std::function<void(std::size_t)>& fn) {
  if (total == 0) return;
  if (jobs <= 1 || total == 1) {
    for (std::size_t i = 0; i < total; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock{error_mutex};
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  {
    std::vector<std::jthread> pool;
    pool.reserve(std::min(jobs, total));
    for (std::size_t t = 0; t < std::min(jobs, total); ++t) {
      pool.emplace_back(worker);
    }
  }  // jthreads join here

  if (first_error) std::rethrow_exception(first_error);
}

SweepTiming SweepTiming::operator+(const SweepTiming& other) const {
  return {trials + other.trials, std::max(jobs, other.jobs),
          wall_seconds + other.wall_seconds,
          serial_seconds + other.serial_seconds};
}

SweepTiming run_timed(std::size_t total, std::size_t jobs,
                      std::vector<double>& task_seconds,
                      const std::function<void(std::size_t)>& fn) {
  // The one sanctioned wall-clock site outside the micro benches: it feeds
  // only footers and trial_s columns, which every determinism diff strips.
  // Trial results themselves run on virtual time and are byte-identical at
  // any BGPSDN_JOBS.
  // lint: wall-clock-ok(sweep footer and trial_s timing, outside the contract)
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  SweepTiming timing;
  timing.trials = total;
  timing.jobs = jobs == 0 ? default_jobs() : jobs;
  task_seconds.assign(total, 0.0);
  const auto t0 = Clock::now();
  parallel_for_index(total, timing.jobs, [&](std::size_t task) {
    const auto s0 = Clock::now();
    fn(task);
    task_seconds[task] = seconds_since(s0);
  });
  timing.wall_seconds = seconds_since(t0);
  for (std::size_t i = 0; i < total; ++i) {
    timing.serial_seconds += task_seconds[i];
  }
  return timing;
}

}  // namespace bgpsdn::framework
