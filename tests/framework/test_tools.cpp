// Framework tool tests: stats, convergence detector, connectivity monitor,
// route-change tracking, trial runner.
#include <gtest/gtest.h>

#include "framework/connectivity.hpp"
#include "framework/convergence.hpp"
#include "framework/monitor.hpp"
#include "framework/report.hpp"
#include "framework/stats.hpp"
#include "framework/trial.hpp"
#include "net/network.hpp"

namespace bgpsdn::framework {
namespace {

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2}, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({7}, 0.9), 7.0);
  // Unsorted input handled.
  EXPECT_DOUBLE_EQ(quantile({5, 1, 3, 2, 4}, 0.5), 3.0);
}

TEST(Stats, SummaryFiveNumbers) {
  const auto s = summarize({4, 1, 3, 2, 5});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.q1, 2);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_DOUBLE_EQ(s.q3, 4);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
}

TEST(Stats, SummaryDegenerate) {
  const auto empty = summarize({});
  EXPECT_EQ(empty.n, 0u);
  const auto one = summarize({42});
  EXPECT_DOUBLE_EQ(one.min, 42);
  EXPECT_DOUBLE_EQ(one.max, 42);
  EXPECT_DOUBLE_EQ(one.stddev, 0);
}

TEST(Stats, RowFormatting) {
  const auto s = summarize({1, 2, 3});
  const auto row = boxplot_row("50%", s, 1);
  EXPECT_EQ(row, "50%\t1.0\t1.5\t2.0\t2.5\t3.0");
  EXPECT_EQ(boxplot_header("sdn"), "sdn\tmin\tq1\tmedian\tq3\tmax");
  EXPECT_NE(to_string(s).find("med="), std::string::npos);
}

TEST(TrialRunner, SweepsSeedsDeterministically) {
  std::vector<std::uint64_t> seeds;
  const auto sweep = run_sweep(1, 5, 1, [&](std::size_t, std::size_t run) {
    const std::uint64_t seed = 100 + run;
    seeds.push_back(seed);
    return static_cast<double>(seed);
  });
  const auto s = summarize(sweep.results);
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{100, 101, 102, 103, 104}));
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.median, 102.0);
}

TEST(ConvergenceDetector, TracksActivityAndQuiesces) {
  core::EventLoop loop;
  core::Logger log;
  log.set_min_level(core::LogLevel::kDebug);
  ConvergenceDetector det{loop, log};

  // Activity at t=1s and t=2s, then silence.
  loop.schedule(core::Duration::seconds(1), [&] {
    log.log(loop.now(), core::LogLevel::kDebug, "bgp.AS1", "update_tx", "x");
  });
  loop.schedule(core::Duration::seconds(2), [&] {
    log.log(loop.now(), core::LogLevel::kDebug, "bgp.AS2", "update_tx", "x");
  });
  const auto conv =
      det.wait(WaitOpts{core::Duration::seconds(5), core::Duration::seconds(60)});
  EXPECT_FALSE(conv.timed_out);
  EXPECT_EQ(conv.instant, core::TimePoint::origin() + core::Duration::seconds(2));
  EXPECT_EQ(conv.quiet_window, core::Duration::seconds(5));
  EXPECT_EQ(det.activity_count(), 2u);
}

TEST(ConvergenceDetector, IgnoresNonRoutingEvents) {
  core::EventLoop loop;
  core::Logger log;
  log.set_min_level(core::LogLevel::kDebug);
  ConvergenceDetector det{loop, log};
  loop.schedule(core::Duration::seconds(1), [&] {
    log.log(loop.now(), core::LogLevel::kDebug, "bgp.AS1", "keepalive", "x");
  });
  const auto conv =
      det.wait(WaitOpts{core::Duration::seconds(2), core::Duration::seconds(60)});
  EXPECT_FALSE(conv.timed_out);
  EXPECT_EQ(conv.instant, core::TimePoint::origin());
  EXPECT_EQ(det.activity_count(), 0u);
}

TEST(ConvergenceDetector, TimesOutUnderSustainedChatter) {
  core::EventLoop loop;
  core::Logger log;
  log.set_min_level(core::LogLevel::kDebug);
  ConvergenceDetector det{loop, log};
  // An update every second, forever (self-rescheduling).
  std::function<void()> chatter = [&] {
    log.log(loop.now(), core::LogLevel::kDebug, "bgp.AS1", "update_tx", "x");
    loop.schedule(core::Duration::seconds(1), chatter);
  };
  loop.schedule(core::Duration::seconds(1), chatter);
  const auto conv =
      det.wait(WaitOpts{core::Duration::seconds(5), core::Duration::seconds(30)});
  EXPECT_TRUE(conv.timed_out);
  // The instant is still the last activity: the tick at the 30 s deadline.
  EXPECT_EQ(conv.instant, core::TimePoint::origin() + core::Duration::seconds(30));
}

TEST(RouteChangeTracker, CapturesBestChanges) {
  core::Logger log;
  RouteChangeTracker tracker{log};
  log.log(core::TimePoint::origin(), core::LogLevel::kInfo, "bgp.AS1",
          "best_changed", "10.0.0.0/16 via [2 1]");
  log.log(core::TimePoint::origin(), core::LogLevel::kInfo, "bgp.AS2",
          "best_lost", "10.0.0.0/16");
  log.log(core::TimePoint::origin(), core::LogLevel::kInfo, "bgp.AS1",
          "update_tx", "not a change");
  ASSERT_EQ(tracker.changes().size(), 2u);
  EXPECT_FALSE(tracker.changes()[0].lost);
  EXPECT_TRUE(tracker.changes()[1].lost);
  EXPECT_EQ(tracker.count_for("bgp.AS1"), 1u);
  EXPECT_EQ(tracker.count_for("bgp."), 2u);
  const auto tl = tracker.timeline();
  EXPECT_NE(tl.find("bgp.AS1"), std::string::npos);
  EXPECT_NE(tl.find("LOST"), std::string::npos);
}

TEST(UpdateRateMonitor, BucketsByTime) {
  core::Logger log;
  log.set_min_level(core::LogLevel::kDebug);
  UpdateRateMonitor mon{log, core::Duration::seconds(1)};
  const auto at = [&](double t) {
    log.log(core::TimePoint::origin() + core::Duration::seconds_f(t),
            core::LogLevel::kDebug, "bgp.AS1", "update_tx", "");
  };
  at(0.1);
  at(0.2);
  at(1.5);
  at(5.0);
  EXPECT_EQ(mon.total(), 4u);
  ASSERT_EQ(mon.buckets().size(), 3u);
  EXPECT_EQ(mon.buckets().at(0), 2u);
  EXPECT_EQ(mon.buckets().at(1), 1u);
  EXPECT_EQ(mon.buckets().at(5), 1u);
  EXPECT_NE(mon.to_string().find("t=0.0s n=2"), std::string::npos);
}

TEST(ConnectivityMonitor, CountsLossAndBlackout) {
  core::EventLoop loop;
  core::Logger log;
  core::Rng rng{1};
  net::Network net{loop, log, rng};
  auto& h1 = net.add<net::Host>("h1", net::Ipv4Addr{10, 0, 0, 2});
  auto& h2 = net.add<net::Host>("h2", net::Ipv4Addr{10, 1, 0, 2});
  const auto link = net.connect(h1.id(), h2.id(), {core::Duration::millis(1), 0, 0.0});

  ConnectivityMonitor mon{loop, h1, h2, core::Duration::millis(100)};
  mon.start();
  // 1 s of connectivity, 0.5 s of blackout, 1 s of connectivity.
  loop.schedule(core::Duration::seconds(1), [&] { net.set_link_up(link, false); });
  loop.schedule(core::Duration::seconds_f(1.5), [&] { net.set_link_up(link, true); });
  loop.schedule(core::Duration::seconds_f(2.5), [&] { mon.stop(); });
  loop.run(core::TimePoint::origin() + core::Duration::seconds(4));

  const auto rep = mon.report();
  EXPECT_GT(rep.sent, 20u);
  EXPECT_LT(rep.answered, rep.sent);
  EXPECT_GT(rep.delivery_ratio, 0.5);
  EXPECT_LT(rep.delivery_ratio, 1.0);
  EXPECT_GE(rep.longest_blackout, core::Duration::millis(300));
  EXPECT_LE(rep.longest_blackout, core::Duration::millis(700));
}

TEST(ConnectivityMonitor, CleanLinkIsLossless) {
  core::EventLoop loop;
  core::Logger log;
  core::Rng rng{1};
  net::Network net{loop, log, rng};
  auto& h1 = net.add<net::Host>("h1", net::Ipv4Addr{10, 0, 0, 2});
  auto& h2 = net.add<net::Host>("h2", net::Ipv4Addr{10, 1, 0, 2});
  net.connect(h1.id(), h2.id());
  ConnectivityMonitor mon{loop, h1, h2, core::Duration::millis(50)};
  mon.start();
  loop.schedule(core::Duration::seconds(1), [&] { mon.stop(); });
  loop.run(core::TimePoint::origin() + core::Duration::seconds(2));
  const auto rep = mon.report();
  EXPECT_DOUBLE_EQ(rep.delivery_ratio, 1.0);
  EXPECT_EQ(rep.longest_blackout, core::Duration::zero());
}

// D3 regression for the frozen bgpsdn.bench/1 schema: the `counters`
// object must render byte-identically no matter in which order the bench
// accumulated them (trial completion order varies with BGPSDN_JOBS).
TEST(BenchReport, CountersIndependentOfInsertionOrder) {
  BenchReport forward{"probe"};
  forward.add_counter("bgp.updates", 10);
  forward.add_counter("sdn.flow_mods", 3);
  forward.add_counter("ctrl.recomputes", 5);
  forward.add_counter("bgp.updates", 2);  // accumulation also order-free

  BenchReport reverse{"probe"};
  reverse.add_counter("bgp.updates", 2);
  reverse.add_counter("ctrl.recomputes", 5);
  reverse.add_counter("sdn.flow_mods", 3);
  reverse.add_counter("bgp.updates", 10);

  EXPECT_EQ(forward.dump(), reverse.dump());

  // And the keys come out sorted in the rendered document.
  const telemetry::Json doc = forward.to_json();
  std::vector<std::string> keys;
  for (const auto& [name, value] : doc.find("counters")->entries()) {
    keys.push_back(name);
  }
  const std::vector<std::string> sorted_keys = {"bgp.updates",
                                                "ctrl.recomputes",
                                                "sdn.flow_mods"};
  EXPECT_EQ(keys, sorted_keys);
}

}  // namespace
}  // namespace bgpsdn::framework
