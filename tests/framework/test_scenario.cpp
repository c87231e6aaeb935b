// Scenario DSL tests: full happy-path scripts, configuration plumbing,
// expectation failures, and syntax errors with line numbers.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>

#include "bgp/mrt.hpp"
#include "framework/scenario.hpp"

namespace bgpsdn::framework {
namespace {

TEST(Scenario, WithdrawalScriptRunsEndToEnd) {
  ScenarioRunner runner;
  const auto result = runner.run(R"(
# a miniature Fig.2-style data point
seed 7
mrai 0.3
recompute-delay 0.1
topology clique 5
sdn 4 5
announce 1 10.0.0.0/16
start
expect-route 2 10.0.0.0/16
expect-route 4 10.0.0.0/16
withdraw 1 10.0.0.0/16
wait-converged
expect-no-route 2 10.0.0.0/16
expect-no-route 4 10.0.0.0/16
)");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_GE(result.output.size(), 6u);
  EXPECT_NE(result.output[0].find("started: 5 ASes"), std::string::npos);
  bool has_converged_line = false;
  for (const auto& line : result.output) {
    has_converged_line |= line.find("converged") != std::string::npos;
  }
  EXPECT_TRUE(has_converged_line);
}

TEST(Scenario, HostsTraceAndLinkCommands) {
  ScenarioRunner runner;
  const auto result = runner.run(R"(
seed 3
mrai 0.3
recompute-delay 0.1
topology ring 6
sdn 4
host 1
host 4
start
expect-reachable 4 1
print-trace 4 1
fail-link 3 4
wait-converged
expect-reachable 4 1
restore-link 3 4
wait-converged
print-rib 2
print-time
)");
  ASSERT_TRUE(result.ok) << result.error;
  bool has_trace = false, has_rib = false, has_time = false;
  for (const auto& line : result.output) {
    has_trace |= line.find("trace AS4 ->") != std::string::npos;
    has_rib |= line.find("AS2 10.") != std::string::npos;
    has_time |= line.find("t=") != std::string::npos;
  }
  EXPECT_TRUE(has_trace);
  EXPECT_TRUE(has_rib);
  EXPECT_TRUE(has_time);
}

TEST(Scenario, FailedExpectationNamesLine) {
  ScenarioRunner runner;
  const auto result = runner.run(
      "topology clique 3\n"
      "start\n"
      "expect-route 2 10.0.0.0/16\n");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("line 3"), std::string::npos);
  EXPECT_NE(result.error.find("lacks 10.0.0.0/16"), std::string::npos);
}

TEST(Scenario, SyntaxErrorsAreReported) {
  const auto expect_error = [](const std::string& script,
                               const std::string& needle) {
    ScenarioRunner runner;
    const auto result = runner.run(script);
    EXPECT_FALSE(result.ok) << script;
    EXPECT_NE(result.error.find(needle), std::string::npos)
        << script << " -> " << result.error;
  };
  expect_error("frobnicate 1\n", "unknown command");
  expect_error("topology moebius 4\n", "bad topology model 'moebius'");
  expect_error("topology clique 4\nsdn 9\n", "AS9 not in topology");
  expect_error("announce 1 not-a-prefix\n", "bad prefix");
  expect_error("withdraw 1 10.0.0.0/16\n", "requires 'start'");
  expect_error("topology clique 3\nstart\nseed 4\n", "before 'start'");
  expect_error("topology clique 3\nstart\nstart\n", "already started");
  expect_error("mrai x\n", "bad mrai 'x'");
  expect_error("start\n", "no topology");
}

TEST(Scenario, CommentsAndBlankLinesIgnored) {
  ScenarioRunner runner;
  const auto result = runner.run(
      "# full-line comment\n"
      "\n"
      "topology clique 3   # trailing comment\n"
      "start\n");
  ASSERT_TRUE(result.ok) << result.error;
}

TEST(Scenario, RuntimeAnnouncementCommand) {
  ScenarioRunner runner;
  const auto result = runner.run(R"(
mrai 0.3
recompute-delay 0.1
topology clique 4
sdn 4
start
announce 4 10.200.0.0/16
wait-converged
expect-route 1 10.200.0.0/16
)");
  ASSERT_TRUE(result.ok) << result.error;
  // The SDN switch originated it; the legacy AS sees the member's AS.
  ASSERT_NE(runner.experiment(), nullptr);
  const auto* route = runner.experiment()->router(core::AsNumber{1}).loc_rib().find(
      *net::Prefix::parse("10.200.0.0/16"));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->attributes->as_path.to_string(), "4");
}

TEST(Scenario, RouteFlowControllerSelectable) {
  ScenarioRunner runner;
  const auto result = runner.run(R"(
mrai 0.4
controller routeflow
topology clique 4
sdn 3 4
announce 1 10.0.0.0/16
start
wait-converged
expect-route 3 10.0.0.0/16
)");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_NE(runner.experiment(), nullptr);
  EXPECT_NE(runner.experiment()->routeflow_controller(), nullptr);
  EXPECT_EQ(runner.experiment()->idr_controller(), nullptr);
}

TEST(Scenario, ReplicaCommandsDriveFailover) {
  ScenarioRunner runner;
  const auto result = runner.run(R"(
seed 5
mrai 0.3
recompute-delay 0.1
replicas 2
election-timeout-ms 150
topology clique 5
sdn 4 5
host 1
announce 1 10.0.0.0/16
start
expect-reachable 5 1
crash controller 0
run 1
expect-reachable 5 1
crash controller 1
run 10
restart controller 1
wait-converged
expect-reachable 5 1
)");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_NE(runner.experiment(), nullptr);
  auto* rs = runner.experiment()->replica_set();
  ASSERT_NE(rs, nullptr);
  EXPECT_EQ(rs->size(), 2u);
  EXPECT_GE(rs->counters().takeovers, 1u);
  EXPECT_FALSE(rs->degraded());
  ASSERT_TRUE(rs->leader().has_value());
  EXPECT_EQ(*rs->leader(), 1u);
}

TEST(Scenario, ReplicaSyntaxErrorsAreExact) {
  const auto expect_error = [](const std::string& script,
                               const std::string& needle) {
    ScenarioRunner runner;
    const auto result = runner.run(script);
    EXPECT_FALSE(result.ok) << script;
    EXPECT_NE(result.error.find(needle), std::string::npos)
        << script << " -> " << result.error;
  };
  expect_error("replicas 0\n", "bad replicas '0' (want 1..16)");
  expect_error("replicas 17\n", "bad replicas '17' (want 1..16)");
  expect_error("replicas 2.5\n", "bad replicas '2.5' (want 1..16)");
  expect_error("election-timeout-ms 0\n",
               "bad election-timeout-ms '0' (want ms in (0, 1e9])");
  expect_error("topology clique 3\nstart\nreplicas 2\n", "before 'start'");
  expect_error(
      "topology clique 4\nsdn 4\nstart\ncrash controller x\n",
      "bad replica id 'x' (want 0..15)");
  expect_error("topology clique 4\nsdn 4\nstart\ncrash controller 1\n",
               "replica id 1 out of range (controller_replicas=1)");
  expect_error("topology clique 4\nsdn 4\nstart\ncrash controller 0 0\n",
               "usage: crash controller [replica]|speaker");
  expect_error("topology clique 4\nsdn 4\nstart\ncrash speaker 1\n",
               "usage: crash speaker");
  // The error carries the offending line number.
  ScenarioRunner runner;
  const auto result =
      runner.run("topology clique 4\nsdn 4\nstart\ncrash controller 3\n");
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.error.find("line 4"), std::string::npos);
}

// --- number tokens: exact, ranged, never wrapped ---------------------------

std::string error_of(const std::string& script) {
  ScenarioRunner runner;
  const auto result = runner.run(script);
  EXPECT_FALSE(result.ok) << script;
  return result.error;
}

TEST(ScenarioNumbers, AsNumbersOutsideRangeAreRejectedAtTheirLine) {
  // A sign, zero, or a value past 2^32-1 used to wrap or truncate into a
  // different AS (or crash later, at start).
  EXPECT_EQ(error_of("topology clique 3\nsdn -1\n"),
            "line 2: bad AS number '-1' (want 1..4294967295)");
  EXPECT_EQ(error_of("topology clique 3\nsdn 4294967297\nstart\n"),
            "line 2: bad AS number '4294967297' (want 1..4294967295)");
  EXPECT_EQ(error_of("topology clique 3\nsdn +1\n"),
            "line 2: bad AS number '+1' (want 1..4294967295)");
  EXPECT_EQ(error_of("topology clique 3\nannounce 0 10.0.0.0/8\nstart\n"),
            "line 2: bad AS number '0' (want 1..4294967295)");
  EXPECT_EQ(error_of("topology clique 3\nhost 1.5\n"),
            "line 2: bad AS number '1.5' (want 1..4294967295)");
  // The top of the range parses; it is then simply not in the topology.
  EXPECT_EQ(error_of("topology clique 3\nsdn 4294967295\n"),
            "line 2: AS4294967295 not in topology");
}

TEST(ScenarioNumbers, SeedsAreExactUnsigned64BitIntegers) {
  const auto dot_for_seed = [](const std::string& seed) {
    ScenarioRunner runner;
    const auto result = runner.run("seed " + seed +
                                   "\ntopology synth-caida 20\n"
                                   "print-dot topology\n");
    EXPECT_TRUE(result.ok) << result.error;
    return result.output;
  };
  // 2^53 + 1 and 2^53 collapse to one double; as integers they differ.
  EXPECT_NE(dot_for_seed("9007199254740993"), dot_for_seed("9007199254740992"));
  EXPECT_FALSE(dot_for_seed("18446744073709551615").empty());
  for (const std::string bad :
       {"-1", "1.9", "1e30", "nan", "18446744073709551616", "+1", "0x10"}) {
    EXPECT_EQ(error_of("topology clique 3\nseed " + bad + "\n"),
              "line 2: bad seed '" + bad + "' (want 0..18446744073709551615)");
    EXPECT_EQ(error_of("fault-seed " + bad + "\n"),
              "line 1: bad seed '" + bad + "' (want 0..18446744073709551615)");
  }
  ScenarioRunner runner;
  const auto result = runner.run("seed 0\nfault-seed 0\ntopology clique 3\n");
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(ScenarioNumbers, RibIsNoLongerACommand) {
  EXPECT_EQ(error_of("rib compact\n"), "line 1: unknown command 'rib'");
}

TEST(Scenario, SynthCaidaTopology) {
  ScenarioRunner runner;
  const auto result = runner.run(
      "seed 9\n"
      "mrai 0.3\n"
      "topology synth-caida 20\n"
      "start\n"
      "print-time\n");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_NE(result.output[0].find("gao-rexford"), std::string::npos);
}

TEST(Scenario, DampingToggle) {
  ScenarioRunner runner;
  const auto result = runner.run(
      "damping on\n"
      "topology clique 3\n"
      "start\n");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(runner.experiment()
                  ->router(core::AsNumber{1})
                  .config()
                  .damping.enabled);
}

TEST(Scenario, DumpMrtWritesReadableFile) {
  const std::string path = ::testing::TempDir() + "/scenario_tape.mrt";
  ScenarioRunner runner;
  const auto result = runner.run(
      "mrai 0.3\n"
      "topology clique 3\n"
      "announce 1 10.0.0.0/16\n"
      "start\n"
      "withdraw 1 10.0.0.0/16\n"
      "wait-converged\n"
      "dump-mrt " + path + "\n");
  ASSERT_TRUE(result.ok) << result.error;

  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in.good());
  std::vector<char> raw{std::istreambuf_iterator<char>{in},
                        std::istreambuf_iterator<char>{}};
  std::vector<std::byte> data(raw.size());
  std::memcpy(data.data(), raw.data(), raw.size());
  const auto records = bgp::read_mrt(data);
  ASSERT_TRUE(records.has_value());
  // At least one announcement and one withdrawal were observed.
  EXPECT_GE(records->size(), 2u);
}

}  // namespace
}  // namespace bgpsdn::framework
