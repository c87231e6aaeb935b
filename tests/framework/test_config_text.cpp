// The configuration front end (framework/config_text.hpp): the line lexer,
// the typed value parsers, the shared setting vocabulary, and the promise
// that one malformed value reads the same on every input surface — the
// scenario DSL, .matrix fixed lines and axes, fault plans, the DSL and
// matrix `fault` lines, and the numeric CLI flags.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "framework/config_text.hpp"
#include "framework/matrix.hpp"
#include "framework/scenario.hpp"
#include "framework/visualize.hpp"

namespace bgpsdn::framework {
namespace {

/// The what() of the std::invalid_argument `fn` throws; "" (and a test
/// failure) when it throws nothing.
template <typename Fn>
std::string diagnostic_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return "";
}

// --- lexer ------------------------------------------------------------------

std::vector<Tokens> lex(const std::string& text) {
  std::istringstream in{text};
  std::vector<Tokens> lines;
  for_each_line(in, [&](const Tokens& t) { lines.push_back(t); });
  return lines;
}

TEST(ConfigText, LexerSplitsOnWhitespaceAndCommentsStartAtAToken) {
  const auto lines = lex(
      "# header\n"
      "\n"
      "  mrai\t30   # trailing\n"
      "at 1 link-down 1 2#not-a-comment\n"
      "#\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], (Tokens{"mrai", "30"}));
  // '#' inside a token is part of it; only a token that begins with '#'
  // starts a comment.
  EXPECT_EQ(lines[1], (Tokens{"at", "1", "link-down", "1", "2#not-a-comment"}));
}

TEST(ConfigText, LexerFramesEveryErrorWithItsLineNumber) {
  // Blank and comment lines still count.
  EXPECT_EQ(diagnostic_of([] {
              std::istringstream in{"\n# c\nok\nboom\n"};
              for_each_line(in, [](const Tokens& t) {
                if (t[0] == "boom") throw std::runtime_error{"went off"};
              });
            }),
            "line 4: went off");
}

// --- typed values -----------------------------------------------------------

TEST(ConfigText, ValuesAreWholeExactTokens) {
  EXPECT_EQ(parse_as("4294967295"), core::AsNumber{4294967295u});
  EXPECT_EQ(parse_seed("18446744073709551615"), 18446744073709551615u);
  EXPECT_EQ(parse_replica_id("15"), 15);
  EXPECT_EQ(parse_integer("k", "7", 7, 7), 7u);
  for (const std::string bad :
       {"", "-1", "+1", "1.0", "1e0", "0x2", " 1", "1 ", "nan", "inf"}) {
    EXPECT_EQ(diagnostic_of([&] { parse_as(bad); }),
              "bad AS number '" + bad + "' (want 1..4294967295)");
  }
  EXPECT_EQ(diagnostic_of([] { parse_replica_id("16"); }),
            "bad replica id '16' (want 0..15)");
  EXPECT_EQ(diagnostic_of([] { parse_prefix("10.0.0.0"); }),
            "bad prefix '10.0.0.0' (want a.b.c.d/len)");
}

TEST(ConfigText, RealsAreFiniteAndInRange) {
  EXPECT_EQ(parse_seconds("t", "1e9"), core::Duration::seconds(1000000000));
  EXPECT_EQ(parse_seconds("t", "-0"), core::Duration::zero());
  EXPECT_DOUBLE_EQ(parse_fraction("p", "1"), 1.0);
  EXPECT_DOUBLE_EQ(parse_millis("ms", "0", false), 0.0);
  for (const std::string bad : {"nan", "-nan", "inf", "-inf", "1e300", "1e400",
                                "-1e-9", "+1", "0x10", "1s", ""}) {
    EXPECT_EQ(diagnostic_of([&] { parse_seconds("t", bad); }),
              "bad t '" + bad + "' (want seconds in [0, 1e9])");
  }
  EXPECT_EQ(diagnostic_of([] { parse_millis("ms", "0", true); }),
            "bad ms '0' (want ms in (0, 1e9])");
  EXPECT_EQ(diagnostic_of([] { parse_fraction("p", "1.0000001"); }),
            "bad p '1.0000001' (want [0, 1])");
}

TEST(ConfigText, ConversionsKeepTheirArithmetic) {
  // Accepted values convert exactly as before the front end existed.
  EXPECT_EQ(parse_seconds("t", "0.3"), core::Duration::seconds_f(0.3));
  ExperimentConfig cfg;
  apply_setting(cfg, "link-delay-ms", "2.5");
  EXPECT_EQ(cfg.default_link.delay, core::Duration::seconds_f(2.5 / 1000.0));
  apply_setting(cfg, "election-timeout-ms", "150");
  EXPECT_EQ(cfg.ha.election_min, core::Duration::seconds_f(150 / 1000.0));
  EXPECT_EQ(cfg.ha.election_max, core::Duration::seconds_f(150 / 500.0));
  apply_setting(cfg, "controller", "routeflow");
  EXPECT_EQ(cfg.controller_style, ControllerStyle::kRouteFlowMirror);
  apply_setting(cfg, "damping", "on");
  EXPECT_TRUE(cfg.damping.enabled);
  apply_setting(cfg, "replicas", "16");
  EXPECT_EQ(cfg.controller_replicas, 16u);
}

TEST(ConfigText, SettingVocabularyIsSharedAndClosed) {
  for (const char* key : {"mrai", "recompute-delay", "link-delay-ms",
                          "controller", "damping", "replicas",
                          "election-timeout-ms"}) {
    EXPECT_TRUE(is_setting_key(key)) << key;
  }
  for (const char* key :
       {"seed", "topology", "sdn-frac", "wait-quiet", "spt", ""}) {
    EXPECT_FALSE(is_setting_key(key)) << key;
  }
  ExperimentConfig cfg;
  EXPECT_EQ(diagnostic_of([&] { apply_setting(cfg, "colour", "red"); }),
            "unknown setting 'colour'");
}

TEST(ConfigText, DslTopologyBuildsThroughTheSpecGenerators) {
  // The DSL knows every spec model, internet-like included, and its
  // graph is the one ExperimentSpec::make_topology builds.
  ScenarioRunner runner;
  const auto result =
      runner.run("seed 3\ntopology internet-like 40\nprint-dot topology\n");
  ASSERT_TRUE(result.ok) << result.error;
  ExperimentSpec spec;
  spec.topology = TopologyModel::kInternetLike;
  spec.topology_size = 40;
  std::string dot;
  for (const auto& line : result.output) dot += line + "\n";
  EXPECT_EQ(dot, topology_dot(spec.make_topology(3), {}));
  EXPECT_EQ(ScenarioRunner{}.run("topology internet-like 5\n").error,
            "line 1: internet-like topologies need >= 8 ASes, got 5");
}

// --- one diagnostic per value kind, on every surface ------------------------

enum class Surface {
  kDsl,         // first line of a script that would then start
  kDslStarted,  // fourth line, after a 4-AS clique started
  kMatrix,      // first line of a .matrix file that would then expand
  kPlan,        // second line of a fault plan
  kFlag,        // "--flag value" on a command line
};

/// The full diagnostic `line` draws from one surface, framing included.
std::string surface_error(Surface surface, const std::string& line) {
  switch (surface) {
    case Surface::kDsl:
      return ScenarioRunner{}.run(line + "\ntopology clique 3\nstart\n").error;
    case Surface::kDslStarted:
      return ScenarioRunner{}
          .run("topology clique 4\nsdn 4\nstart\n" + line + "\n")
          .error;
    case Surface::kMatrix:
      return diagnostic_of([&] {
        MatrixSpec::parse(line + "\naxis damping on off\n").expand();
      });
    case Surface::kPlan:
      return diagnostic_of([&] { FaultPlan::parse("seed 1\n" + line + "\n"); });
    case Surface::kFlag: {
      std::string flag = line.substr(0, line.find(' '));
      std::string value = line.substr(line.find(' ') + 1);
      char prog[] = "prog";
      char* argv[] = {prog, flag.data(), value.data()};
      int i = 1;
      return diagnostic_of([&] { next_flag_value(3, argv, i); });
    }
  }
  return "";
}

/// What each surface puts in front of the shared message.
std::string framing(Surface surface, const std::string& line) {
  switch (surface) {
    case Surface::kDsl:
    case Surface::kMatrix:
      return "line 1: ";
    case Surface::kDslStarted:
      return "line 4: ";
    case Surface::kPlan:
      return "line 2: ";
    case Surface::kFlag:
      return line.substr(0, line.find(' ')) + ": ";
  }
  return "";
}

struct SurfaceCase {
  /// The message every input must produce after its framing.
  std::string message;
  std::vector<std::pair<Surface, std::string>> inputs;
};

TEST(ConfigText, OneDiagnosticPerValueKindOnEverySurface) {
  using S = Surface;
  const std::string secs = " (want seconds in [0, 1e9])";
  const std::vector<SurfaceCase> cases{
      // Configuration keys: DSL, matrix fixed line, matrix axis.
      {"bad mrai '-5'" + secs,
       {{S::kDsl, "mrai -5"}, {S::kMatrix, "mrai -5"},
        {S::kMatrix, "axis mrai 30 -5"}}},
      {"bad mrai 'nan'" + secs,
       {{S::kDsl, "mrai nan"}, {S::kMatrix, "mrai nan"},
        {S::kMatrix, "axis mrai nan"}}},
      {"bad mrai '1e300'" + secs,
       {{S::kDsl, "mrai 1e300"}, {S::kMatrix, "mrai 1e300"},
        {S::kMatrix, "axis mrai 1e300"}}},
      {"bad recompute-delay '-2'" + secs,
       {{S::kDsl, "recompute-delay -2"}, {S::kMatrix, "recompute-delay -2"},
        {S::kMatrix, "axis recompute-delay -2"}}},
      {"bad recompute-delay 'inf'" + secs,
       {{S::kDsl, "recompute-delay inf"}, {S::kMatrix, "recompute-delay inf"},
        {S::kMatrix, "axis recompute-delay 2 inf"}}},
      {"bad election-timeout-ms 'nan' (want ms in (0, 1e9])",
       {{S::kDsl, "election-timeout-ms nan"},
        {S::kMatrix, "election-timeout-ms nan"},
        {S::kMatrix, "axis election-timeout-ms nan"}}},
      {"bad link-delay-ms '-3' (want ms in [0, 1e9])",
       {{S::kDsl, "link-delay-ms -3"}, {S::kMatrix, "link-delay-ms -3"}}},
      {"bad replicas '17' (want 1..16)",
       {{S::kDsl, "replicas 17"}, {S::kMatrix, "replicas 17"},
        {S::kMatrix, "axis replicas 1 17"}}},
      {"bad controller 'onos' (want idr|routeflow)",
       {{S::kDsl, "controller onos"}, {S::kMatrix, "controller onos"},
        {S::kMatrix, "axis controller idr onos"}}},
      // Retired keys are unknown on every surface, each in its own words.
      {"unknown command 'spt'", {{S::kDsl, "spt fast"}}},
      {"unknown key 'spt'", {{S::kMatrix, "spt fast"}}},
      {"unknown axis 'spt' (known: topology, sdn-frac, sdn-count, event, "
       "damping, controller, mrai, recompute-delay, replicas, "
       "election-timeout-ms)",
       {{S::kMatrix, "axis spt fast"}}},
      {"bad damping 'yes' (want on|off)",
       {{S::kDsl, "damping yes"}, {S::kMatrix, "damping yes"}}},
      // Topology: DSL, matrix fixed line, matrix axis.
      {"bad topology size '2.7' (want 2..4294967295)",
       {{S::kDsl, "topology clique 2.7"}, {S::kMatrix, "topology clique 2.7"},
        {S::kMatrix, "axis topology clique:2.7"}}},
      {"bad topology size '-1' (want 2..4294967295)",
       {{S::kDsl, "topology clique -1"}, {S::kMatrix, "topology clique -1"}}},
      {"bad topology size 'nan' (want 2..4294967295)",
       {{S::kDsl, "topology clique nan"}, {S::kMatrix, "topology clique nan"}}},
      {"bad topology size '+4' (want 2..4294967295)",
       {{S::kDsl, "topology clique +4"}, {S::kMatrix, "topology clique +4"}}},
      {"bad topology size '1' (want 2..4294967295)",
       {{S::kDsl, "topology ring 1"}, {S::kMatrix, "topology ring 1"}}},
      {"bad topology model 'mesh' "
       "(want clique|line|ring|star|synth-caida|internet-like)",
       {{S::kDsl, "topology mesh 4"}, {S::kMatrix, "topology mesh 4"},
        {S::kMatrix, "axis topology mesh:4"}}},
      // Centralization (matrix only).
      {"bad sdn-frac 'nan' (want [0, 1])",
       {{S::kMatrix, "sdn-frac nan"}, {S::kMatrix, "axis sdn-frac nan"}}},
      {"bad sdn-count '+1' (want 0..18446744073709551615)",
       {{S::kMatrix, "sdn-count +1"}, {S::kMatrix, "axis sdn-count 0 +1"}}},
      {"bad wait-quiet 'nan'" + secs, {{S::kMatrix, "wait-quiet nan"}}},
      // Seeds: every grammar and both seed flags.
      {"bad seed '-1' (want 0..18446744073709551615)",
       {{S::kDsl, "seed -1"}, {S::kDsl, "fault-seed -1"},
        {S::kMatrix, "base-seed -1"}, {S::kMatrix, "fault-seed -1"},
        {S::kPlan, "seed -1"}, {S::kFlag, "--seed -1"},
        {S::kFlag, "--base-seed -1"}}},
      {"bad seed '1.9' (want 0..18446744073709551615)",
       {{S::kDsl, "seed 1.9"}, {S::kMatrix, "base-seed 1.9"},
        {S::kPlan, "seed 1.9"}, {S::kFlag, "--seed 1.9"}}},
      // Counts.
      {"bad trials '0' (want 1..18446744073709551615)",
       {{S::kMatrix, "trials 0"}, {S::kFlag, "--trials 0"}}},
      {"bad trials '2.0' (want 1..18446744073709551615)",
       {{S::kMatrix, "trials 2.0"}, {S::kFlag, "--trials 2.0"}}},
      {"bad jobs '-4' (want 1..18446744073709551615)",
       {{S::kFlag, "--jobs -4"}}},
      {"bad flaps '0' (want 1..18446744073709551615)",
       {{S::kMatrix, "flaps 0"}, {S::kMatrix, "axis event flap:0"}}},
      // Fault lines: DSL `fault`, matrix `fault`, plan `at`.
      {"bad fault time 'nan'" + secs,
       {{S::kDsl, "fault nan link-down 1 2"},
        {S::kMatrix, "fault nan link-down 1 2"},
        {S::kPlan, "at nan link-down 1 2"}}},
      {"bad fault time 'inf'" + secs,
       {{S::kDsl, "fault inf heal"}, {S::kPlan, "at inf heal"}}},
      {"bad fault time '1e300'" + secs,
       {{S::kMatrix, "fault 1e300 heal"}, {S::kPlan, "at 1e300 heal"}}},
      {"bad fault time '9223372036'" + secs,
       {{S::kDsl, "fault 9223372036 heal"}, {S::kPlan, "at 9223372036 heal"}}},
      {"bad flap count '2.0' (want 1..2147483647)",
       {{S::kDsl, "fault 1 flap 1 2 2.0 0.4"},
        {S::kMatrix, "fault 1 flap 1 2 2.0 0.4"},
        {S::kPlan, "at 1 flap 1 2 2.0 0.4"}}},
      {"bad ramp steps '2147483648' (want 1..2147483647)",
       {{S::kMatrix, "fault 1 loss-ramp 1 2 0.5 2147483648 1"},
        {S::kPlan, "at 1 loss-ramp 1 2 0.5 2147483648 1"}}},
      {"bad flap period '-0.4'" + secs,
       {{S::kDsl, "fault 1 flap 1 2 2 -0.4"},
        {S::kPlan, "at 1 flap 1 2 2 -0.4"}}},
      {"bad loss probability '1.5' (want [0, 1])",
       {{S::kDsl, "fault 1 loss 1 2 1.5"},
        {S::kMatrix, "fault 1 loss 1 2 1.5"},
        {S::kPlan, "at 1 loss 1 2 1.5"}}},
      {"bad corruption probability 'nan' (want [0, 1])",
       {{S::kMatrix, "fault 1 corrupt 1 2 nan 2"},
        {S::kPlan, "at 1 corrupt 1 2 nan 2"}}},
      // AS numbers: fault events, DSL commands, matrix announcements.
      {"bad AS number '1e0' (want 1..4294967295)",
       {{S::kPlan, "at 1 link-down 1e0 2"},
        {S::kDsl, "fault 1 link-down 1e0 2"},
        {S::kMatrix, "fault 1 link-down 1e0 2"},
        {S::kMatrix, "announce 1e0 10.0.0.0/16"},
        {S::kDsl, "announce 1e0 10.0.0.0/16"}}},
      {"bad AS number '2.0' (want 1..4294967295)",
       {{S::kPlan, "at 1 link-up 1 2.0"}, {S::kDsl, "host 2.0"}}},
      {"bad AS number '+1' (want 1..4294967295)",
       {{S::kPlan, "at 1 partition +1"}, {S::kMatrix, "fault 1 partition +1"}}},
      {"bad AS number '0x2' (want 1..4294967295)",
       {{S::kPlan, "at 1 loss 0x2 1 0.5"},
        {S::kDslStarted, "withdraw 0x2 10.0.0.0/16"}}},
      // Replica ids: DSL command, DSL/matrix fault lines, plans.
      {"bad replica id '1234567' (want 0..15)",
       {{S::kDslStarted, "crash controller 1234567"},
        {S::kDsl, "fault 1 controller-crash 1234567"},
        {S::kMatrix, "fault 1 controller-crash 1234567"},
        {S::kPlan, "at 1 controller-crash 1234567"}}},
      {"bad replica id '-1' (want 0..15)",
       {{S::kDslStarted, "restart controller -1"},
        {S::kPlan, "at 1 repl-heal -1"}}},
      // DSL run-time seconds.
      {"bad run 'nan'" + secs, {{S::kDslStarted, "run nan"}}},
      {"bad wait-converged '-1'" + secs,
       {{S::kDslStarted, "wait-converged -1"}}},
      {"bad prefix '10.0.0.0/33' (want a.b.c.d/len)",
       {{S::kDsl, "announce 1 10.0.0.0/33"},
        {S::kMatrix, "announce 1 10.0.0.0/33"}}},
  };
  for (const auto& c : cases) {
    for (const auto& [surface, line] : c.inputs) {
      EXPECT_EQ(surface_error(surface, line),
                framing(surface, line) + c.message)
          << line;
    }
  }
}

TEST(ConfigText, FlagsAcceptTheirWholeDomain) {
  char prog[] = "prog";
  char flag[] = "--base-seed";
  char value[] = "18446744073709551615";
  char* argv[] = {prog, flag, value};
  int i = 1;
  // The top of the seed range is a seed like any other.
  EXPECT_EQ(next_flag_value(3, argv, i), 18446744073709551615u);
  EXPECT_EQ(i, 2);
  i = 1;
  EXPECT_EQ(diagnostic_of([&] { next_flag_value(2, argv, i); }),
            "--base-seed needs a value");
}

}  // namespace
}  // namespace bgpsdn::framework
