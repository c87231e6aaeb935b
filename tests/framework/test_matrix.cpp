// MatrixSpec / ExperimentSpec tests: the .matrix parser's diagnostics
// (exact messages with line numbers), cross-product expansion order,
// duplicate-cell detection, filtering, the validating builder, and one
// fast end-to-end cell run.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "framework/matrix.hpp"

namespace bgpsdn::framework {
namespace {

/// The exact what() of the std::invalid_argument `fn` must throw.
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

// --- parsing: happy path ----------------------------------------------------

constexpr const char* kSmokeMatrix = R"(
# comment lines and blanks are skipped
matrix smoke
trials 3
base-seed 4000
topology clique 5
mrai 0.3
recompute-delay 0.1
axis sdn-frac 0 0.6
axis event withdrawal announcement
)";

TEST(Matrix, ParsesDirectivesFixedSettingsAndAxes) {
  const auto matrix = MatrixSpec::parse(kSmokeMatrix);
  EXPECT_EQ(matrix.name, "smoke");
  EXPECT_EQ(matrix.trials, 3u);
  EXPECT_EQ(matrix.base_seed, 4000u);
  EXPECT_EQ(matrix.base.topology, TopologyModel::kClique);
  EXPECT_EQ(matrix.base.topology_size, 5u);
  EXPECT_EQ(matrix.base.config.timers.mrai, core::Duration::seconds_f(0.3));
  EXPECT_EQ(matrix.base.config.recompute_delay,
            core::Duration::seconds_f(0.1));
  ASSERT_EQ(matrix.axes.size(), 2u);
  EXPECT_EQ(matrix.axes[0].name, "sdn-frac");
  EXPECT_EQ(matrix.axes[1].name, "event");
}

TEST(Matrix, ParsesFaultAndAnnouncementLines) {
  const auto matrix = MatrixSpec::parse(
      "topology ring 6\n"
      "announce 2 10.50.0.0/16\n"
      "fault-seed 99\n"
      "fault 5 link-down 1 2\n"
      "wait-quiet 7\n"
      "axis damping on off\n");
  ASSERT_EQ(matrix.base.announcements.size(), 1u);
  EXPECT_EQ(matrix.base.announcements[0].first, core::AsNumber{2});
  EXPECT_EQ(matrix.base.faults.seed, 99u);
  ASSERT_EQ(matrix.base.faults.events.size(), 1u);
  EXPECT_EQ(matrix.base.faults.events[0].at, core::Duration::seconds(5));
  EXPECT_EQ(matrix.base.wait_quiet, core::Duration::seconds(7));
}

// --- parsing: diagnostics ---------------------------------------------------

TEST(Matrix, UnknownKeyNamesItsLine) {
  EXPECT_EQ(diagnostic_of([] {
              MatrixSpec::parse("topology clique 5\nfrobnicate 3\n");
            }),
            "line 2: unknown key 'frobnicate'");
}

TEST(Matrix, UnknownAxisListsTheVocabulary) {
  EXPECT_EQ(diagnostic_of([] { MatrixSpec::parse("axis colour red blue\n"); }),
            "line 1: unknown axis 'colour' (known: topology, sdn-frac, "
            "sdn-count, event, damping, controller, mrai, "
            "recompute-delay, replicas, election-timeout-ms)");
}

TEST(Matrix, MalformedAxisValueNamesAxisValueAndCause) {
  EXPECT_EQ(diagnostic_of([] {
              MatrixSpec::parse("axis topology cliq:16\n");
            }),
            "line 1: bad topology model 'cliq' (want "
            "clique|line|ring|star|synth-caida|internet-like)");
  EXPECT_EQ(diagnostic_of([] { MatrixSpec::parse("axis sdn-frac 1.5\n"); }),
            "line 1: bad sdn-frac '1.5' (want [0, 1])");
  EXPECT_EQ(diagnostic_of([] { MatrixSpec::parse("axis event quux\n"); }),
            "line 1: bad event 'quux' (want "
            "announcement|withdrawal|failover|flap-train[:<cycles>])");
  EXPECT_EQ(diagnostic_of([] { MatrixSpec::parse("axis mrai fast\n"); }),
            "line 1: bad mrai 'fast' (want seconds in [0, 1e9])");
  EXPECT_EQ(diagnostic_of([] { MatrixSpec::parse("axis spt maybe\n"); }),
            "line 1: unknown axis 'spt' (known: topology, sdn-frac, "
            "sdn-count, event, damping, controller, mrai, "
            "recompute-delay, replicas, election-timeout-ms)");
}

TEST(Matrix, AxisDeclarationErrors) {
  EXPECT_EQ(diagnostic_of([] { MatrixSpec::parse("axis damping\n"); }),
            "line 1: axis 'damping' has no values");
  EXPECT_EQ(diagnostic_of([] {
              MatrixSpec::parse("axis damping on\naxis damping off\n");
            }),
            "line 2: axis 'damping' declared twice");
  EXPECT_EQ(diagnostic_of([] { MatrixSpec::parse("axis damping on on\n"); }),
            "line 1: duplicate value 'on' in axis 'damping'");
}

TEST(Matrix, DirectiveArgumentErrors) {
  EXPECT_EQ(diagnostic_of([] { MatrixSpec::parse("trials 0\n"); }),
            "line 1: bad trials '0' (want 1..18446744073709551615)");
  EXPECT_EQ(diagnostic_of([] { MatrixSpec::parse("trials\n"); }),
            "line 1: trials expects 1 argument(s)");
  EXPECT_EQ(diagnostic_of([] { MatrixSpec::parse("topology clique\n"); }),
            "line 1: topology expects 2 argument(s)");
  EXPECT_EQ(diagnostic_of([] { MatrixSpec::parse("announce 1 10.x\n"); }),
            "line 1: bad prefix '10.x' (want a.b.c.d/len)");
}

TEST(MatrixNumbers, AnnounceAsOutsideRangeIsRejectedAtItsLine) {
  // 4294967297 used to truncate to AS 1 and run.
  EXPECT_EQ(diagnostic_of([] {
              MatrixSpec::parse("trials 1\nannounce 4294967297 10.9.0.0/16\n");
            }),
            "line 2: bad AS number '4294967297' (want 1..4294967295)");
  for (const std::string bad : {"0", "-1", "+1", "1.0", "1e3"}) {
    EXPECT_EQ(diagnostic_of([&] {
                MatrixSpec::parse("announce " + bad + " 10.9.0.0/16\n");
              }),
              "line 1: bad AS number '" + bad + "' (want 1..4294967295)");
  }
  const auto matrix = MatrixSpec::parse("announce 4294967295 10.9.0.0/16\n");
  ASSERT_EQ(matrix.base.announcements.size(), 1u);
  EXPECT_EQ(matrix.base.announcements[0].first, core::AsNumber{4294967295u});
}

TEST(MatrixNumbers, SeedsAreExactUnsigned64BitIntegers) {
  const auto matrix = MatrixSpec::parse(
      "base-seed 18446744073709551615\nfault-seed 9007199254740993\n");
  EXPECT_EQ(matrix.base_seed, 18446744073709551615u);
  EXPECT_EQ(matrix.base.faults.seed, 9007199254740993u);
  EXPECT_EQ(diagnostic_of([] { MatrixSpec::parse("base-seed 1.9\n"); }),
            "line 1: bad seed '1.9' (want 0..18446744073709551615)");
  EXPECT_EQ(diagnostic_of([] {
              MatrixSpec::parse("fault-seed 18446744073709551616\n");
            }),
            "line 1: bad seed '18446744073709551616' "
            "(want 0..18446744073709551615)");
}

// --- expansion --------------------------------------------------------------

TEST(Matrix, ExpandsRowMajorWithFirstAxisSlowest) {
  const auto matrix = MatrixSpec::parse(kSmokeMatrix);
  const auto cells = matrix.expand();
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].label, "sdn-frac=0,event=withdrawal");
  EXPECT_EQ(cells[1].label, "sdn-frac=0,event=announcement");
  EXPECT_EQ(cells[2].label, "sdn-frac=0.6,event=withdrawal");
  EXPECT_EQ(cells[3].label, "sdn-frac=0.6,event=announcement");
  // Cells come back resolved: 0.6 of a 5-clique rounds to 3 members.
  EXPECT_EQ(cells[2].spec.sdn_count, 3u);
  EXPECT_FALSE(cells[2].spec.sdn_fraction.has_value());
  ASSERT_NE(cells[3].coord("event"), nullptr);
  EXPECT_EQ(*cells[3].coord("event"), "announcement");
  EXPECT_EQ(cells[3].coord("damping"), nullptr);
}

TEST(Matrix, EmptyProductIsRejected) {
  EXPECT_EQ(diagnostic_of([] {
              MatrixSpec::parse("topology clique 4\n").expand();
            }),
            "matrix declares no axes; add at least one 'axis' line");
}

TEST(Matrix, SemanticallyDuplicateCellsAreRejected) {
  // '0' and '0.0' are distinct axis strings but resolve to the same spec.
  const auto matrix =
      MatrixSpec::parse("topology clique 4\naxis sdn-frac 0 0.0\n");
  EXPECT_EQ(diagnostic_of([&] { matrix.expand(); }),
            "duplicate cells: 'sdn-frac=0' and 'sdn-frac=0.0' configure "
            "identical experiments");
}

TEST(Matrix, CellValidationFailureCarriesTheCellLabel) {
  // failover needs the stub AS numbers above the topology, so a 200-AS
  // clique cannot host it; the error must name the offending cell.
  const auto matrix =
      MatrixSpec::parse("topology clique 200\naxis event failover\n");
  const auto message = diagnostic_of([&] { matrix.expand(); });
  EXPECT_EQ(message.rfind("cell 'event=failover': ", 0), 0u) << message;
}

// --- filtering --------------------------------------------------------------

TEST(Matrix, FilterKeepsMatchingCellsOnly) {
  const auto matrix = MatrixSpec::parse(kSmokeMatrix);
  const auto cells =
      matrix.filter(matrix.expand(), "event", "withdrawal");
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].label, "sdn-frac=0,event=withdrawal");
  EXPECT_EQ(cells[1].label, "sdn-frac=0.6,event=withdrawal");
}

TEST(Matrix, FilterDiagnostics) {
  const auto matrix = MatrixSpec::parse(kSmokeMatrix);
  EXPECT_EQ(diagnostic_of([&] {
              matrix.filter(matrix.expand(), "colour", "red");
            }),
            "unknown filter axis 'colour' (declared axes: sdn-frac, event)");
  EXPECT_EQ(diagnostic_of([&] {
              matrix.filter(matrix.expand(), "sdn-frac", "0.9");
            }),
            "filter value '0.9' not in axis 'sdn-frac' (values: 0, 0.6)");
  // Composing contradictory filters drains the set.
  EXPECT_EQ(diagnostic_of([&] {
              matrix.filter(
                  matrix.filter(matrix.expand(), "event", "withdrawal"),
                  "event", "announcement");
            }),
            "filter event=announcement matches no cells");
}

// --- ExperimentSpec builder and helpers -------------------------------------

TEST(ExperimentSpecTest, BuilderValidatesEagerlyAndOnBuild) {
  EXPECT_THROW(ExperimentSpecBuilder{}.sdn_fraction(1.5),
               std::invalid_argument);
  EXPECT_THROW(ExperimentSpecBuilder{}.sdn_fraction(std::nan("")),
               std::invalid_argument);
  EXPECT_THROW(ExperimentSpecBuilder{}.flap_cycles(0), std::invalid_argument);
  EXPECT_THROW(ExperimentSpecBuilder{}.topology(TopologyModel::kClique, 1),
               std::invalid_argument);
  // Cross-field: a flap train needs at least two members to own the link.
  EXPECT_THROW(ExperimentSpecBuilder{}
                   .topology(TopologyModel::kClique, 5)
                   .event(EventKind::kFlapTrain)
                   .build(),
               std::invalid_argument);
  const auto spec = ExperimentSpecBuilder{}
                        .topology(TopologyModel::kClique, 16)
                        .sdn_fraction(0.5)
                        .event(EventKind::kWithdrawal)
                        .build();
  EXPECT_EQ(spec.sdn_count, 8u);
  EXPECT_FALSE(spec.sdn_fraction.has_value());
  // A hand-built NaN fraction is caught by resolve() before its cast.
  ExperimentSpec raw;
  raw.sdn_fraction = std::nan("");
  EXPECT_THROW(raw.resolve(), std::invalid_argument);
}

TEST(ExperimentSpecTest, SignatureSeparatesBehaviorRelevantFields) {
  const auto base = ExperimentSpecBuilder{}
                        .topology(TopologyModel::kClique, 8)
                        .event(EventKind::kWithdrawal)
                        .build();
  auto other = base;
  EXPECT_EQ(base.signature(), other.signature());
  other.sdn_count = 4;
  EXPECT_NE(base.signature(), other.signature());
}

TEST(ExperimentSpecTest, EventKindNamesRoundTrip) {
  EXPECT_STREQ(to_string(EventKind::kFlapTrain), "flap-train");
  EXPECT_EQ(parse_event_kind("withdraw"), EventKind::kWithdrawal);
  EXPECT_EQ(parse_event_kind("announce"), EventKind::kAnnouncement);
  EXPECT_EQ(parse_event_kind("flap"), EventKind::kFlapTrain);
  EXPECT_EQ(parse_event_kind("quux"), std::nullopt);
  EXPECT_EQ(parse_topology_model("synth-caida"), TopologyModel::kSynthCaida);
}

TEST(ExperimentSpecTest, RunTrialExecutesOneCellEndToEnd) {
  // A miniature Fig.2 cell with smoke timers: must converge, deliver
  // counters, and be deterministic per seed.
  const auto cell = ExperimentSpecBuilder{}
                        .topology(TopologyModel::kClique, 4)
                        .sdn_count(2)
                        .event(EventKind::kWithdrawal)
                        .mrai(core::Duration::seconds_f(0.3))
                        .recompute_delay(core::Duration::seconds_f(0.1))
                        .build();
  std::map<std::string, std::int64_t> counters;
  const double first = cell.run_trial(42, &counters);
  EXPECT_GT(first, 0.0);
  EXPECT_FALSE(counters.empty());
  EXPECT_EQ(cell.run_trial(42), first);
}

TEST(ExperimentSpecTest, RunTrialReportsATimedOutWaitAsFailed) {
  // A quiet window longer than the 3600 s wait budget can never be met: the
  // wait times out, and the trial must fail rather than report the last
  // activity as a convergence time.
  const auto cell = ExperimentSpecBuilder{}
                        .topology(TopologyModel::kClique, 4)
                        .event(EventKind::kWithdrawal)
                        .mrai(core::Duration::seconds_f(0.3))
                        .wait_quiet(core::Duration::seconds(4000))
                        .build();
  EXPECT_EQ(cell.run_trial(1), -1.0);
}

}  // namespace
}  // namespace bgpsdn::framework
