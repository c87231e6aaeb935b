// Tests for the bgpsdn_lint analyzer: exact rule IDs, line numbers, and
// exit codes over the fixture corpus in tests/lint/fixtures/, plus the
// include-graph pass, the hot-path allocation pass, the bgpsdn.lint/2
// baseline round-trip, and the pragma-reason contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/linter.hpp"

namespace {

using bgpsdn::lint::CorpusFile;
using bgpsdn::lint::Finding;
using bgpsdn::lint::LayerTable;

std::string fixture(const std::string& name) {
  return std::string{BGPSDN_LINT_FIXTURE_DIR} + "/" + name;
}

std::string read_fixture(const std::string& name) {
  std::ifstream in{fixture(name), std::ios::binary};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// (rule, line) pairs in the analyzer's sorted order.
std::vector<std::pair<std::string, int>> rule_lines(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<std::string, int>> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.emplace_back(f.rule, f.line);
  return out;
}

using RL = std::vector<std::pair<std::string, int>>;

// The repo's committed layer table, inlined so the tests do not depend on
// the working directory. Mirrors tools/lint/layers.txt.
LayerTable test_layers() {
  LayerTable layers;
  std::string err;
  const bool ok = bgpsdn::lint::parse_layers(
      "core 0\ntelemetry 1\nnet 2\nbgp 3\nsdn 4\ntopology 4\nspeaker 5\n"
      "controller 6\nframework 7\nlint 8\ntools 9\nbench 9\nexamples 9\n"
      "tests 10\n",
      layers, &err);
  EXPECT_TRUE(ok) << err;
  return layers;
}

TEST(LintD1, FlagsWallClockWithExactLine) {
  const auto findings = bgpsdn::lint::lint_file(fixture("d1_violation.cpp"));
  EXPECT_EQ(rule_lines(findings), (RL{{"D1", 5}}));
  EXPECT_EQ(findings[0].token, "steady_clock");
  EXPECT_EQ(bgpsdn::lint::exit_code_for(findings), 1);
}

TEST(LintD1, ReasonedPragmaSuppresses) {
  const auto findings = bgpsdn::lint::lint_file(fixture("d1_suppressed.cpp"));
  EXPECT_EQ(findings, std::vector<Finding>{});
  EXPECT_EQ(bgpsdn::lint::exit_code_for(findings), 0);
}

TEST(LintP1, PragmaWithoutReasonFailsAndDoesNotSuppress) {
  const auto findings =
      bgpsdn::lint::lint_file(fixture("d1_pragma_noreason.cpp"));
  // The D1 site stays live AND the bare pragma is itself a finding.
  EXPECT_EQ(rule_lines(findings), (RL{{"P1", 6}, {"D1", 7}}));
  EXPECT_EQ(bgpsdn::lint::exit_code_for(findings), 1);
}

TEST(LintP1, UnknownTagIsFlagged) {
  const auto findings = bgpsdn::lint::lint_text(
      "probe.cpp", "int x = 0;  // lint: wallclock-okay(typo tag)\n");
  EXPECT_EQ(rule_lines(findings), (RL{{"P1", 1}}));
  EXPECT_EQ(findings[0].token, "wallclock-okay");
}

TEST(LintP1, HotpathWithoutReasonIsFlagged) {
  const auto findings = bgpsdn::lint::lint_text(
      "probe.cpp", "// lint: hotpath()\nint f() { return 0; }\n");
  EXPECT_EQ(rule_lines(findings), (RL{{"P1", 1}}));
  EXPECT_EQ(findings[0].token, "hotpath");
}

TEST(LintD2, FlagsAmbientRandomnessWithExactLines) {
  const auto findings = bgpsdn::lint::lint_file(fixture("d2_violation.cpp"));
  EXPECT_EQ(rule_lines(findings), (RL{{"D2", 6}, {"D2", 7}, {"D2", 8}}));
  EXPECT_EQ(findings[0].token, "random_device");
  EXPECT_EQ(findings[1].token, "mt19937_64 unseeded");
  EXPECT_EQ(findings[2].token, "rand()");
}

TEST(LintD2, SeededEngineIsClean) {
  const auto findings = bgpsdn::lint::lint_file(fixture("d2_clean.cpp"));
  EXPECT_EQ(findings, std::vector<Finding>{});
}

TEST(LintD3, FlagsUnorderedIterationInEmitter) {
  const auto findings = bgpsdn::lint::lint_file(fixture("d3_violation.cpp"));
  EXPECT_EQ(rule_lines(findings), (RL{{"D3", 9}}));
  EXPECT_EQ(findings[0].token, "table");
}

TEST(LintD3, ReasonedPragmaSuppresses) {
  const auto findings = bgpsdn::lint::lint_file(fixture("d3_suppressed.cpp"));
  EXPECT_EQ(findings, std::vector<Finding>{});
}

TEST(LintD3, DoesNotApplyOutsideEmitterPaths) {
  const auto findings = bgpsdn::lint::lint_file(fixture("d3_nonemitter.cpp"));
  EXPECT_EQ(findings, std::vector<Finding>{});
}

TEST(LintD3, CompanionHeaderDeclarationsAreVisible) {
  // rows_ is declared unordered in companion_emit.hpp via a using-alias;
  // linting the .cpp must resolve it, mirroring metrics.cpp/metrics.hpp.
  const auto findings =
      bgpsdn::lint::lint_file(fixture("companion_emit.cpp"));
  EXPECT_EQ(rule_lines(findings), (RL{{"D3", 9}}));
  EXPECT_EQ(findings[0].token, "rows_");
}

TEST(LintD3, SwitchGraphChangelogIsEmitterPath) {
  // controller/switch_graph.hpp carries the edge-delta changelog, whose
  // append order is part of the deterministic output contract.
  const auto findings = bgpsdn::lint::lint_file(fixture("d3_changelog.cpp"));
  EXPECT_EQ(rule_lines(findings), (RL{{"D3", 10}}));
  EXPECT_EQ(findings[0].token, "dirty");
}

TEST(LintD3, EmitterStatusInheritedFromCompanionHeader) {
  // The emitter include lives in changelog_companion.hpp; linting the .cpp
  // must still classify it, mirroring as_topology.cpp/as_topology.hpp.
  const auto findings =
      bgpsdn::lint::lint_file(fixture("changelog_companion.cpp"));
  EXPECT_EQ(rule_lines(findings), (RL{{"D3", 8}}));
  EXPECT_EQ(findings[0].token, "prefixes_");
}

// --- D4: pointer-value ordering in emitter paths ---------------------------

TEST(LintD4, FlagsPointerKeyedContainersAndComparatorLambdas) {
  const auto findings = bgpsdn::lint::lint_file(fixture("d4_violation.cpp"));
  EXPECT_EQ(rule_lines(findings), (RL{{"D4", 10}, {"D4", 11}, {"D4", 14}}));
  EXPECT_EQ(findings[0].token, "set<T*>");
  EXPECT_EQ(findings[1].token, "map<T*>");
  EXPECT_EQ(findings[2].token, "a<b");
}

TEST(LintD4, FlagsStdLessAndStdHashOverPointers) {
  const auto findings = bgpsdn::lint::lint_text(
      "src/telemetry/probe.cpp",
      "#include <functional>\n"
      "struct Node { int id; };\n"
      "std::less<Node*> cmp;\n"
      "std::hash<const Node*> h;\n");
  EXPECT_EQ(rule_lines(findings), (RL{{"D4", 3}, {"D4", 4}}));
  EXPECT_EQ(findings[0].token, "less<T*>");
  EXPECT_EQ(findings[1].token, "hash<T*>");
}

TEST(LintD4, PointerMappedValuesAreTolerated) {
  // Only pointer *keys* order iteration; map<Id, T*> is the common, legal
  // registry shape (peers_by_session_ and friends).
  const auto findings = bgpsdn::lint::lint_text(
      "src/telemetry/probe.cpp",
      "#include <map>\n"
      "struct Node { int id; };\n"
      "std::map<int, Node*> registry;\n");
  EXPECT_EQ(findings, std::vector<Finding>{});
}

TEST(LintD4, ReasonedPragmaSuppresses) {
  const auto findings = bgpsdn::lint::lint_file(fixture("d4_suppressed.cpp"));
  EXPECT_EQ(findings, std::vector<Finding>{});
}

TEST(LintD4, DoesNotApplyOutsideEmitterPaths) {
  const auto findings = bgpsdn::lint::lint_file(fixture("d4_nonemitter.cpp"));
  EXPECT_EQ(findings, std::vector<Finding>{});
}

// --- D5: float accumulation order in emitter paths -------------------------

TEST(LintD5, FlagsAccumulateAndRangeForCompound) {
  const auto findings = bgpsdn::lint::lint_file(fixture("d5_violation.cpp"));
  EXPECT_EQ(rule_lines(findings), (RL{{"D5", 10}, {"D5", 11}}));
  EXPECT_EQ(findings[0].token, "sum +=");
  EXPECT_EQ(findings[1].token, "accumulate");
}

TEST(LintD5, ReasonedPragmaSuppresses) {
  const auto findings = bgpsdn::lint::lint_file(fixture("d5_suppressed.cpp"));
  EXPECT_EQ(findings, std::vector<Finding>{});
}

TEST(LintD5, DoesNotApplyOutsideEmitterPaths) {
  const auto findings = bgpsdn::lint::lint_file(fixture("d5_nonemitter.cpp"));
  EXPECT_EQ(findings, std::vector<Finding>{});
}

TEST(LintD5, IntegerAccumulationIsTolerated) {
  const auto findings = bgpsdn::lint::lint_text(
      "src/telemetry/probe.cpp",
      "#include <vector>\n"
      "int total(const std::vector<int>& xs) {\n"
      "  int sum = 0;\n"
      "  for (const int x : xs) sum += x;\n"
      "  return sum;\n"
      "}\n");
  EXPECT_EQ(findings, std::vector<Finding>{});
}

// --- A2: hot-path allocation pass ------------------------------------------

TEST(LintA2, FlagsAllocationsInAnnotatedScope) {
  const auto findings = bgpsdn::lint::lint_file(fixture("a2_violation.cpp"));
  EXPECT_EQ(rule_lines(findings),
            (RL{{"A2", 10}, {"A2", 11}, {"A2", 12}, {"A2", 13}}));
  EXPECT_EQ(findings[0].token, "out.push_back");
  EXPECT_EQ(findings[1].token, "make_unique");
  EXPECT_EQ(findings[2].token, "string label");
  EXPECT_EQ(findings[3].token, "+= \"...\"");
}

TEST(LintA2, ReservedLocalsAndMemberScratchAreClean) {
  const auto findings = bgpsdn::lint::lint_file(fixture("a2_clean.cpp"));
  EXPECT_EQ(findings, std::vector<Finding>{});
}

TEST(LintA2, ReasonedAllocOkSuppresses) {
  const auto findings = bgpsdn::lint::lint_file(fixture("a2_suppressed.cpp"));
  EXPECT_EQ(findings, std::vector<Finding>{});
}

TEST(LintA2, RemovingTheReserveGuardFails) {
  // The acceptance demonstration: strip the reserve() line from the clean
  // fixture and the push_back turns into a finding.
  std::string text = read_fixture("a2_clean.cpp");
  const std::string guard = "out.reserve(events.size());";
  const std::size_t at = text.find(guard);
  ASSERT_NE(at, std::string::npos);
  text.erase(at, guard.size());
  const auto findings = bgpsdn::lint::lint_text("a2_clean.cpp", text);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "A2");
  EXPECT_EQ(findings[0].token, "out.push_back");
}

TEST(LintA2, RemovingTheAllocOkGuardFails) {
  // Same demonstration for a suppression pragma: deleting the alloc-ok
  // line exposes the allocation it was covering.
  std::string text = read_fixture("a2_suppressed.cpp");
  const std::string guard =
      "// lint: alloc-ok(one-time warmup allocation, amortized over the "
      "run)";
  const std::size_t at = text.find(guard);
  ASSERT_NE(at, std::string::npos);
  text.erase(at, guard.size());
  const auto findings = bgpsdn::lint::lint_text("a2_suppressed.cpp", text);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "A2");
  EXPECT_EQ(findings[0].token, "make_unique");
}

TEST(LintA2, OutsideAnnotatedScopeIsNotScanned) {
  const auto findings = bgpsdn::lint::lint_text(
      "probe.cpp",
      "#include <memory>\n"
      "int f() { auto p = std::make_unique<int>(1); return *p; }\n");
  EXPECT_EQ(findings, std::vector<Finding>{});
}

TEST(LintA2, HotpathWithoutFunctionBodyIsAFinding) {
  const auto findings = bgpsdn::lint::lint_text(
      "probe.cpp", "// lint: hotpath(declaration only)\nint f();\n");
  EXPECT_EQ(rule_lines(findings), (RL{{"A2", 1}}));
  EXPECT_EQ(findings[0].token, "hotpath");
}

TEST(LintA2, ThrowAndStdFunctionAndPriorityQueueAreFlagged) {
  const auto findings = bgpsdn::lint::lint_text(
      "probe.cpp",
      "#include <functional>\n"
      "#include <queue>\n"
      "// lint: hotpath(fixture)\n"
      "int f(int x) {\n"
      "  std::function<int()> g = [x] { return x; };\n"
      "  std::priority_queue<int> q;\n"
      "  if (x < 0) throw x;\n"
      "  return g() + static_cast<int>(q.size());\n"
      "}\n");
  EXPECT_EQ(rule_lines(findings), (RL{{"A2", 5}, {"A2", 6}, {"A2", 7}}));
  EXPECT_EQ(findings[0].token, "std::function");
  EXPECT_EQ(findings[1].token, "priority_queue");
  EXPECT_EQ(findings[2].token, "throw");
}

TEST(LintL1, FlagsLogTextBuiltOutsideTheLogger) {
  const auto findings = bgpsdn::lint::lint_file(fixture("l1_violation.cpp"));
  EXPECT_EQ(rule_lines(findings),
            (RL{{"L1", 5}, {"L1", 6}, {"L1", 7}, {"L1", 8}, {"L1", 10}}));
  EXPECT_EQ(findings[0].token, "to_string");
  EXPECT_EQ(findings[1].token, "+ \"...\"");
  EXPECT_EQ(findings[2].token, "to_string");
  EXPECT_EQ(findings[3].token, "+ \"...\"");
  EXPECT_EQ(findings[4].token, "snprintf");
}

TEST(LintL1, PiecesPassedToTheLoggerAreClean) {
  // Includes text built outside a log call, std::log, and a reasoned
  // log-text-ok waiver.
  const auto findings = bgpsdn::lint::lint_file(fixture("l1_clean.cpp"));
  EXPECT_EQ(findings, std::vector<Finding>{});
}

TEST(LintT1, FlagsRawThreadingWithExactLines) {
  const auto findings = bgpsdn::lint::lint_file(fixture("t1_violation.cpp"));
  EXPECT_EQ(rule_lines(findings),
            (RL{{"T1", 6}, {"T1", 7}, {"T1", 8}, {"T1", 9}}));
  EXPECT_EQ(findings[0].token, "std::atomic");
  EXPECT_EQ(findings[1].token, "std::thread");
  EXPECT_EQ(findings[2].token, "detach()");
  EXPECT_EQ(findings[3].token, "thread_local");
}

TEST(LintT1, TrialRunnerFilesAreAllowlisted) {
  const auto findings = bgpsdn::lint::lint_text(
      "src/framework/trial.cpp",
      "#include <thread>\nvoid f() { std::thread t{[] {}}; t.join(); }\n");
  EXPECT_EQ(findings, std::vector<Finding>{});
}

TEST(LintH1, MissingPragmaOnce) {
  const auto findings =
      bgpsdn::lint::lint_file(fixture("h1_missing_once.hpp"));
  EXPECT_EQ(rule_lines(findings), (RL{{"H1", 1}}));
  EXPECT_EQ(findings[0].token, "#pragma once");
}

TEST(LintH1, UsingNamespaceInHeader) {
  const auto findings =
      bgpsdn::lint::lint_file(fixture("h1_using_namespace.hpp"));
  EXPECT_EQ(rule_lines(findings), (RL{{"H1", 6}}));
  EXPECT_EQ(findings[0].token, "using namespace");
}

TEST(LintH1, IostreamInLibraryHeader) {
  const auto findings = bgpsdn::lint::lint_text(
      "src/fake/widget.hpp",
      "#pragma once\n#include <iostream>\ninline int x() { return 1; }\n");
  EXPECT_EQ(rule_lines(findings), (RL{{"H1", 2}}));
  EXPECT_EQ(findings[0].token, "<iostream>");
}

TEST(LintH1, IostreamOutsideSrcIsTolerated) {
  const auto findings = bgpsdn::lint::lint_text(
      "bench/bench_probe.hpp",
      "#pragma once\n#include <iostream>\ninline int x() { return 1; }\n");
  EXPECT_EQ(findings, std::vector<Finding>{});
}

TEST(LintClean, FullyCleanFileHasNoFindingsAndExitZero) {
  const auto findings = bgpsdn::lint::lint_file(fixture("clean.cpp"));
  EXPECT_EQ(findings, std::vector<Finding>{});
  EXPECT_EQ(bgpsdn::lint::exit_code_for(findings), 0);
}

TEST(LintScan, StringsAndCommentsNeverMatch) {
  const auto findings = bgpsdn::lint::lint_text(
      "probe.cpp",
      "// steady_clock in a comment is fine\n"
      "/* std::thread in a block comment too */\n"
      "const char* s = \"system_clock rand() std::atomic\";\n"
      "const char* r = R\"(random_device)\";\n"
      "int million = 1'000'000;\n");
  EXPECT_EQ(findings, std::vector<Finding>{});
}

TEST(LintCorpus, WholeFixtureDirectoryExactFindings) {
  const auto findings =
      bgpsdn::lint::lint_paths({std::string{BGPSDN_LINT_FIXTURE_DIR}});
  // Sorted by (file, line, rule, token); one row per expected finding.
  std::vector<std::pair<std::string, std::string>> got;
  got.reserve(findings.size());
  for (const Finding& f : findings) {
    const std::size_t slash = f.file.find_last_of('/');
    got.emplace_back(f.file.substr(slash + 1),
                     f.rule + "@" + std::to_string(f.line));
  }
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"a2_violation.cpp", "A2@10"},
      {"a2_violation.cpp", "A2@11"},
      {"a2_violation.cpp", "A2@12"},
      {"a2_violation.cpp", "A2@13"},
      {"changelog_companion.cpp", "D3@8"},
      {"companion_emit.cpp", "D3@9"},
      {"d1_pragma_noreason.cpp", "P1@6"},
      {"d1_pragma_noreason.cpp", "D1@7"},
      {"d1_violation.cpp", "D1@5"},
      {"d2_violation.cpp", "D2@6"},
      {"d2_violation.cpp", "D2@7"},
      {"d2_violation.cpp", "D2@8"},
      {"d3_changelog.cpp", "D3@10"},
      {"d3_violation.cpp", "D3@9"},
      {"d4_violation.cpp", "D4@10"},
      {"d4_violation.cpp", "D4@11"},
      {"d4_violation.cpp", "D4@14"},
      {"d5_violation.cpp", "D5@10"},
      {"d5_violation.cpp", "D5@11"},
      {"h1_missing_once.hpp", "H1@1"},
      {"h1_using_namespace.hpp", "H1@6"},
      {"l1_violation.cpp", "L1@5"},
      {"l1_violation.cpp", "L1@6"},
      {"l1_violation.cpp", "L1@7"},
      {"l1_violation.cpp", "L1@8"},
      {"l1_violation.cpp", "L1@10"},
      {"t1_violation.cpp", "T1@6"},
      {"t1_violation.cpp", "T1@7"},
      {"t1_violation.cpp", "T1@8"},
      {"t1_violation.cpp", "T1@9"},
  };
  EXPECT_EQ(got, expected);
}

TEST(LintCorpus, FixtureSubdirectoriesAreSkippedDuringRecursion) {
  // A parent root must not descend into a "fixtures" directory — the
  // corpus is deliberately full of violations. BGPSDN_LINT_FIXTURE_DIR is
  // <tests>/lint/fixtures, so scanning <tests>/lint must come back clean
  // of fixture findings (test_lint.cpp itself holds rule tokens only in
  // string literals, which are stripped).
  const std::string fixtures{BGPSDN_LINT_FIXTURE_DIR};
  const std::string parent = fixtures.substr(0, fixtures.find_last_of('/'));
  const auto findings = bgpsdn::lint::lint_paths({parent});
  for (const Finding& f : findings) {
    EXPECT_EQ(f.file.find("/fixtures/"), std::string::npos) << f.file;
  }
}

// --- A1: include-graph pass -------------------------------------------------

TEST(LintLayers, ParsesTableWithCommentsAndBlankLines) {
  LayerTable layers;
  std::string err;
  ASSERT_TRUE(bgpsdn::lint::parse_layers(
      "# comment\n\ncore 0\nnet 2  # trailing comment\n", layers, &err))
      << err;
  ASSERT_NE(layers.rank_of("core"), nullptr);
  EXPECT_EQ(*layers.rank_of("core"), 0);
  ASSERT_NE(layers.rank_of("net"), nullptr);
  EXPECT_EQ(*layers.rank_of("net"), 2);
  EXPECT_EQ(layers.rank_of("unlisted"), nullptr);
}

TEST(LintLayers, RejectsMalformedAndDuplicateLines) {
  LayerTable layers;
  std::string err;
  EXPECT_FALSE(bgpsdn::lint::parse_layers("core zero\n", layers, &err));
  EXPECT_NE(err.find("line 1"), std::string::npos);
  EXPECT_FALSE(
      bgpsdn::lint::parse_layers("core 0\ncore 1\n", layers, &err));
  EXPECT_NE(err.find("duplicate"), std::string::npos);
}

TEST(LintA1, UpwardIncludeIsAFinding) {
  const std::vector<CorpusFile> files = {
      {"src/core/bad.hpp",
       "#pragma once\n#include \"framework/report.hpp\"\n"},
  };
  const auto findings =
      bgpsdn::lint::analyze_include_graph(files, test_layers());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "A1");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[0].token, "framework/report.hpp");
  EXPECT_NE(findings[0].message.find("upward include"), std::string::npos);
}

TEST(LintA1, SameRankCrossDirectoryIncludeIsAFinding) {
  // sdn and topology are peers at rank 4: both may build on bgp, neither
  // on the other.
  const std::vector<CorpusFile> files = {
      {"src/sdn/probe.hpp",
       "#pragma once\n#include \"topology/as_topology.hpp\"\n"},
  };
  const auto findings =
      bgpsdn::lint::analyze_include_graph(files, test_layers());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "A1");
  EXPECT_NE(findings[0].message.find("same-rank include"), std::string::npos);
}

TEST(LintA1, DownwardAndSameDirectoryIncludesAreLegal) {
  const std::vector<CorpusFile> files = {
      {"src/bgp/probe.hpp",
       "#pragma once\n#include \"core/event_loop.hpp\"\n"
       "#include \"net/prefix.hpp\"\n#include \"bgp/wire.hpp\"\n"},
  };
  EXPECT_EQ(bgpsdn::lint::analyze_include_graph(files, test_layers()),
            std::vector<Finding>{});
}

TEST(LintA1, UngovernedDirectoriesAreIgnored) {
  const std::vector<CorpusFile> files = {
      {"scripts/probe.cpp", "#include \"framework/report.hpp\"\n"},
      {"src/core/probe.hpp", "#pragma once\n#include \"generated/tbl.hpp\"\n"},
  };
  EXPECT_EQ(bgpsdn::lint::analyze_include_graph(files, test_layers()),
            std::vector<Finding>{});
}

TEST(LintA1, LayerOkPragmaWaivesTheEdge) {
  const std::vector<CorpusFile> files = {
      {"src/core/bad.hpp",
       "#pragma once\n"
       "// lint: layer-ok(transitional: interface extraction in flight)\n"
       "#include \"framework/report.hpp\"\n"},
  };
  EXPECT_EQ(bgpsdn::lint::analyze_include_graph(files, test_layers()),
            std::vector<Finding>{});
}

TEST(LintA1, IncludeCycleIsAFinding) {
  const std::vector<CorpusFile> files = {
      {"src/core/a.hpp", "#pragma once\n#include \"core/b.hpp\"\n"},
      {"src/core/b.hpp", "#pragma once\n#include \"core/a.hpp\"\n"},
  };
  const auto findings =
      bgpsdn::lint::analyze_include_graph(files, test_layers());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "A1");
  EXPECT_NE(findings[0].message.find("include cycle"), std::string::npos);
  EXPECT_NE(findings[0].message.find("core/a.hpp"), std::string::npos);
  EXPECT_NE(findings[0].message.find("core/b.hpp"), std::string::npos);
}

TEST(LintA1, AcyclicChainHasNoCycleFindings) {
  const std::vector<CorpusFile> files = {
      {"src/core/a.hpp", "#pragma once\n#include \"core/b.hpp\"\n"},
      {"src/core/b.hpp", "#pragma once\n#include \"core/c.hpp\"\n"},
      {"src/core/c.hpp", "#pragma once\n"},
  };
  EXPECT_EQ(bgpsdn::lint::analyze_include_graph(files, test_layers()),
            std::vector<Finding>{});
}

TEST(LintA1, RepoSourceTreeIsLayerMonotoneAndCycleFree) {
  // The committed acceptance property, provable from anywhere the source
  // tree is visible: BGPSDN_LINT_FIXTURE_DIR is <repo>/tests/lint/fixtures.
  std::string repo{BGPSDN_LINT_FIXTURE_DIR};
  for (int up = 0; up < 3; ++up) repo = repo.substr(0, repo.find_last_of('/'));
  const auto corpus = bgpsdn::lint::load_corpus({repo + "/src"});
  ASSERT_GT(corpus.size(), 50u);
  EXPECT_EQ(bgpsdn::lint::analyze_include_graph(corpus, test_layers()),
            std::vector<Finding>{});
}

TEST(LintA1, DotExportListsRanksAndEdges) {
  const std::vector<CorpusFile> files = {
      {"src/bgp/probe.hpp", "#pragma once\n#include \"core/event_loop.hpp\"\n"
                            "#include \"core/duration.hpp\"\n"},
  };
  const std::string dot =
      bgpsdn::lint::include_graph_dot(files, test_layers());
  EXPECT_NE(dot.find("digraph bgpsdn_includes"), std::string::npos);
  EXPECT_NE(dot.find("\"bgp\" [label=\"bgp\\nrank 3\"]"), std::string::npos);
  EXPECT_NE(dot.find("\"bgp\" -> \"core\" [label=\"2\"]"), std::string::npos);
}

// --- baseline (bgpsdn.lint/2) -----------------------------------------------

TEST(LintBaseline, RoundTripAndFiltering) {
  auto findings = bgpsdn::lint::lint_file(fixture("d1_violation.cpp"));
  ASSERT_EQ(findings.size(), 1u);
  for (Finding& f : findings) f.reason = "fixture exercises the rule";

  const std::string doc = bgpsdn::lint::findings_to_json(findings);
  bgpsdn::lint::Baseline baseline;
  std::string err;
  ASSERT_TRUE(bgpsdn::lint::parse_baseline(doc, baseline, &err)) << err;
  ASSERT_EQ(baseline.entries.size(), 1u);
  EXPECT_EQ(baseline.entries[0].reason, "fixture exercises the rule");

  // Every current finding is baselined → gate passes, nothing stale.
  const auto current = bgpsdn::lint::lint_file(fixture("d1_violation.cpp"));
  const auto filtered = bgpsdn::lint::apply_baseline(current, baseline);
  EXPECT_EQ(filtered.fresh, std::vector<Finding>{});
  EXPECT_EQ(filtered.baselined, 1u);
  EXPECT_EQ(filtered.stale, std::vector<Finding>{});
  EXPECT_EQ(bgpsdn::lint::exit_code_for(filtered.fresh), 0);

  // A fresh violation elsewhere is not covered by the baseline.
  auto more = current;
  more.push_back({"other.cpp", 3, "D2", "rand()", "msg", ""});
  const auto filtered2 = bgpsdn::lint::apply_baseline(more, baseline);
  ASSERT_EQ(filtered2.fresh.size(), 1u);
  EXPECT_EQ(filtered2.fresh[0].file, "other.cpp");
  EXPECT_EQ(bgpsdn::lint::exit_code_for(filtered2.fresh), 1);
}

TEST(LintBaseline, StaleWaiversAreReported) {
  bgpsdn::lint::Baseline baseline;
  std::string err;
  ASSERT_TRUE(bgpsdn::lint::parse_baseline(
      R"json({"schema":"bgpsdn.lint/2","findings":[{"file":"gone.cpp",)json"
      R"json("line":9,"rule":"D1","token":"time()","message":"m",)json"
      R"json("reason":"code was deleted"}]})json",
      baseline, &err))
      << err;
  const auto filtered = bgpsdn::lint::apply_baseline({}, baseline);
  EXPECT_EQ(filtered.fresh, std::vector<Finding>{});
  ASSERT_EQ(filtered.stale.size(), 1u);
  EXPECT_EQ(filtered.stale[0].file, "gone.cpp");
}

TEST(LintBaseline, V1SchemaRejectedWithMigrationDiagnostic) {
  bgpsdn::lint::Baseline b;
  std::string err;
  EXPECT_FALSE(bgpsdn::lint::parse_baseline(
      R"({"schema":"bgpsdn.lint/1","findings":[]})", b, &err));
  EXPECT_EQ(err,
            "baseline schema bgpsdn.lint/1 is no longer supported: every "
            "waiver now requires a reason; migrate to bgpsdn.lint/2 by "
            "adding a \"reason\" to each entry, or regenerate with "
            "--write-baseline");
}

TEST(LintBaseline, EntryWithoutReasonRejectedWithExactDiagnostic) {
  bgpsdn::lint::Baseline b;
  std::string err;
  EXPECT_FALSE(bgpsdn::lint::parse_baseline(
      R"json({"schema":"bgpsdn.lint/2","findings":[{"file":"x.cpp",)json"
      R"json("line":3,"rule":"D2","token":"rand()","message":"m"}]})json",
      b, &err));
  EXPECT_EQ(err,
            "baseline waiver x.cpp:3 [D2] has no reason; every waiver must "
            "document why it is tolerated");
}

TEST(LintBaseline, MalformedDocumentsRejected) {
  bgpsdn::lint::Baseline b;
  EXPECT_FALSE(bgpsdn::lint::parse_baseline("not json", b));
  EXPECT_FALSE(bgpsdn::lint::parse_baseline("{}", b));
  EXPECT_FALSE(bgpsdn::lint::parse_baseline(
      R"({"schema":"bgpsdn.lint/3","findings":[]})", b));
  EXPECT_TRUE(bgpsdn::lint::parse_baseline(
      R"({"schema":"bgpsdn.lint/2","findings":[]})", b));
  EXPECT_TRUE(b.entries.empty());
}

TEST(LintBaseline, CommittedRepoBaselineParsesUnderV2) {
  // The committed lint_baseline.json must stay valid: schema v2 and a
  // documented reason on every entry.
  std::string repo{BGPSDN_LINT_FIXTURE_DIR};
  for (int up = 0; up < 3; ++up) repo = repo.substr(0, repo.find_last_of('/'));
  std::ifstream in{repo + "/lint_baseline.json", std::ios::binary};
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  bgpsdn::lint::Baseline baseline;
  std::string err;
  ASSERT_TRUE(bgpsdn::lint::parse_baseline(ss.str(), baseline, &err)) << err;
  for (const Finding& f : baseline.entries) {
    EXPECT_FALSE(f.reason.empty()) << f.file << ":" << f.line;
  }
}

TEST(LintIO, UnreadableFileIsAnIoFinding) {
  const auto findings =
      bgpsdn::lint::lint_file(fixture("does_not_exist.cpp"));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "IO");
}

}  // namespace
