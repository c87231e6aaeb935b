// Seeded mutation fuzz of the three text grammars: .matrix files, fault
// plans and the scenario DSL (its configuration prefix, before `start`).
//
// The corpus is the committed scenarios/ directory. Each mutant swaps,
// inserts or deletes tokens drawn from a dictionary of hostile values
// (signs, fractions, exponents, NaN/inf, hex, values past 2^63 and 2^64,
// an empty token and a bare '#'). `topology` lines stay fixed: a mutated
// size builds a huge graph and tells nothing about the parser. The bar:
// every mutant parses or fails with a std::invalid_argument framed
// "line N: " (matrix expansion errors name their cell instead), nothing
// else escapes, and every accepted value lies in its domain.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/random.hpp"
#include "framework/matrix.hpp"
#include "framework/scenario.hpp"

namespace bgpsdn::framework {
namespace {

constexpr std::uint64_t kSeed = 20140822;
constexpr int kMutantsPerFile = 600;

const std::vector<std::string>& hostile_tokens() {
  static const std::vector<std::string> tokens{
      "-1",  "+1",   "0",     "1.5",        "1e30",
      "1e10", "nan", "inf",   "-0",         "0x10",
      "9223372036", "18446744073709551616", "", "#"};
  return tokens;
}

using Lines = std::vector<std::vector<std::string>>;

std::vector<std::string> split(const std::string& line) {
  std::istringstream in{line};
  std::vector<std::string> out;
  for (std::string tok; in >> tok;) out.push_back(tok);
  return out;
}

/// The corpus files with one extension, sorted by name, as token lines.
/// For scenario scripts only the lines before `start` are kept.
std::vector<Lines> corpus(const std::string& extension) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator{BGPSDN_SCENARIO_DIR}) {
    if (entry.path().extension() == extension) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<Lines> files;
  for (const auto& path : paths) {
    std::ifstream in{path};
    Lines lines;
    for (std::string line; std::getline(in, line);) {
      auto tokens = split(line);
      if (!tokens.empty() && tokens[0] == "start") break;
      lines.push_back(std::move(tokens));
    }
    files.push_back(std::move(lines));
  }
  return files;
}

/// One to three token mutations on lines other than blank and `topology`.
std::string mutate(const Lines& file, core::Rng& rng) {
  Lines lines = file;
  std::vector<std::size_t> mutable_lines;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].empty() && lines[i][0] != "topology") {
      mutable_lines.push_back(i);
    }
  }
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto& dict = hostile_tokens();
  for (auto edits = rng.uniform_int(1, 3); edits > 0 && !mutable_lines.empty();
       --edits) {
    auto& tokens = lines[mutable_lines[pick(mutable_lines.size())]];
    const std::string& hostile = dict[pick(dict.size())];
    switch (rng.uniform_int(0, 2)) {
      case 0:
        if (!tokens.empty()) tokens[pick(tokens.size())] = hostile;
        break;
      case 1:
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(
                                           pick(tokens.size() + 1)),
                      hostile);
        break;
      default:
        if (!tokens.empty()) {
          tokens.erase(tokens.begin() +
                       static_cast<std::ptrdiff_t>(pick(tokens.size())));
        }
        break;
    }
  }
  std::string text;
  for (const auto& tokens : lines) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      text += (i > 0 ? " " : "") + tokens[i];
    }
    text += '\n';
  }
  return text;
}

/// A parse diagnostic: "line N: ..." with N a line of the mutant.
void expect_line_framed(const std::string& message, const std::string& text) {
  const auto lines = static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n'));
  std::size_t number = 0;
  char colon = 0;
  std::istringstream in{message};
  std::string word;
  in >> word >> number >> colon;
  EXPECT_TRUE(word == "line" && colon == ':' && number >= 1 &&
              number <= lines)
      << message << "\n--- mutant ---\n" << text;
}

void expect_event_in_domain(const FaultEvent& e) {
  const auto cap = core::Duration::seconds(1000000000);
  EXPECT_GE(e.at, core::Duration::zero());
  EXPECT_LE(e.at, cap);
  EXPECT_GE(e.period, core::Duration::zero());
  EXPECT_LE(e.period, cap);
  EXPECT_GE(e.value, 0.0);
  EXPECT_LE(e.value, 1.0);
  EXPECT_GE(e.count, -1);
  switch (e.kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
    case FaultKind::kLinkLoss:
    case FaultKind::kCorrupt:
      EXPECT_GE(e.a.value(), 1u);
      EXPECT_GE(e.b.value(), 1u);
      break;
    case FaultKind::kLinkFlap:
    case FaultKind::kLossRamp:
      EXPECT_GE(e.a.value(), 1u);
      EXPECT_GE(e.b.value(), 1u);
      EXPECT_GE(e.count, 1);
      break;
    case FaultKind::kPartition:
      for (const auto as : e.as_set) EXPECT_GE(as.value(), 1u);
      break;
    case FaultKind::kControllerCrash:
    case FaultKind::kControllerRestart:
    case FaultKind::kReplPartition:
    case FaultKind::kReplHeal:
      EXPECT_LE(e.count, 15);
      break;
    default:
      break;
  }
}

void expect_spec_in_domain(const ExperimentSpec& spec) {
  const auto& cfg = spec.config;
  EXPECT_GE(cfg.timers.mrai, core::Duration::zero());
  EXPECT_GE(cfg.recompute_delay, core::Duration::zero());
  EXPECT_GE(cfg.default_link.delay, core::Duration::zero());
  EXPECT_GT(cfg.ha.election_min, core::Duration::zero());
  EXPECT_GE(spec.wait_quiet, core::Duration::zero());
  EXPECT_GE(cfg.controller_replicas, 1u);
  EXPECT_LE(cfg.controller_replicas, 16u);
  if (spec.sdn_fraction) {
    EXPECT_GE(*spec.sdn_fraction, 0.0);
    EXPECT_LE(*spec.sdn_fraction, 1.0);
  }
  for (const auto& [as, prefix] : spec.announcements) {
    EXPECT_GE(as.value(), 1u) << prefix.to_string();
  }
  for (const auto& event : spec.faults.events) expect_event_in_domain(event);
}

TEST(ConfigFuzz, MatrixMutantsParseOrFailAtTheirLine) {
  core::Rng rng{kSeed};
  const auto files = corpus(".matrix");
  ASSERT_FALSE(files.empty());
  for (const auto& file : files) {
    for (int m = 0; m < kMutantsPerFile; ++m) {
      const std::string text = mutate(file, rng);
      MatrixSpec matrix;
      try {
        matrix = MatrixSpec::parse(text);
      } catch (const std::invalid_argument& e) {
        expect_line_framed(e.what(), text);
        continue;
      } catch (...) {
        ADD_FAILURE() << "non-diagnostic exception\n--- mutant ---\n" << text;
        continue;
      }
      EXPECT_GE(matrix.trials, 1u);
      expect_spec_in_domain(matrix.base);
      std::vector<MatrixCell> cells;
      try {
        cells = matrix.expand();
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string{e.what()}, "");
        continue;
      } catch (...) {
        ADD_FAILURE() << "non-diagnostic exception\n--- mutant ---\n" << text;
        continue;
      }
      for (const auto& cell : cells) {
        expect_spec_in_domain(cell.spec);
        EXPECT_LE(cell.spec.sdn_count, cell.spec.topology_size);
      }
    }
  }
}

TEST(ConfigFuzz, PlanMutantsParseOrFailAtTheirLine) {
  core::Rng rng{kSeed + 1};
  const auto files = corpus(".plan");
  ASSERT_FALSE(files.empty());
  for (const auto& file : files) {
    for (int m = 0; m < kMutantsPerFile; ++m) {
      const std::string text = mutate(file, rng);
      try {
        for (const auto& event : FaultPlan::parse(text).events) {
          expect_event_in_domain(event);
        }
      } catch (const std::invalid_argument& e) {
        expect_line_framed(e.what(), text);
      } catch (...) {
        ADD_FAILURE() << "non-diagnostic exception\n--- mutant ---\n" << text;
      }
    }
  }
}

TEST(ConfigFuzz, ScenarioPrefixMutantsParseOrFailAtTheirLine) {
  core::Rng rng{kSeed + 2};
  const auto files = corpus(".bgpsdn");
  ASSERT_FALSE(files.empty());
  for (const auto& file : files) {
    for (int m = 0; m < kMutantsPerFile; ++m) {
      const std::string text = mutate(file, rng);
      try {
        const auto result = ScenarioRunner{}.run(text);
        if (!result.ok) expect_line_framed(result.error, text);
      } catch (...) {
        ADD_FAILURE() << "exception escaped the DSL\n--- mutant ---\n" << text;
      }
    }
  }
}

}  // namespace
}  // namespace bgpsdn::framework
