// Golden captures shared by the framework tests. Fixtures live in
// tests/framework/golden/ and are compared byte for byte; a mismatch prints
// gtest's line diff and writes the full capture next to the test's temp
// files (<TempDir>/<name>.actual), ready to replace the fixture when the
// behaviour change is intended.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/json.hpp"

namespace bgpsdn::framework::golden {

inline std::string read(const std::string& name) {
  std::ifstream in{std::string{BGPSDN_GOLDEN_DIR} + "/" + name,
                   std::ios::binary};
  if (!in) return {};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

inline void expect_equal(const std::string& actual, const std::string& name) {
  const std::string golden = read(name);
  if (!golden.empty() && actual == golden) return;
  const std::string path = ::testing::TempDir() + name + ".actual";
  std::ofstream{path, std::ios::binary} << actual;
  ASSERT_FALSE(golden.empty()) << "missing golden capture " << name
                               << " (capture in " << path << ")";
  EXPECT_EQ(golden, actual) << name << " (full capture in " << path << ")";
}

/// One line per leaf of a JSON document, keyed by its dotted path, so a
/// mismatch names the value that moved.
inline void flatten(const telemetry::Json& json, const std::string& path,
                    std::string& out) {
  if (json.is_object() && json.size() > 0) {
    for (const auto& [key, value] : json.entries()) {
      flatten(value, path.empty() ? key : path + "." + key, out);
    }
    return;
  }
  out += path + " = " + json.dump() + "\n";
}

}  // namespace bgpsdn::framework::golden
