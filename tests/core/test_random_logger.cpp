#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/logger.hpp"
#include "core/random.hpp"

namespace bgpsdn::core {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntBounds) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
  // Degenerate range.
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformRealBounds) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(0.25, 0.75);
    EXPECT_GE(v, 0.25);
    EXPECT_LT(v, 0.75);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng{7};
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng{7};
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10'000.0, 0.3, 0.03);
}

TEST(Rng, JitteredStaysInBand) {
  Rng rng{7};
  const auto base = Duration::seconds(30);
  for (int i = 0; i < 1000; ++i) {
    const auto j = rng.jittered(base);  // default 0.75..1.0 (Quagga-like)
    EXPECT_GE(j, base * 0.75);
    EXPECT_LE(j, base);
  }
}

TEST(Rng, UniformDurationBounds) {
  Rng rng{7};
  const auto lo = Duration::millis(10);
  const auto hi = Duration::millis(20);
  for (int i = 0; i < 200; ++i) {
    const auto d = rng.uniform_duration(lo, hi);
    EXPECT_GE(d, lo);
    EXPECT_LE(d, hi);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng{7};
  double sum = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(Duration::seconds(2)).to_seconds();
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ForkIsIndependent) {
  Rng a{42};
  Rng child = a.fork();
  // The child stream must not equal the parent's continued stream.
  Rng b{42};
  b.fork();
  EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
  (void)child;
}

TEST(Logger, RetainsRecordsInOrder) {
  Logger log;
  log.log(TimePoint::from_nanos(10), LogLevel::kInfo, "a", "ev1", "x");
  log.log(TimePoint::from_nanos(20), LogLevel::kInfo, "b", "ev2");
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records()[0].event, "ev1");
  EXPECT_EQ(log.records()[1].component, "b");
}

TEST(Logger, MinLevelFilters) {
  Logger log;
  log.set_min_level(LogLevel::kWarn);
  log.log(TimePoint::origin(), LogLevel::kDebug, "a", "dropped");
  log.log(TimePoint::origin(), LogLevel::kError, "a", "kept");
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].event, "kept");
}

TEST(Logger, SinksFireEvenWithoutRetention) {
  Logger log;
  log.set_retain(false);
  int count = 0;
  log.add_sink([&](const LogRecord&) { ++count; });
  log.log(TimePoint::origin(), LogLevel::kInfo, "a", "ev");
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(log.records().empty());
}

TEST(Logger, RemoveSinkStopsDelivery) {
  Logger log;
  int count = 0;
  const auto id = log.add_sink([&](const LogRecord&) { ++count; });
  log.log(TimePoint::origin(), LogLevel::kInfo, "a", "ev");
  log.remove_sink(id);
  log.log(TimePoint::origin(), LogLevel::kInfo, "a", "ev");
  EXPECT_EQ(count, 1);
}

TEST(Logger, FilterByEventAndComponentPrefix) {
  Logger log;
  log.log(TimePoint::origin(), LogLevel::kInfo, "bgp.AS1", "update_tx");
  log.log(TimePoint::origin(), LogLevel::kInfo, "bgp.AS2", "update_tx");
  log.log(TimePoint::origin(), LogLevel::kInfo, "bgp.AS1", "update_rx");
  EXPECT_EQ(log.filter("update_tx").size(), 2u);
  EXPECT_EQ(log.filter("update_tx", "bgp.AS1").size(), 1u);
  EXPECT_EQ(log.count("update_rx"), 1u);
  EXPECT_EQ(log.count("nothing"), 0u);
}

/// Counts how often it is formatted.
struct CountedText {
  int* calls;
  void append_to(std::string& out) const {
    ++*calls;
    out += "text";
  }
};

TEST(Logger, FormatsPartsInPlaceInOrder) {
  Logger log;
  std::string seen;
  log.add_sink([&](const LogRecord& rec) { seen = std::string{rec.detail}; });
  const std::string reason = "hold timer expired";
  int calls = 0;
  log.log(TimePoint::origin(), LogLevel::kInfo, "c", "e", "peer ",
          std::uint32_t{65001}, ' ', std::uint8_t{7}, ": ", reason, ' ',
          std::int64_t{-3}, ' ', CountedText{&calls});
  EXPECT_EQ(seen, "peer 65001 7: hold timer expired -3 text");
  EXPECT_EQ(calls, 1);
}

TEST(Logger, NothingIsFormattedBelowMinLevel) {
  Logger log;
  log.set_min_level(LogLevel::kInfo);
  int delivered = 0;
  log.add_sink([&](const LogRecord&) { ++delivered; });
  int calls = 0;
  log.log(TimePoint::origin(), LogLevel::kDebug, "c", "e", CountedText{&calls});
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(delivered, 0);
  log.log(TimePoint::origin(), LogLevel::kWarn, "c", "e", CountedText{&calls});
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(delivered, 1);
}

TEST(Logger, RetainedRecordsOwnTheirText) {
  // Sinks see views into the logger's reused buffer; retained records and
  // filter() results keep copies that later records do not overwrite.
  Logger log;
  std::string component = "bgp.AS1";
  log.log(TimePoint::from_nanos(1), LogLevel::kInfo, component, "update_tx",
          "first detail");
  component = "bgp.AS9";
  log.log(TimePoint::from_nanos(2), LogLevel::kInfo, component, "update_tx",
          "second");
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records()[0].component, "bgp.AS1");
  EXPECT_EQ(log.records()[0].detail, "first detail");
  EXPECT_EQ(log.records()[1].detail, "second");
  const auto kept = log.filter("update_tx", "bgp.AS1");
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].to_string(), "0.000000s [INFO] bgp.AS1 update_tx: first detail");
  EXPECT_EQ(kept[0].view().to_string(), kept[0].to_string());
}

TEST(LogRecord, ToStringFormat) {
  LogRecord rec{TimePoint::origin(), LogLevel::kInfo, "comp", "ev", "detail"};
  EXPECT_EQ(rec.to_string(), "0.000000s [INFO] comp ev: detail");
  LogRecord bare{TimePoint::origin(), LogLevel::kError, "c", "e", ""};
  EXPECT_EQ(bare.to_string(), "0.000000s [ERROR] c e");
}

}  // namespace
}  // namespace bgpsdn::core
