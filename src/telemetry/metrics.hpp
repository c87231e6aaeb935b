// Metrics: counters, gauges, and bounded-memory histograms.
//
// A MetricsRegistry is owned by each net::Network (plus any standalone user).
// Instruments are created on first use and live as long as the registry, so
// hot paths cache the returned pointer once and then do a single integer
// add per event — no map lookups, no allocation, no branches on sinks.
//
// Histograms use HDR-style log-linear buckets: each power-of-two range is
// split into 2^kSubBits linear sub-buckets, giving a fixed ~6% relative
// error on quantiles with a small fixed footprint regardless of how many
// samples are recorded. Exact count/sum/min/max are tracked separately.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "telemetry/json.hpp"

namespace bgpsdn::telemetry {

class Counter {
 public:
  void inc(std::int64_t by = 1) { value_ += by; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class Gauge {
 public:
  void set(std::int64_t v) { value_ = v; }
  void add(std::int64_t by) { value_ += by; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class Histogram {
 public:
  // 16 linear sub-buckets per power-of-two range.
  static constexpr unsigned kSubBits = 4;
  static constexpr unsigned kSubCount = 1u << kSubBits;

  /// Record a sample. Negative values are clamped to 0 (virtual durations
  /// are non-negative by construction; clamping keeps the bucket math total).
  void record(std::int64_t value);

  std::uint64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  std::int64_t max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Upper-bound estimate of the q-quantile (q in [0, 1]); exact at the
  /// extremes. Returns 0 for an empty histogram.
  std::int64_t quantile(double q) const;

  /// {count, sum, min, max, mean, p50, p90, p99, buckets:[[lower,count]..]}
  /// Only non-empty buckets are listed, so the document stays small.
  Json to_json() const;

  /// Bucket index for a (clamped non-negative) value — exposed for tests.
  static std::size_t bucket_index(std::int64_t value);
  /// Inclusive upper bound of the value range mapping to bucket `index`.
  static std::int64_t bucket_upper(std::size_t index);
  /// Inclusive lower bound of the value range mapping to bucket `index`.
  static std::int64_t bucket_lower(std::size_t index);

 private:
  // 63-bit values → (63 - kSubBits) power-of-two groups above the linear
  // range, each with kSubCount sub-buckets, plus the initial linear range.
  static constexpr std::size_t kBucketCount =
      kSubCount + (63 - kSubBits) * kSubCount;

  std::vector<std::uint64_t> buckets_;  // lazily sized, bounded by kBucketCount
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// Name → instrument map with stable addresses (nodes never move).
///
/// Backed by hash maps with transparent string_view lookup: the common
/// "look up by name" call hashes the characters directly — no temporary
/// std::string, no tree walk. Snapshot determinism is unaffected because
/// Json objects sort their keys on insertion.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name) { return slot(counters_, name); }
  Gauge& gauge(std::string_view name) { return slot(gauges_, name); }
  Histogram& histogram(std::string_view name) { return slot(histograms_, name); }

  const Counter* find_counter(std::string_view name) const {
    return find(counters_, name);
  }
  const Histogram* find_histogram(std::string_view name) const {
    return find(histograms_, name);
  }

  /// Sorted, deterministic snapshot:
  /// {counters:{name:value}, gauges:{name:value}, histograms:{name:{...}}}
  Json snapshot() const;

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  template <typename T>
  using Map =
      std::unordered_map<std::string, T, StringHash, std::equal_to<>>;

  template <typename T>
  T& slot(Map<T>& map, std::string_view name) {
    // Heterogeneous find avoids materialising a std::string on the hit
    // path; only a genuinely new instrument pays for the key copy.
    // unordered_map: rehashing never moves nodes, so addresses are stable.
    const auto it = map.find(name);
    if (it != map.end()) return it->second;
    return map.emplace(std::string{name}, T{}).first->second;
  }
  template <typename T>
  const T* find(const Map<T>& map, std::string_view name) const {
    const auto it = map.find(name);
    return it == map.end() ? nullptr : &it->second;
  }

  Map<Counter> counters_;
  Map<Gauge> gauges_;
  Map<Histogram> histograms_;
};

}  // namespace bgpsdn::telemetry
