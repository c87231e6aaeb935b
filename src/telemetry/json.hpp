// Minimal JSON value — the wire format of the telemetry subsystem.
//
// Every machine-readable artifact the framework emits (metrics snapshots,
// JSONL trace spans, BENCH_*.json documents) goes through this one type, so
// the rendering is deterministic by construction: object keys are stored in
// a sorted map, numbers are formatted by one routine, and no locale or
// pointer identity leaks into the output. A small parser rides along for
// round-trip tests and for tools that read the documents back.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace bgpsdn::telemetry {

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() : value_{nullptr} {}
  Json(std::nullptr_t) : value_{nullptr} {}
  Json(bool b) : value_{b} {}
  Json(int v) : value_{static_cast<std::int64_t>(v)} {}
  Json(unsigned v) : value_{static_cast<std::int64_t>(v)} {}
  Json(long v) : value_{static_cast<std::int64_t>(v)} {}
  Json(long long v) : value_{static_cast<std::int64_t>(v)} {}
  Json(unsigned long v) : value_{static_cast<std::int64_t>(v)} {}
  Json(unsigned long long v) : value_{static_cast<std::int64_t>(v)} {}
  Json(double v) : value_{v} {}
  Json(const char* s) : value_{std::string{s}} {}
  Json(std::string s) : value_{std::move(s)} {}
  Json(std::string_view s) : value_{std::string{s}} {}

  static Json array() {
    Json j;
    j.value_ = Array{};
    return j;
  }
  static Json object() {
    Json j;
    j.value_ = Object{};
    return j;
  }

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  std::int64_t as_int() const {
    return is_double() ? static_cast<std::int64_t>(std::get<double>(value_))
                       : std::get<std::int64_t>(value_);
  }
  double as_double() const {
    return is_int() ? static_cast<double>(std::get<std::int64_t>(value_))
                    : std::get<double>(value_);
  }
  const std::string& as_string() const { return std::get<std::string>(value_); }

  /// Object access; creates the slot (converting a null value to an object).
  Json& operator[](const std::string& key);
  /// Object lookup without insertion; nullptr when absent or not an object.
  const Json* find(const std::string& key) const;
  bool contains(const std::string& key) const { return find(key) != nullptr; }

  /// Array append (converts a null value to an array).
  void push_back(Json v);
  /// Array element access.
  const Json& at(std::size_t i) const { return std::get<Array>(value_).at(i); }

  /// Elements of an array / entries of an object; 0 for scalars.
  std::size_t size() const;

  const std::vector<Json>& items() const { return std::get<Array>(value_); }
  const std::map<std::string, Json>& entries() const {
    return std::get<Object>(value_);
  }

  bool operator==(const Json& other) const { return dump() == other.dump(); }

  /// Compact, deterministic rendering (sorted object keys, "%.12g" doubles).
  std::string dump() const;
  void dump_to(std::string& out) const;

  /// Strict-enough parser for the subsystem's own output. Returns nullopt on
  /// malformed input (including trailing garbage).
  static std::optional<Json> parse(std::string_view text);

  /// Escape and quote a string for JSON output.
  static void append_quoted(std::string& out, std::string_view s);

 private:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      value_;
};

}  // namespace bgpsdn::telemetry
