// Text in and out: exact whole-token number parsers and allocation-free
// appenders.
//
// Numbers that enter the emulator as text (scenario and matrix values,
// fault plans, CLI flags, dataset fields) are read by the parsers here,
// which accept a token only when the whole of it is one number in range.
// Text the emulator writes (log records above all) is appended into a
// caller's buffer: append_decimal puts std::to_chars output there, and
// value types format themselves with an `append_to(std::string&)` member
// whose to_string() is text_of().
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace bgpsdn::core {

/// Exact whole-token decimal parse: digits only (no sign, fraction, exponent
/// or padding), and a value that does not fit in 64 bits is rejected, never
/// wrapped.
inline std::optional<std::uint64_t> parse_uint64(std::string_view token) {
  std::uint64_t v = 0;
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, v);
  if (ec != std::errc{} || end != last) return std::nullopt;
  return v;
}

/// Exact whole-token real parse: one finite number (decimal or exponent
/// notation, no leading '+', no hex) spanning the whole token, within
/// [lo, hi], or (lo, hi] when `open_lo`. NaN, infinities, trailing text and
/// out-of-range values are rejected.
inline std::optional<double> parse_real(std::string_view token, double lo,
                                        double hi, bool open_lo = false) {
  double v = 0.0;
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, v);
  const bool above_lo = open_lo ? v > lo : v >= lo;
  if (ec != std::errc{} || end != last || !(above_lo && v <= hi)) {
    return std::nullopt;
  }
  return v;
}

/// Append the decimal text of an integer (std::to_chars; no temporaries).
template <std::integral T>
void append_decimal(std::string& out, T value) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, end);
}

/// The text `value` appends with its append_to(std::string&) member.
template <typename T>
std::string text_of(const T& value) {
  std::string out;
  value.append_to(out);
  return out;
}

}  // namespace bgpsdn::core
