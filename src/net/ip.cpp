#include "net/ip.hpp"

#include <charconv>

#include "core/text.hpp"

namespace bgpsdn::net {

namespace {

constexpr std::uint32_t mask_for(std::uint8_t len) {
  return len == 0 ? 0u : (~std::uint32_t{0} << (32 - len));
}

// Parse one decimal octet from [p, end); advances p. Rejects values > 255
// and empty fields.
bool parse_octet(const char*& p, const char* end, std::uint32_t& out) {
  if (p == end) return false;
  unsigned v = 0;
  const auto [next, ec] = std::from_chars(p, end, v);
  if (ec != std::errc{} || next == p || v > 255) return false;
  p = next;
  out = v;
  return true;
}

}  // namespace

std::optional<Ipv4Addr> Ipv4Addr::parse(std::string_view s) {
  const char* p = s.data();
  const char* end = s.data() + s.size();
  std::uint32_t oct[4];
  for (int i = 0; i < 4; ++i) {
    if (!parse_octet(p, end, oct[i])) return std::nullopt;
    if (i < 3) {
      if (p == end || *p != '.') return std::nullopt;
      ++p;
    }
  }
  if (p != end) return std::nullopt;
  return Ipv4Addr{(oct[0] << 24) | (oct[1] << 16) | (oct[2] << 8) | oct[3]};
}

void Ipv4Addr::append_to(std::string& out) const {
  // Digits by hand into a buffer sized for the longest address, then one
  // append: GCC cannot bound std::to_chars into a shared buffer and
  // reports -Wstringop-overflow in Release builds, and an append per octet
  // slows every log record that carries an address.
  char text[15];
  char* p = text;
  for (int shift = 24; shift >= 0; shift -= 8) {
    const unsigned octet = (bits_ >> shift) & 0xffu;
    if (octet >= 100) *p++ = static_cast<char>('0' + octet / 100);
    if (octet >= 10) *p++ = static_cast<char>('0' + octet / 10 % 10);
    *p++ = static_cast<char>('0' + octet % 10);
    if (shift > 0) *p++ = '.';
  }
  out.append(text, p);
}

std::string Ipv4Addr::to_string() const { return core::text_of(*this); }

Prefix::Prefix(Ipv4Addr addr, std::uint8_t length)
    : addr_{addr.bits() & mask_for(length)}, len_{length} {}

std::optional<Prefix> Prefix::parse(std::string_view s) {
  const auto slash = s.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto addr = Ipv4Addr::parse(s.substr(0, slash));
  if (!addr) return std::nullopt;
  const std::string_view len_str = s.substr(slash + 1);
  unsigned len = 0;
  const auto [next, ec] =
      std::from_chars(len_str.data(), len_str.data() + len_str.size(), len);
  if (ec != std::errc{} || next != len_str.data() + len_str.size() || len > 32) {
    return std::nullopt;
  }
  return Prefix{*addr, static_cast<std::uint8_t>(len)};
}

Ipv4Addr Prefix::netmask() const { return Ipv4Addr{mask_for(len_)}; }

bool Prefix::contains(Ipv4Addr a) const {
  return (a.bits() & mask_for(len_)) == addr_.bits();
}

bool Prefix::contains(const Prefix& other) const {
  return other.len_ >= len_ && contains(other.addr_);
}

bool Prefix::overlaps(const Prefix& other) const {
  return contains(other) || other.contains(*this);
}

std::pair<Prefix, Prefix> Prefix::split() const {
  const auto child_len = static_cast<std::uint8_t>(len_ + 1);
  const Prefix lo{addr_, child_len};
  const Prefix hi{Ipv4Addr{addr_.bits() | (1u << (32 - child_len))}, child_len};
  return {lo, hi};
}

Ipv4Addr Prefix::address_at(std::uint32_t n) const {
  return Ipv4Addr{addr_.bits() + n};
}

void Prefix::append_to(std::string& out) const {
  addr_.append_to(out);
  out += '/';
  core::append_decimal(out, len_);
}

std::string Prefix::to_string() const { return core::text_of(*this); }

}  // namespace bgpsdn::net
