#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/random.hpp"
#include "net/ip.hpp"

namespace bgpsdn::net {
namespace {

TEST(Ipv4Addr, ParseValid) {
  const auto a = Ipv4Addr::parse("192.168.1.42");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->bits(), 0xc0a8012au);
  EXPECT_EQ(a->to_string(), "192.168.1.42");
  EXPECT_EQ(Ipv4Addr::parse("0.0.0.0")->bits(), 0u);
  EXPECT_EQ(Ipv4Addr::parse("255.255.255.255")->bits(), 0xffffffffu);
}

TEST(Ipv4Addr, ParseInvalid) {
  EXPECT_FALSE(Ipv4Addr::parse("").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("256.1.1.1").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.x").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1..3.4").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4 ").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("-1.2.3.4").has_value());
}

TEST(Ipv4Addr, OctetConstructorAndOrdering) {
  const Ipv4Addr a{10, 0, 0, 1};
  const Ipv4Addr b{10, 0, 0, 2};
  EXPECT_LT(a, b);
  EXPECT_EQ(a.to_string(), "10.0.0.1");
  EXPECT_TRUE(Ipv4Addr{}.is_unspecified());
  EXPECT_FALSE(a.is_unspecified());
}

TEST(Prefix, CanonicalizesHostBits) {
  const Prefix p{Ipv4Addr{10, 1, 2, 3}, 16};
  EXPECT_EQ(p.network().to_string(), "10.1.0.0");
  EXPECT_EQ(p.length(), 16);
  EXPECT_EQ(p.to_string(), "10.1.0.0/16");
}

TEST(Prefix, ParseValid) {
  const auto p = Prefix::parse("10.0.0.0/8");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 8);
  EXPECT_EQ(Prefix::parse("1.2.3.4/32")->network().to_string(), "1.2.3.4");
  EXPECT_EQ(Prefix::parse("0.0.0.0/0")->length(), 0);
  // Host bits are masked on parse.
  EXPECT_EQ(Prefix::parse("10.1.2.3/16")->to_string(), "10.1.0.0/16");
}

TEST(Prefix, ParseInvalid) {
  EXPECT_FALSE(Prefix::parse("10.0.0.0").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/x").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0/8").has_value());
  EXPECT_FALSE(Prefix::parse("/8").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/8/9").has_value());
}

TEST(Prefix, ContainsAddress) {
  const auto p = *Prefix::parse("10.1.0.0/16");
  EXPECT_TRUE(p.contains(*Ipv4Addr::parse("10.1.0.1")));
  EXPECT_TRUE(p.contains(*Ipv4Addr::parse("10.1.255.255")));
  EXPECT_FALSE(p.contains(*Ipv4Addr::parse("10.2.0.0")));
  const auto all = *Prefix::parse("0.0.0.0/0");
  EXPECT_TRUE(all.contains(*Ipv4Addr::parse("255.1.2.3")));
}

TEST(Prefix, ContainsPrefix) {
  const auto p16 = *Prefix::parse("10.1.0.0/16");
  const auto p24 = *Prefix::parse("10.1.5.0/24");
  EXPECT_TRUE(p16.contains(p24));
  EXPECT_FALSE(p24.contains(p16));
  EXPECT_TRUE(p16.contains(p16));
  EXPECT_FALSE(p16.contains(*Prefix::parse("10.2.0.0/24")));
}

TEST(Prefix, Overlaps) {
  const auto a = *Prefix::parse("10.0.0.0/8");
  const auto b = *Prefix::parse("10.5.0.0/16");
  const auto c = *Prefix::parse("11.0.0.0/8");
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
}

TEST(Prefix, Netmask) {
  EXPECT_EQ(Prefix::parse("10.0.0.0/8")->netmask().to_string(), "255.0.0.0");
  EXPECT_EQ(Prefix::parse("10.0.0.0/30")->netmask().to_string(),
            "255.255.255.252");
  EXPECT_EQ(Prefix::parse("0.0.0.0/0")->netmask().to_string(), "0.0.0.0");
  EXPECT_EQ(Prefix::parse("1.1.1.1/32")->netmask().to_string(),
            "255.255.255.255");
}

TEST(Prefix, Split) {
  const auto p = *Prefix::parse("10.0.0.0/8");
  const auto [lo, hi] = p.split();
  EXPECT_EQ(lo.to_string(), "10.0.0.0/9");
  EXPECT_EQ(hi.to_string(), "10.128.0.0/9");
  EXPECT_TRUE(p.contains(lo));
  EXPECT_TRUE(p.contains(hi));
  EXPECT_FALSE(lo.overlaps(hi));
}

TEST(Prefix, AddressAt) {
  const auto p = *Prefix::parse("10.1.0.0/16");
  EXPECT_EQ(p.address_at(0).to_string(), "10.1.0.0");
  EXPECT_EQ(p.address_at(1).to_string(), "10.1.0.1");
  EXPECT_EQ(p.address_at(256).to_string(), "10.1.1.0");
}

TEST(Prefix, OrderingAndHash) {
  const auto a = *Prefix::parse("10.0.0.0/8");
  const auto b = *Prefix::parse("10.0.0.0/16");
  EXPECT_NE(a, b);
  EXPECT_NE(std::hash<Prefix>{}(a), std::hash<Prefix>{}(b));
}

/// The reference text of an address (and prefix length), printed the way
/// the formatter used to: one snprintf per address.
std::string oracle_text(std::uint32_t bits, int len = -1) {
  char buf[24];
  if (len < 0) {
    std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (bits >> 24) & 0xffu,
                  (bits >> 16) & 0xffu, (bits >> 8) & 0xffu, bits & 0xffu);
  } else {
    std::snprintf(buf, sizeof buf, "%u.%u.%u.%u/%u", (bits >> 24) & 0xffu,
                  (bits >> 16) & 0xffu, (bits >> 8) & 0xffu, bits & 0xffu,
                  static_cast<unsigned>(len));
  }
  return buf;
}

TEST(AddressText, MatchesSnprintfOracle) {
  // The extremes, then seeded addresses and lengths (octet values drawn
  // from the whole 0..255 range, so every digit count appears).
  EXPECT_EQ(Prefix::default_route().to_string(), "0.0.0.0/0");
  EXPECT_EQ(Prefix(Ipv4Addr{0xffffffffu}, 32).to_string(), "255.255.255.255/32");
  EXPECT_EQ(Ipv4Addr{}.to_string(), oracle_text(0));
  EXPECT_EQ(Ipv4Addr{0xffffffffu}.to_string(), oracle_text(0xffffffffu));
  core::Rng rng{2024};
  std::string appended = "x";
  std::string expected = "x";
  for (int i = 0; i < 5000; ++i) {
    const auto bits = static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL));
    const auto len = static_cast<std::uint8_t>(rng.uniform_int(0, 32));
    const Ipv4Addr addr{bits};
    const Prefix prefix{addr, len};
    ASSERT_EQ(addr.to_string(), oracle_text(bits)) << bits;
    ASSERT_EQ(prefix.to_string(),
              oracle_text(prefix.network().bits(), len))
        << bits << "/" << int{len};
    // append_to extends the buffer it is given, never replaces it.
    addr.append_to(appended);
    prefix.append_to(appended);
    expected += oracle_text(bits) + oracle_text(prefix.network().bits(), len);
  }
  EXPECT_EQ(appended, expected);
}

}  // namespace
}  // namespace bgpsdn::net
