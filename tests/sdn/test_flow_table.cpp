// Flow table semantics: priority, specificity, wildcards, statistics.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>

#include "core/random.hpp"
#include "sdn/flow.hpp"

namespace bgpsdn::sdn {
namespace {

/// The flow table's selection rule as a full linear scan over entries():
/// highest priority, then longest dst prefix, then the earliest-inserted
/// entry. FlowTable::lookup() is indexed; this is its oracle.
const FlowEntry* lookup_linear(const FlowTable& t, core::PortId ingress,
                               const net::Packet& p) {
  const FlowEntry* best = nullptr;
  for (const auto& e : t.entries()) {
    if (!e.match.matches(ingress, p)) continue;
    if (best == nullptr || e.priority > best->priority ||
        (e.priority == best->priority &&
         e.match.dst.length() > best->match.dst.length())) {
      best = &e;
    }
  }
  return best;
}

net::Packet probe_to(const char* dst) {
  net::Packet p;
  p.dst = *net::Ipv4Addr::parse(dst);
  p.proto = net::Protocol::kProbe;
  return p;
}

FlowEntry entry(const char* dst, std::uint16_t prio, std::uint32_t out_port) {
  FlowEntry e;
  e.match.dst = *net::Prefix::parse(dst);
  e.priority = prio;
  e.action = FlowAction::output(core::PortId{out_port});
  return e;
}

TEST(FlowTable, HighestPriorityWins) {
  FlowTable t;
  t.add(entry("0.0.0.0/0", 1, 1));
  t.add(entry("0.0.0.0/0", 10, 2));
  const auto* hit = t.lookup(core::PortId{0}, probe_to("10.0.0.1"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port.value(), 2u);
}

TEST(FlowTable, LongerPrefixBreaksPriorityTie) {
  FlowTable t;
  t.add(entry("10.0.0.0/8", 5, 1));
  t.add(entry("10.1.0.0/16", 5, 2));
  EXPECT_EQ(t.lookup(core::PortId{0}, probe_to("10.1.0.1"))->action.port.value(),
            2u);
  EXPECT_EQ(t.lookup(core::PortId{0}, probe_to("10.2.0.1"))->action.port.value(),
            1u);
}

TEST(FlowTable, InPortMatch) {
  FlowTable t;
  FlowEntry e = entry("0.0.0.0/0", 5, 7);
  e.match.in_port = core::PortId{3};
  t.add(e);
  EXPECT_EQ(t.lookup(core::PortId{0}, probe_to("10.0.0.1")), nullptr);
  EXPECT_NE(t.lookup(core::PortId{3}, probe_to("10.0.0.1")), nullptr);
}

TEST(FlowTable, ProtocolMatch) {
  FlowTable t;
  FlowEntry e = entry("0.0.0.0/0", 5, 7);
  e.match.proto = net::Protocol::kBgp;
  t.add(e);
  EXPECT_EQ(t.lookup(core::PortId{0}, probe_to("10.0.0.1")), nullptr);
  net::Packet bgp = probe_to("10.0.0.1");
  bgp.proto = net::Protocol::kBgp;
  EXPECT_NE(t.lookup(core::PortId{0}, bgp), nullptr);
}

TEST(FlowTable, AddReplacesSameMatchAndPriority) {
  FlowTable t;
  t.add(entry("10.0.0.0/8", 5, 1));
  t.add(entry("10.0.0.0/8", 5, 9));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(core::PortId{0}, probe_to("10.0.0.1"))->action.port.value(),
            9u);
}

TEST(FlowTable, ReplacePreservesCounters) {
  FlowTable t;
  t.add(entry("10.0.0.0/8", 5, 1));
  t.lookup(core::PortId{0}, probe_to("10.0.0.1"));
  t.add(entry("10.0.0.0/8", 5, 2));
  EXPECT_EQ(t.entries()[0].packets, 1u);
}

TEST(FlowTable, SameMatchDifferentPriorityCoexist) {
  FlowTable t;
  t.add(entry("10.0.0.0/8", 5, 1));
  t.add(entry("10.0.0.0/8", 6, 2));
  EXPECT_EQ(t.size(), 2u);
}

TEST(FlowTable, RemoveByMatchAndPriority) {
  FlowTable t;
  t.add(entry("10.0.0.0/8", 5, 1));
  t.add(entry("10.0.0.0/8", 6, 2));
  FlowMatch m;
  m.dst = *net::Prefix::parse("10.0.0.0/8");
  EXPECT_EQ(t.remove(m, 5), 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.remove(m, 5), 0u);
}

TEST(FlowTable, RemoveByDst) {
  FlowTable t;
  t.add(entry("10.0.0.0/8", 5, 1));
  t.add(entry("10.0.0.0/8", 6, 2));
  t.add(entry("11.0.0.0/8", 5, 3));
  EXPECT_EQ(t.remove_by_dst(*net::Prefix::parse("10.0.0.0/8")), 2u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlowTable, CountersAccumulate) {
  FlowTable t;
  t.add(entry("10.0.0.0/8", 5, 1));
  t.lookup(core::PortId{0}, probe_to("10.0.0.1"));
  t.lookup(core::PortId{0}, probe_to("10.0.0.2"));
  t.lookup(core::PortId{0}, probe_to("10.0.0.3"), /*account=*/false);
  EXPECT_EQ(t.entries()[0].packets, 2u);
  EXPECT_GT(t.entries()[0].bytes, 0u);
}

TEST(FlowTable, MissReturnsNull) {
  FlowTable t;
  t.add(entry("10.0.0.0/8", 5, 1));
  EXPECT_EQ(t.lookup(core::PortId{0}, probe_to("11.0.0.1")), nullptr);
}

TEST(FlowTable, InsertionOrderBreaksFullTie) {
  FlowTable t;
  // Same priority, same prefix length, both match: the first-inserted entry
  // must win (distinct in_port wildcarding keeps them separate entries).
  FlowEntry first = entry("10.0.0.0/8", 5, 1);
  FlowEntry second = entry("10.0.0.0/8", 5, 2);
  second.match.proto = net::Protocol::kProbe;
  t.add(first);
  t.add(second);
  EXPECT_EQ(t.lookup(core::PortId{0}, probe_to("10.0.0.1"))->action.port.value(),
            1u);
}

TEST(FlowTable, PriorityBeatsLongerPrefix) {
  FlowTable t;
  // A more specific match must NOT shadow a higher-priority coarse rule —
  // the relay-plumbing band depends on this.
  t.add(entry("10.1.2.0/24", kDataRulePriority, 1));
  t.add(entry("10.0.0.0/8", kRelayRulePriority, 2));
  EXPECT_EQ(t.lookup(core::PortId{0}, probe_to("10.1.2.3"))->action.port.value(),
            2u);
}

TEST(FlowTable, RemoveBelowPriorityKeepsIndexConsistent) {
  FlowTable t;
  t.add(entry("10.1.0.0/16", kDataRulePriority, 1));
  t.add(entry("10.2.0.0/16", kDataRulePriority, 2));
  t.add(entry("10.0.0.0/8", kRelayRulePriority, 3));
  EXPECT_EQ(t.remove_below_priority(kRelayRulePriority), 2u);
  // Lookups after the index rebuild still resolve through the survivor.
  EXPECT_EQ(t.lookup(core::PortId{0}, probe_to("10.1.0.1"))->action.port.value(),
            3u);
  EXPECT_EQ(t.lookup(core::PortId{0}, probe_to("10.2.0.1"))->action.port.value(),
            3u);
}

TEST(FlowTable, ClearResetsIndex) {
  FlowTable t;
  t.add(entry("10.0.0.0/8", 5, 1));
  t.clear();
  EXPECT_EQ(t.lookup(core::PortId{0}, probe_to("10.0.0.1")), nullptr);
  t.add(entry("10.0.0.0/8", 5, 2));
  EXPECT_EQ(t.lookup(core::PortId{0}, probe_to("10.0.0.1"))->action.port.value(),
            2u);
}

// The indexed lookup must agree with the linear scan on every probe, across
// mixed prefix lengths, priorities, wildcards, and full ties: a fixed table
// first, then seeded random ones.
TEST(FlowTable, IndexedLookupMatchesLinearReference) {
  FlowTable t;
  t.add(entry("0.0.0.0/0", 1, 1));
  t.add(entry("10.0.0.0/8", kDataRulePriority, 2));
  t.add(entry("10.1.0.0/16", kDataRulePriority, 3));
  t.add(entry("10.1.2.0/24", kDataRulePriority, 4));
  t.add(entry("10.1.2.0/24", kRelayRulePriority, 5));
  t.add(entry("10.1.2.128/25", kDataRulePriority, 6));
  FlowEntry ported = entry("10.1.0.0/16", kDataRulePriority, 7);
  ported.match.in_port = core::PortId{9};
  t.add(ported);
  FlowEntry tied = entry("10.0.0.0/8", kDataRulePriority, 8);
  tied.match.proto = net::Protocol::kProbe;
  t.add(tied);

  const char* probes[] = {"10.1.2.200", "10.1.2.3",  "10.1.9.9",
                          "10.200.0.1", "192.0.2.1", "10.1.2.129"};
  for (const char* dst : probes) {
    for (std::uint32_t port : {0u, 9u}) {
      const auto* indexed =
          t.lookup(core::PortId{port}, probe_to(dst), /*account=*/false);
      const auto* linear = lookup_linear(t, core::PortId{port}, probe_to(dst));
      EXPECT_EQ(indexed, linear) << "dst=" << dst << " in_port=" << port;
    }
  }

  // Random tables over 10.0.0.0/14, so prefixes of every length overlap.
  // Few priorities, ports and protocols make full ties (same priority and
  // length, different wildcards) common; removals rebuild the index.
  const int lengths[] = {0, 8, 14, 16, 20, 23, 24, 25, 30, 32};
  const std::uint16_t priorities[] = {1, kDataRulePriority, kRelayRulePriority};
  const net::Protocol protos[] = {net::Protocol::kProbe, net::Protocol::kData};
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    core::Rng rng{seed};
    const auto random_addr = [&rng] {
      return net::Ipv4Addr{(10u << 24) |
                           static_cast<std::uint32_t>(rng.uniform_int(0, 0x3ffff))};
    };
    FlowTable table;
    const auto entries = rng.uniform_int(1, 80);
    for (std::int64_t i = 0; i < entries; ++i) {
      FlowEntry e;
      const int len = lengths[rng.uniform_int(0, std::size(lengths) - 1)];
      e.match.dst = net::Prefix{random_addr(), static_cast<std::uint8_t>(len)};
      e.priority = priorities[rng.uniform_int(0, std::size(priorities) - 1)];
      if (rng.chance(0.3)) {
        e.match.in_port = core::PortId{static_cast<std::uint32_t>(rng.uniform_int(0, 2))};
      }
      if (rng.chance(0.3)) {
        e.match.proto = protos[rng.uniform_int(0, std::size(protos) - 1)];
      }
      e.action = FlowAction::output(core::PortId{static_cast<std::uint32_t>(i)});
      table.add(e);
      if (rng.chance(0.05)) table.remove_by_dst(e.match.dst);
    }
    for (int probe = 0; probe < 200; ++probe) {
      net::Packet p;
      p.dst = random_addr();
      p.proto = protos[rng.uniform_int(0, std::size(protos) - 1)];
      const core::PortId port{static_cast<std::uint32_t>(rng.uniform_int(0, 2))};
      EXPECT_EQ(table.lookup(port, p, /*account=*/false),
                lookup_linear(table, port, p))
          << "seed " << seed << " dst=" << p.dst.to_string()
          << " in_port=" << port.value();
    }
  }
}

TEST(FlowAction, Constructors) {
  EXPECT_EQ(FlowAction::drop().type, ActionType::kDrop);
  EXPECT_EQ(FlowAction::to_controller().type, ActionType::kToController);
  EXPECT_EQ(FlowAction::output(core::PortId{4}).port.value(), 4u);
  EXPECT_EQ(FlowAction::output(core::PortId{4}).to_string(), "output:4");
  EXPECT_EQ(FlowAction::drop().to_string(), "drop");
}

TEST(FlowEntry, ToStringIncludesEverything) {
  const auto e = entry("10.0.0.0/8", 5, 1);
  const auto s = e.to_string();
  EXPECT_NE(s.find("10.0.0.0/8"), std::string::npos);
  EXPECT_NE(s.find("prio=5"), std::string::npos);
  EXPECT_NE(s.find("output:1"), std::string::npos);
}

}  // namespace
}  // namespace bgpsdn::sdn
