// BgpRouter internals: periodic MRAI pacing, per-peer MRAI overrides,
// processing-delay serialization, loop rejection accounting, FIB and host
// forwarding, update grouping, and the route collector.
#include <gtest/gtest.h>

#include "bgp/collector.hpp"
#include "net/host.hpp"
#include "test_helpers.hpp"

namespace bgpsdn {
namespace {

using testing::MiniTopo;

TEST(RouterUnits, PeriodicMraiDelaysPostEstablishmentChanges) {
  MiniTopo topo;
  bgp::Timers timers = MiniTopo::quick_timers();
  timers.mrai = core::Duration::seconds(10);
  auto& a = topo.add_router(1, timers);
  auto& b = topo.add_router(2, timers);
  topo.peer(a, b);
  topo.start();
  topo.run_for(core::Duration::seconds(2));
  ASSERT_TRUE(a.sessions()[0]->established());

  // A change after establishment waits for the next advertisement tick.
  const auto t0 = topo.loop().now();
  a.originate(*net::Prefix::parse("10.50.0.0/16"));
  topo.run_for(core::Duration::seconds(4));  // less than 0.75 * mrai - 2s
  EXPECT_EQ(b.loc_rib().find(*net::Prefix::parse("10.50.0.0/16")), nullptr);
  topo.run_for(core::Duration::seconds(10));
  const bgp::Route* r = b.loc_rib().find(*net::Prefix::parse("10.50.0.0/16"));
  ASSERT_NE(r, nullptr);
  EXPECT_GE(r->installed_at - t0, core::Duration::seconds_f(5.0));
}

TEST(RouterUnits, WithdrawalsBypassMrai) {
  MiniTopo topo;
  bgp::Timers timers = MiniTopo::quick_timers();
  timers.mrai = core::Duration::seconds(30);
  auto& a = topo.add_router(1, timers);
  auto& b = topo.add_router(2, timers);
  topo.peer(a, b);
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  a.originate(pfx);  // pre-start: goes with the initial table
  topo.start();
  topo.run_for(core::Duration::seconds(2));
  ASSERT_NE(b.loc_rib().find(pfx), nullptr);

  a.withdraw_origin(pfx);
  topo.run_for(core::Duration::seconds(1));
  EXPECT_EQ(b.loc_rib().find(pfx), nullptr);  // no 30 s wait
}

TEST(RouterUnits, PerPeerMraiZeroOverride) {
  // Like a route-collector peering: changes flow immediately on this peer
  // even though the router default is long.
  MiniTopo topo;
  bgp::Timers timers = MiniTopo::quick_timers();
  timers.mrai = core::Duration::seconds(30);
  auto& a = topo.add_router(1, timers);
  auto& b = topo.add_router(2, timers);
  // Hand-wire to control PeerConfig.
  const auto link = topo.net().connect(a.id(), b.id());
  const auto& l = topo.net().link(link);
  const auto p2p = topo.alloc().next_p2p();
  bgp::PeerConfig pa;
  pa.local_address = p2p.left;
  pa.remote_address = p2p.right;
  pa.expected_peer_as = b.asn();
  pa.mrai = core::Duration::zero();
  a.add_peer(l.a.port, pa);
  bgp::PeerConfig pb;
  pb.local_address = p2p.right;
  pb.remote_address = p2p.left;
  pb.expected_peer_as = a.asn();
  b.add_peer(l.b.port, pb);

  topo.start();
  topo.run_for(core::Duration::seconds(2));
  a.originate(*net::Prefix::parse("10.50.0.0/16"));
  topo.run_for(core::Duration::seconds(1));
  EXPECT_NE(b.loc_rib().find(*net::Prefix::parse("10.50.0.0/16")), nullptr);
}

TEST(RouterUnits, ProcessingDelaySerializesUpdates) {
  MiniTopo topo;
  // Without MRAI each origination leaves a at once in its own UPDATE.
  bgp::Timers timers = MiniTopo::quick_timers();
  timers.mrai = core::Duration::zero();
  auto& a = topo.add_router(1, timers);
  auto& b = topo.add_router(2, timers);
  topo.peer(a, b);
  topo.start();
  topo.run_for(core::Duration::seconds(2));

  // The two one-route UPDATEs reach b together, and b's CPU model
  // processes them one after the other: each costs 500 us plus 50 us per
  // route, so the second install lands at least 550 us after the first.
  a.originate(*net::Prefix::parse("10.50.0.0/16"));
  a.originate(*net::Prefix::parse("10.51.0.0/16"));
  topo.run_for(core::Duration::seconds(1));
  // Copy out: compact-layout find() returns a scratch slot that the next
  // find() reuses.
  const auto* r1 = b.loc_rib().find(*net::Prefix::parse("10.50.0.0/16"));
  ASSERT_NE(r1, nullptr);
  const core::TimePoint first = r1->installed_at;
  const auto* r2 = b.loc_rib().find(*net::Prefix::parse("10.51.0.0/16"));
  ASSERT_NE(r2, nullptr);
  EXPECT_GE(r2->installed_at - first, core::Duration::micros(550));
}

TEST(RouterUnits, LoopRejectionCounted) {
  // B re-advertises A's own route back to A (no sender-side suppression,
  // as in Quagga); A must reject it and count the loop.
  MiniTopo topo;
  auto& a = topo.add_router(1);
  auto& b = topo.add_router(2);
  topo.peer(a, b);
  a.originate(*net::Prefix::parse("10.0.0.0/16"));
  topo.start();
  topo.run_for(core::Duration::seconds(5));
  EXPECT_GE(a.counters().routes_rejected_loop, 1u);
  // And the looped path is not in A's Adj-RIB-In.
  EXPECT_EQ(testing::candidate_count(a, *net::Prefix::parse("10.0.0.0/16")), 0u);
}

TEST(RouterUnits, UpdatesGroupedByAttributes) {
  // Prefixes sharing an attribute bundle travel in one UPDATE.
  MiniTopo topo;
  auto& a = topo.add_router(1);
  auto& b = topo.add_router(2);
  topo.peer(a, b);
  for (int i = 0; i < 8; ++i) {
    a.originate(net::Prefix{
        net::Ipv4Addr{(10u << 24) | (static_cast<std::uint32_t>(40 + i) << 16)},
        16});
  }
  topo.start();
  topo.run_for(core::Duration::seconds(3));
  // All 8 prefixes arrived...
  EXPECT_EQ(b.loc_rib().size(), 8u);
  // ...in very few UPDATE messages (grouping), not 8 separate ones.
  EXPECT_LE(a.counters().updates_tx, 3u);
}

TEST(RouterUnits, HostAttachInstallsFibAndForwards) {
  MiniTopo topo;
  auto& a = topo.add_router(1);
  auto& b = topo.add_router(2);
  topo.peer(a, b);
  auto& host_a = topo.net().add<net::Host>("hA", net::Ipv4Addr{10, 10, 0, 2});
  auto& host_b = topo.net().add<net::Host>("hB", net::Ipv4Addr{10, 20, 0, 2});
  const auto la = topo.net().connect(host_a.id(), a.id());
  const auto lb = topo.net().connect(host_b.id(), b.id());
  a.attach_host(topo.net().link(la).b.port, *net::Prefix::parse("10.10.0.0/16"));
  b.attach_host(topo.net().link(lb).b.port, *net::Prefix::parse("10.20.0.0/16"));
  topo.start();
  topo.run_for(core::Duration::seconds(3));

  // FIB lookups resolve both locally and remotely.
  EXPECT_TRUE(a.fib_lookup(host_a.address()).has_value());
  EXPECT_TRUE(a.fib_lookup(host_b.address()).has_value());
  EXPECT_FALSE(a.fib_lookup(net::Ipv4Addr{192, 0, 2, 1}).has_value());

  host_a.send_probe(host_b.address(), 5);
  topo.run_for(core::Duration::seconds(1));
  EXPECT_EQ(host_a.replies_received(), 1u);
  EXPECT_GT(a.counters().packets_forwarded, 0u);

  // Unroutable destinations are counted.
  host_a.send_probe(net::Ipv4Addr{192, 0, 2, 99}, 6);
  topo.run_for(core::Duration::seconds(1));
  EXPECT_GT(a.counters().packets_no_route, 0u);
}

TEST(RouterUnits, CollectorRecordsAnnouncementsAndWithdrawals) {
  MiniTopo topo;
  auto& a = topo.add_router(1);
  auto& collector = topo.net().add<bgp::RouteCollector>(
      "rc", net::Ipv4Addr{192, 0, 2, 1});
  const auto link = topo.net().connect(a.id(), collector.id());
  const auto& l = topo.net().link(link);
  const auto p2p = topo.alloc().next_p2p();
  bgp::PeerConfig pc;
  pc.local_address = p2p.left;
  pc.remote_address = p2p.right;
  pc.expected_peer_as = core::AsNumber{64512};
  pc.mrai = core::Duration::zero();
  a.add_peer(l.a.port, pc);
  collector.add_peer(l.b.port, p2p.right, p2p.left);

  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  a.originate(pfx);
  topo.start();
  topo.run_for(core::Duration::seconds(2));
  ASSERT_EQ(collector.established_count(), 1u);
  a.withdraw_origin(pfx);
  topo.run_for(core::Duration::seconds(2));

  const auto& tape = collector.observations();
  ASSERT_EQ(tape.size(), 2u);
  EXPECT_TRUE(tape[0].announce);
  EXPECT_EQ(tape[0].prefix, pfx);
  EXPECT_EQ(tape[0].peer_as.value(), 1u);
  EXPECT_EQ(tape[0].as_path.to_string(), "1");
  EXPECT_FALSE(tape[1].announce);
  EXPECT_LE(tape[0].when, tape[1].when);
  EXPECT_EQ(collector.last_activity(), tape[1].when);
  EXPECT_NE(tape[0].to_string().find("A 10.0.0.0/16"), std::string::npos);
  EXPECT_NE(tape[1].to_string().find("W 10.0.0.0/16"), std::string::npos);
}

TEST(RouterUnits, SessionRestartResendsFullTable) {
  MiniTopo topo;
  auto& a = topo.add_router(1);
  auto& b = topo.add_router(2);
  topo.peer(a, b);
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  a.originate(pfx);
  topo.start();
  topo.run_for(core::Duration::seconds(2));
  ASSERT_NE(b.loc_rib().find(pfx), nullptr);

  const auto link = topo.net().find_link(a.id(), b.id());
  topo.net().set_link_up(link, false);
  topo.run_for(core::Duration::seconds(1));
  EXPECT_EQ(b.loc_rib().find(pfx), nullptr);  // session down clears routes

  topo.net().set_link_up(link, true);
  topo.run_for(core::Duration::seconds(5));
  EXPECT_NE(b.loc_rib().find(pfx), nullptr);  // full table resent
}

}  // namespace
}  // namespace bgpsdn
