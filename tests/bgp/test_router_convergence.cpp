// Integration tests of BGP dynamics: session establishment, propagation,
// best-path selection, withdrawal path hunting, link failure fail-over.
#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace bgpsdn {
namespace {

using testing::candidate_count;
using testing::MiniTopo;

TEST(RouterConvergence, TwoRoutersEstablishAndExchange) {
  MiniTopo topo;
  auto& a = topo.add_router(1);
  auto& b = topo.add_router(2);
  topo.peer(a, b);
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  a.originate(pfx);
  topo.start();
  topo.run_for(core::Duration::seconds(5));

  ASSERT_EQ(a.sessions().size(), 1u);
  EXPECT_TRUE(a.sessions()[0]->established());
  EXPECT_TRUE(b.sessions()[0]->established());

  const bgp::Route* route = b.loc_rib().find(pfx);
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->attributes->as_path.to_string(), "1");
  EXPECT_EQ(route->attributes->next_hop.is_unspecified(), false);

  // A's own route is local.
  const bgp::Route* own = a.loc_rib().find(pfx);
  ASSERT_NE(own, nullptr);
  EXPECT_TRUE(own->is_local());
}

TEST(RouterConvergence, LinePropagatesWithAsPathGrowth) {
  MiniTopo topo;
  auto& a = topo.add_router(1);
  auto& b = topo.add_router(2);
  auto& c = topo.add_router(3);
  topo.peer(a, b);
  topo.peer(b, c);
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  a.originate(pfx);
  topo.start();
  topo.run_for(core::Duration::seconds(5));

  const bgp::Route* at_c = c.loc_rib().find(pfx);
  ASSERT_NE(at_c, nullptr);
  EXPECT_EQ(at_c->attributes->as_path.to_string(), "2 1");
}

TEST(RouterConvergence, ShortestPathWinsInTriangle) {
  MiniTopo topo;
  auto& a = topo.add_router(1);
  auto& b = topo.add_router(2);
  auto& c = topo.add_router(3);
  topo.peer(a, b);
  topo.peer(b, c);
  topo.peer(a, c);
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  a.originate(pfx);
  topo.start();
  topo.run_for(core::Duration::seconds(5));

  // C hears [1] direct and [2 1] via B; direct must win.
  const bgp::Route* at_c = c.loc_rib().find(pfx);
  ASSERT_NE(at_c, nullptr);
  EXPECT_EQ(at_c->attributes->as_path.to_string(), "1");
  // And the alternative is retained in Adj-RIB-In.
  EXPECT_EQ(candidate_count(c, pfx), 2u);
}

TEST(RouterConvergence, WithdrawalRemovesEverywhere) {
  MiniTopo topo;
  auto& a = topo.add_router(1);
  auto& b = topo.add_router(2);
  auto& c = topo.add_router(3);
  topo.peer(a, b);
  topo.peer(b, c);
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  a.originate(pfx);
  topo.start();
  topo.run_for(core::Duration::seconds(5));
  ASSERT_NE(c.loc_rib().find(pfx), nullptr);

  a.withdraw_origin(pfx);
  topo.run_for(core::Duration::seconds(30));
  EXPECT_EQ(a.loc_rib().find(pfx), nullptr);
  EXPECT_EQ(b.loc_rib().find(pfx), nullptr);
  EXPECT_EQ(c.loc_rib().find(pfx), nullptr);
  EXPECT_EQ(candidate_count(c, pfx), 0u);
}

TEST(RouterConvergence, CliqueWithdrawalConvergesAndHunts) {
  MiniTopo topo;
  constexpr int kN = 6;
  for (int i = 0; i < kN; ++i) topo.add_router(static_cast<std::uint32_t>(i + 1));
  auto& routers = topo.routers();
  for (int i = 0; i < kN; ++i) {
    for (int j = i + 1; j < kN; ++j) topo.peer(*routers[i], *routers[j]);
  }
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  routers[0]->originate(pfx);
  topo.start();
  topo.run_for(core::Duration::seconds(10));
  for (int i = 1; i < kN; ++i) {
    ASSERT_NE(routers[i]->loc_rib().find(pfx), nullptr) << "router " << i;
    EXPECT_EQ(routers[i]->loc_rib().find(pfx)->attributes->as_path.to_string(), "1");
  }

  const auto updates_before = routers[2]->counters().updates_rx;
  routers[0]->withdraw_origin(pfx);
  topo.run_for(core::Duration::seconds(60));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(routers[i]->loc_rib().find(pfx), nullptr) << "router " << i;
  }
  // Path hunting: the withdrawal must have triggered extra exploration
  // updates, not just one withdrawal per peer.
  EXPECT_GT(routers[2]->counters().updates_rx, updates_before + 4);
}

TEST(RouterConvergence, LinkFailureTriggersFailover) {
  MiniTopo topo;
  auto& a = topo.add_router(1);
  auto& b = topo.add_router(2);
  auto& c = topo.add_router(3);
  topo.peer(a, b);   // link 0
  topo.peer(b, c);   // link 1
  topo.peer(a, c);   // link 2
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  a.originate(pfx);
  topo.start();
  topo.run_for(core::Duration::seconds(5));
  ASSERT_EQ(c.loc_rib().find(pfx)->attributes->as_path.to_string(), "1");

  // Kill the direct A-C link; C must fail over to the path via B.
  topo.net().set_link_up(core::LinkId{2}, false);
  topo.run_for(core::Duration::seconds(30));
  const bgp::Route* at_c = c.loc_rib().find(pfx);
  ASSERT_NE(at_c, nullptr);
  EXPECT_EQ(at_c->attributes->as_path.to_string(), "2 1");

  // Restore; C should return to the direct path.
  topo.net().set_link_up(core::LinkId{2}, true);
  topo.run_for(core::Duration::seconds(30));
  at_c = c.loc_rib().find(pfx);
  ASSERT_NE(at_c, nullptr);
  EXPECT_EQ(at_c->attributes->as_path.to_string(), "1");
}

TEST(RouterConvergence, GaoRexfordValleyFree) {
  MiniTopo topo;
  // p1 and p2 are providers of cust; p1 and p2 are peers of each other.
  auto& p1 = topo.add_router(1);
  auto& p2 = topo.add_router(2);
  auto& cust = topo.add_router(3);
  topo.peer(p1, p2, {core::Duration::millis(2), 0, 0.0},
            bgp::PolicyMode::kGaoRexford, bgp::Relationship::kPeer);
  // From p1's view, cust is a customer.
  topo.peer(p1, cust, {core::Duration::millis(2), 0, 0.0},
            bgp::PolicyMode::kGaoRexford, bgp::Relationship::kCustomer);
  topo.peer(p2, cust, {core::Duration::millis(2), 0, 0.0},
            bgp::PolicyMode::kGaoRexford, bgp::Relationship::kCustomer);

  const auto pfx1 = *net::Prefix::parse("10.0.0.0/16");
  p1.originate(pfx1);
  topo.start();
  topo.run_for(core::Duration::seconds(10));

  // cust hears p1's prefix from its provider p1 (and possibly via p2).
  ASSERT_NE(cust.loc_rib().find(pfx1), nullptr);
  // p2 hears it over the peer link. But p2 must NOT export a peer-learned
  // route to its peer... (no third peer here) — key check: cust's route via
  // p2 exists because providers export everything to customers.
  // Now the valley check: originate at cust; p1 must not export the
  // customer route... wait, customer routes go everywhere. The real valley:
  // a route p2 learned from peer p1 must not be re-exported to peer p1 or
  // other peers, but may go to customer cust.
  // Direct from p1, and via p2 (peer->customer OK).
  EXPECT_EQ(candidate_count(cust, pfx1), 2u);

  // Customer routes are preferred over peer routes at p2: p2's best for
  // pfx1 is via peer p1 (only option), but if cust announced it too, the
  // customer route would win.
  const auto pfx3 = *net::Prefix::parse("10.2.0.0/16");
  cust.originate(pfx3);
  topo.run_for(core::Duration::seconds(10));
  const bgp::Route* at_p1 = p1.loc_rib().find(pfx3);
  ASSERT_NE(at_p1, nullptr);
  // p1 hears pfx3 from cust (customer, LP 130) and from p2 (peer, LP 100)?
  // p2 must not export a customer route to a peer? Customer routes ARE
  // exported to peers (that is how the Internet works). So p1 sees both and
  // prefers the customer path.
  EXPECT_EQ(at_p1->attributes->as_path.to_string(), "3");
  EXPECT_EQ(at_p1->attributes->local_pref.value_or(0), 130u);
}

}  // namespace
}  // namespace bgpsdn
