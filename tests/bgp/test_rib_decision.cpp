// Unit tests of the RIB structures and the decision process ladder.
#include <gtest/gtest.h>

#include "bgp/decision.hpp"
#include "bgp/rib.hpp"

namespace bgpsdn::bgp {
namespace {

/// The attribute store every route and RIB of these tests interns into.
const AttrRegistryRef& attr_store() {
  static const AttrRegistryRef kStore = std::make_shared<AttrRegistry>();
  return kStore;
}

Route make_route(const char* prefix, std::uint32_t session,
                 std::vector<std::uint32_t> path, std::uint32_t local_pref = 100) {
  Route r;
  r.prefix = *net::Prefix::parse(prefix);
  std::vector<core::AsNumber> hops;
  for (const auto as : path) hops.emplace_back(as);
  PathAttributes attrs;
  attrs.as_path = AsPath{std::move(hops)};
  attrs.local_pref = local_pref;
  attrs.next_hop = net::Ipv4Addr{172, 16, 0, 1};
  r.attributes = attr_store()->intern(std::move(attrs));
  r.learned_from = core::SessionId{session};
  r.peer_bgp_id = net::Ipv4Addr{10, 0, 0, session % 256 == 0 ? 1 : session};
  r.peer_address = net::Ipv4Addr{172, 16, session, 1};
  return r;
}

/// Copy-out / edit / re-intern: the canonical bundle is immutable.
template <typename Fn>
void edit_attrs(Route& r, Fn&& fn) {
  PathAttributes attrs = *r.attributes;
  fn(attrs);
  r.attributes = attr_store()->intern(std::move(attrs));
}

TEST(AdjRibIn, PutReplacesPerSession) {
  AdjRibIn rib{attr_store()};
  rib.put(make_route("10.0.0.0/16", 1, {3, 1}));
  rib.put(make_route("10.0.0.0/16", 1, {4, 1}));  // implicit withdraw
  EXPECT_EQ(rib.route_count(), 1u);
  const auto cands = rib.candidates(*net::Prefix::parse("10.0.0.0/16"));
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0]->attributes->as_path.to_string(), "4 1");
}

TEST(AdjRibIn, MultipleSessionsCoexist) {
  AdjRibIn rib{attr_store()};
  rib.put(make_route("10.0.0.0/16", 1, {1}));
  rib.put(make_route("10.0.0.0/16", 2, {2, 1}));
  rib.put(make_route("10.1.0.0/16", 1, {1}));
  EXPECT_EQ(rib.route_count(), 3u);
  EXPECT_EQ(rib.candidates(*net::Prefix::parse("10.0.0.0/16")).size(), 2u);
  EXPECT_EQ(rib.prefixes().size(), 2u);
}

TEST(AdjRibIn, EraseSpecific) {
  AdjRibIn rib{attr_store()};
  rib.put(make_route("10.0.0.0/16", 1, {1}));
  rib.put(make_route("10.0.0.0/16", 2, {2, 1}));
  EXPECT_TRUE(rib.erase(*net::Prefix::parse("10.0.0.0/16"), core::SessionId{1}));
  EXPECT_FALSE(rib.erase(*net::Prefix::parse("10.0.0.0/16"), core::SessionId{1}));
  EXPECT_EQ(rib.route_count(), 1u);
}

TEST(AdjRibIn, EraseSessionReturnsAffectedPrefixes) {
  AdjRibIn rib{attr_store()};
  rib.put(make_route("10.0.0.0/16", 1, {1}));
  rib.put(make_route("10.1.0.0/16", 1, {1}));
  rib.put(make_route("10.2.0.0/16", 2, {2}));
  const auto affected = rib.erase_session(core::SessionId{1});
  EXPECT_EQ(affected.size(), 2u);
  EXPECT_EQ(rib.route_count(), 1u);
}

TEST(AdjRibIn, FindExact) {
  AdjRibIn rib{attr_store()};
  rib.put(make_route("10.0.0.0/16", 1, {1}));
  EXPECT_NE(rib.find(*net::Prefix::parse("10.0.0.0/16"), core::SessionId{1}),
            nullptr);
  EXPECT_EQ(rib.find(*net::Prefix::parse("10.0.0.0/16"), core::SessionId{9}),
            nullptr);
  EXPECT_EQ(rib.find(*net::Prefix::parse("10.9.0.0/16"), core::SessionId{1}),
            nullptr);
}

TEST(LocRib, GenerationBumpsOnChange) {
  LocRib rib{attr_store()};
  const auto g0 = rib.generation();
  EXPECT_TRUE(rib.install(make_route("10.0.0.0/16", 1, {1})));
  EXPECT_GT(rib.generation(), g0);
  // Identical reinstall is a no-op.
  EXPECT_FALSE(rib.install(make_route("10.0.0.0/16", 1, {1})));
  // Different path is a change.
  EXPECT_TRUE(rib.install(make_route("10.0.0.0/16", 2, {2, 1})));
  EXPECT_TRUE(rib.remove(*net::Prefix::parse("10.0.0.0/16")));
  EXPECT_FALSE(rib.remove(*net::Prefix::parse("10.0.0.0/16")));
}

TEST(AdjRibOut, SuppressesDuplicateAdvertisements) {
  AdjRibOut out{attr_store()};
  PathAttributes attrs;
  attrs.as_path = AsPath{{core::AsNumber{1}}};
  const auto p = *net::Prefix::parse("10.0.0.0/16");
  EXPECT_TRUE(out.advertise(p, attr_store()->intern(attrs)));
  EXPECT_FALSE(out.advertise(p, attr_store()->intern(attrs)));  // suppressed
  attrs.as_path = AsPath{{core::AsNumber{2}, core::AsNumber{1}}};
  EXPECT_TRUE(out.advertise(p, attr_store()->intern(attrs)));  // changed attrs
  EXPECT_TRUE(out.withdraw(p));
  EXPECT_FALSE(out.withdraw(p));  // nothing left to withdraw
}

// --- decision process ladder -------------------------------------------

TEST(Decision, LocalPrefDominates) {
  auto a = make_route("10.0.0.0/16", 1, {1, 2, 3, 4}, 200);  // longer path
  auto b = make_route("10.0.0.0/16", 2, {1}, 100);
  EXPECT_LT(compare_routes(a, b), 0);
  EXPECT_EQ(decide_reason(a, b), DecisionReason::kLocalPref);
}

TEST(Decision, ShorterAsPathWins) {
  auto a = make_route("10.0.0.0/16", 1, {1});
  auto b = make_route("10.0.0.0/16", 2, {2, 1});
  EXPECT_LT(compare_routes(a, b), 0);
  EXPECT_GT(compare_routes(b, a), 0);
  EXPECT_EQ(decide_reason(a, b), DecisionReason::kAsPathLength);
}

TEST(Decision, OriginBreaksPathTie) {
  auto a = make_route("10.0.0.0/16", 1, {1});
  auto b = make_route("10.0.0.0/16", 2, {2});
  edit_attrs(a, [](PathAttributes& at) { at.origin = Origin::kIgp; });
  edit_attrs(b, [](PathAttributes& at) { at.origin = Origin::kEgp; });
  EXPECT_LT(compare_routes(a, b), 0);
  EXPECT_EQ(decide_reason(a, b), DecisionReason::kOrigin);
}

TEST(Decision, LowerMedWins) {
  auto a = make_route("10.0.0.0/16", 1, {1});
  auto b = make_route("10.0.0.0/16", 2, {2});
  edit_attrs(a, [](PathAttributes& at) { at.med = 10; });
  edit_attrs(b, [](PathAttributes& at) { at.med = 20; });
  EXPECT_LT(compare_routes(a, b), 0);
  EXPECT_EQ(decide_reason(a, b), DecisionReason::kMed);
}

TEST(Decision, MissingMedTreatedAsZero) {
  auto a = make_route("10.0.0.0/16", 1, {1});
  auto b = make_route("10.0.0.0/16", 2, {2});
  edit_attrs(b, [](PathAttributes& at) { at.med = 5; });
  EXPECT_LT(compare_routes(a, b), 0);  // absent (0) beats 5
}

TEST(Decision, OlderRouteWins) {
  auto a = make_route("10.0.0.0/16", 1, {1});
  auto b = make_route("10.0.0.0/16", 2, {2});
  a.installed_at = core::TimePoint::from_nanos(100);
  b.installed_at = core::TimePoint::from_nanos(200);
  EXPECT_LT(compare_routes(a, b), 0);
  EXPECT_EQ(decide_reason(a, b), DecisionReason::kAge);
}

TEST(Decision, BgpIdBreaksFinalTies) {
  auto a = make_route("10.0.0.0/16", 1, {1});
  auto b = make_route("10.0.0.0/16", 2, {2});
  a.installed_at = b.installed_at = core::TimePoint::from_nanos(5);
  a.peer_bgp_id = net::Ipv4Addr{10, 0, 0, 1};
  b.peer_bgp_id = net::Ipv4Addr{10, 0, 0, 2};
  EXPECT_LT(compare_routes(a, b), 0);
  EXPECT_EQ(decide_reason(a, b), DecisionReason::kBgpId);
}

TEST(Decision, PeerAddressIsLastResort) {
  auto a = make_route("10.0.0.0/16", 1, {1});
  auto b = make_route("10.0.0.0/16", 2, {2});
  a.installed_at = b.installed_at = core::TimePoint::from_nanos(5);
  a.peer_bgp_id = b.peer_bgp_id = net::Ipv4Addr{10, 0, 0, 1};
  a.peer_address = net::Ipv4Addr{172, 16, 0, 1};
  b.peer_address = net::Ipv4Addr{172, 16, 0, 5};
  EXPECT_LT(compare_routes(a, b), 0);
  EXPECT_EQ(decide_reason(a, b), DecisionReason::kPeerAddress);
}

TEST(Decision, SelectBestScansAll) {
  auto a = make_route("10.0.0.0/16", 1, {1, 2, 3});
  auto b = make_route("10.0.0.0/16", 2, {1, 2});
  auto c = make_route("10.0.0.0/16", 3, {1});
  const std::vector<const Route*> cands{&a, &b, &c};
  EXPECT_EQ(select_best(cands), &c);
  EXPECT_EQ(select_best({}), nullptr);
}

TEST(Decision, ReasonStringsAreStable) {
  EXPECT_STREQ(to_string(DecisionReason::kLocalPref), "local-pref");
  EXPECT_STREQ(to_string(DecisionReason::kAsPathLength), "as-path-length");
  EXPECT_STREQ(to_string(DecisionReason::kTie), "tie");
}

}  // namespace
}  // namespace bgpsdn::bgp
