// Unit tests of the RIB structures and the decision process ladder.
#include <gtest/gtest.h>

#include <string>
#include <vector>

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

/// Offer `r` to `rib` as its session's candidate.
AdjRibIn::PutResult put(AdjRibIn& rib, const Route& r) {
  return rib.put(r.prefix, r.view());
}

/// Install `r` as its prefix's winner.
const PathAttributes* install(LocRib& rib, const Route& r) {
  return rib.install(r.prefix, r.view());
}

/// "<as path> id<peer bgp id> t<installed ns>" per candidate for `prefix`,
/// session-ascending.
std::vector<std::string> candidates(const AdjRibIn& rib, const char* prefix) {
  std::vector<std::string> out;
  rib.for_each_candidate(*net::Prefix::parse(prefix), [&](const RouteView& v) {
    out.push_back(v.attributes->get().as_path.to_string() + " id" +
                  v.peer_bgp_id.to_string() + " t" +
                  std::to_string(v.installed_at.nanos_since_origin()));
  });
  return out;
}

TEST(AdjRibIn, PutReplacesPerSession) {
  using Put = AdjRibIn::PutResult;
  AdjRibIn rib{attr_store()};
  auto first = make_route("10.0.0.0/16", 1, {3, 1});
  first.installed_at = core::TimePoint::from_nanos(5);
  EXPECT_EQ(put(rib, first), Put::kAdded);
  // The stored bundle offered again is no change and keeps its age; with a
  // new peer identity it is one, and still keeps its age.
  auto again = first;
  again.installed_at = core::TimePoint::from_nanos(9);
  EXPECT_EQ(put(rib, again), Put::kUnchanged);
  again.peer_bgp_id = net::Ipv4Addr{10, 0, 0, 77};
  EXPECT_EQ(put(rib, again), Put::kNewIdentity);
  EXPECT_EQ(candidates(rib, "10.0.0.0/16"),
            std::vector<std::string>{"3 1 id10.0.0.77 t5"});
  auto next = make_route("10.0.0.0/16", 1, {4, 1});  // implicit withdraw
  next.installed_at = core::TimePoint::from_nanos(9);
  EXPECT_EQ(put(rib, next), Put::kReplaced);
  EXPECT_EQ(rib.route_count(), 1u);
  EXPECT_EQ(candidates(rib, "10.0.0.0/16"),
            std::vector<std::string>{"4 1 id10.0.0.1 t9"});
}

TEST(AdjRibIn, MultipleSessionsCoexist) {
  AdjRibIn rib{attr_store()};
  put(rib, make_route("10.0.0.0/16", 1, {1}));
  put(rib, make_route("10.0.0.0/16", 2, {2, 1}));
  put(rib, make_route("10.1.0.0/16", 1, {1}));
  EXPECT_EQ(rib.route_count(), 3u);
  EXPECT_EQ(candidates(rib, "10.0.0.0/16").size(), 2u);
  EXPECT_EQ(rib.prefixes().size(), 2u);
}

TEST(AdjRibIn, EraseSpecific) {
  AdjRibIn rib{attr_store()};
  put(rib, make_route("10.0.0.0/16", 1, {1}));
  put(rib, make_route("10.0.0.0/16", 2, {2, 1}));
  EXPECT_TRUE(rib.erase(*net::Prefix::parse("10.0.0.0/16"), core::SessionId{1}));
  EXPECT_FALSE(rib.erase(*net::Prefix::parse("10.0.0.0/16"), core::SessionId{1}));
  EXPECT_EQ(rib.route_count(), 1u);
}

TEST(AdjRibIn, EraseSessionReturnsAffectedPrefixes) {
  AdjRibIn rib{attr_store()};
  put(rib, make_route("10.0.0.0/16", 1, {1}));
  put(rib, make_route("10.1.0.0/16", 1, {1}));
  put(rib, make_route("10.2.0.0/16", 2, {2}));
  const auto affected = rib.erase_session(core::SessionId{1});
  EXPECT_EQ(affected.size(), 2u);
  EXPECT_EQ(rib.route_count(), 1u);
}

TEST(LocRib, GenerationBumpsOnChange) {
  LocRib rib{attr_store()};
  const auto g0 = rib.generation();
  const Route first = make_route("10.0.0.0/16", 1, {1});
  // A change returns the installed canonical bundle.
  EXPECT_EQ(install(rib, first), &first.attributes.get());
  EXPECT_GT(rib.generation(), g0);
  // Identical reinstall is a no-op.
  const auto g1 = rib.generation();
  EXPECT_EQ(install(rib, make_route("10.0.0.0/16", 1, {1})), nullptr);
  EXPECT_EQ(rib.generation(), g1);
  // Different path is a change.
  EXPECT_NE(install(rib, make_route("10.0.0.0/16", 2, {2, 1})), nullptr);
  EXPECT_TRUE(rib.remove(*net::Prefix::parse("10.0.0.0/16")));
  EXPECT_FALSE(rib.remove(*net::Prefix::parse("10.0.0.0/16")));
}

TEST(LocRib, WinnerPinsNothing) {
  // winner() reads the entry in place and keeps no reference: once the
  // entry is removed, a bundle nothing else holds is dead in the pool
  // (mem.attr_pool no longer counts it).
  const auto store = std::make_shared<AttrRegistry>();
  LocRib rib{store};
  const auto prefix = *net::Prefix::parse("10.0.0.0/16");
  {
    PathAttributes attrs;
    attrs.as_path = AsPath{{core::AsNumber{1}}};
    const AttrSetRef bundle = store->intern(std::move(attrs));
    ASSERT_NE(rib.install(prefix, {&bundle, core::SessionId{1}, {}, {}, {}}),
              nullptr);
  }
  ASSERT_EQ(store->pool_stats().live, 1u);
  ASSERT_NE(rib.winner(prefix).attrs, nullptr);
  ASSERT_TRUE(rib.remove(prefix));
  EXPECT_EQ(store->pool_stats().live, 0u);
  EXPECT_EQ(store->pool_live_bytes(), 0u);
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
  EXPECT_LT(compare_routes(a.view(), b.view()), 0);
}

TEST(Decision, ShorterAsPathWins) {
  auto a = make_route("10.0.0.0/16", 1, {1});
  auto b = make_route("10.0.0.0/16", 2, {2, 1});
  EXPECT_LT(compare_routes(a.view(), b.view()), 0);
  EXPECT_GT(compare_routes(b.view(), a.view()), 0);
}

TEST(Decision, OriginBreaksPathTie) {
  auto a = make_route("10.0.0.0/16", 1, {1});
  auto b = make_route("10.0.0.0/16", 2, {2});
  edit_attrs(a, [](PathAttributes& at) { at.origin = Origin::kIgp; });
  edit_attrs(b, [](PathAttributes& at) { at.origin = Origin::kEgp; });
  EXPECT_LT(compare_routes(a.view(), b.view()), 0);
}

TEST(Decision, LowerMedWins) {
  auto a = make_route("10.0.0.0/16", 1, {1});
  auto b = make_route("10.0.0.0/16", 2, {2});
  edit_attrs(a, [](PathAttributes& at) { at.med = 10; });
  edit_attrs(b, [](PathAttributes& at) { at.med = 20; });
  EXPECT_LT(compare_routes(a.view(), b.view()), 0);
}

TEST(Decision, MissingMedTreatedAsZero) {
  auto a = make_route("10.0.0.0/16", 1, {1});
  auto b = make_route("10.0.0.0/16", 2, {2});
  edit_attrs(b, [](PathAttributes& at) { at.med = 5; });
  EXPECT_LT(compare_routes(a.view(), b.view()), 0);  // absent (0) beats 5
}

TEST(Decision, OlderRouteWins) {
  auto a = make_route("10.0.0.0/16", 1, {1});
  auto b = make_route("10.0.0.0/16", 2, {2});
  a.installed_at = core::TimePoint::from_nanos(100);
  b.installed_at = core::TimePoint::from_nanos(200);
  EXPECT_LT(compare_routes(a.view(), b.view()), 0);
}

TEST(Decision, BgpIdBreaksFinalTies) {
  auto a = make_route("10.0.0.0/16", 1, {1});
  auto b = make_route("10.0.0.0/16", 2, {2});
  a.installed_at = b.installed_at = core::TimePoint::from_nanos(5);
  a.peer_bgp_id = net::Ipv4Addr{10, 0, 0, 1};
  b.peer_bgp_id = net::Ipv4Addr{10, 0, 0, 2};
  EXPECT_LT(compare_routes(a.view(), b.view()), 0);
}

TEST(Decision, PeerAddressIsLastResort) {
  auto a = make_route("10.0.0.0/16", 1, {1});
  auto b = make_route("10.0.0.0/16", 2, {2});
  a.installed_at = b.installed_at = core::TimePoint::from_nanos(5);
  a.peer_bgp_id = b.peer_bgp_id = net::Ipv4Addr{10, 0, 0, 1};
  a.peer_address = net::Ipv4Addr{172, 16, 0, 1};
  b.peer_address = net::Ipv4Addr{172, 16, 0, 5};
  EXPECT_LT(compare_routes(a.view(), b.view()), 0);
}

}  // namespace
}  // namespace bgpsdn::bgp
