// Policy engine (Gao-Rexford valley-free export, filters, route maps) and
// AsPath semantics.
#include <gtest/gtest.h>

#include <vector>

#include "bgp/policy.hpp"
#include "core/random.hpp"

namespace bgpsdn::bgp {
namespace {

TEST(AsPath, PrependBuildsLeftToRight) {
  AsPath p;
  p = p.prepend(core::AsNumber{1});
  p = p.prepend(core::AsNumber{2});
  p = p.prepend(core::AsNumber{3});
  EXPECT_EQ(p.to_string(), "3 2 1");
  EXPECT_EQ(p.length(), 3u);
  EXPECT_EQ(p.first()->value(), 3u);
  EXPECT_EQ(p.origin_as()->value(), 1u);
}

TEST(AsPath, ContainsAndEmpty) {
  const AsPath p{{core::AsNumber{5}, core::AsNumber{7}}};
  EXPECT_TRUE(p.contains(core::AsNumber{5}));
  EXPECT_FALSE(p.contains(core::AsNumber{6}));
  const AsPath empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.first().has_value());
  EXPECT_FALSE(empty.origin_as().has_value());
  EXPECT_EQ(empty.to_string(), "");
}

TEST(Relationship, ReverseIsInvolution) {
  EXPECT_EQ(reverse(Relationship::kCustomer), Relationship::kProvider);
  EXPECT_EQ(reverse(Relationship::kProvider), Relationship::kCustomer);
  EXPECT_EQ(reverse(Relationship::kPeer), Relationship::kPeer);
  for (const auto r : {Relationship::kCustomer, Relationship::kPeer,
                       Relationship::kProvider}) {
    EXPECT_EQ(reverse(reverse(r)), r);
  }
}

TEST(Relationship, DefaultLocalPrefOrdering) {
  EXPECT_GT(default_local_pref(Relationship::kCustomer),
            default_local_pref(Relationship::kPeer));
  EXPECT_GT(default_local_pref(Relationship::kPeer),
            default_local_pref(Relationship::kProvider));
}

PeerPolicy gao(Relationship rel) {
  PeerPolicy p;
  p.mode = PolicyMode::kGaoRexford;
  p.relationship = rel;
  return p;
}

TEST(PolicyEngine, ImportSetsLocalPrefByRelationship) {
  PathAttributes attrs;
  EXPECT_TRUE(PolicyEngine::apply_import(gao(Relationship::kCustomer),
                                         *net::Prefix::parse("10.0.0.0/16"),
                                         attrs));
  EXPECT_EQ(attrs.local_pref.value(), 130u);
  EXPECT_TRUE(PolicyEngine::apply_import(gao(Relationship::kProvider),
                                         *net::Prefix::parse("10.0.0.0/16"),
                                         attrs));
  EXPECT_EQ(attrs.local_pref.value(), 70u);
}

TEST(PolicyEngine, ImportLocalPrefOverride) {
  auto policy = gao(Relationship::kPeer);
  policy.local_pref = 555;
  PathAttributes attrs;
  EXPECT_TRUE(PolicyEngine::apply_import(policy,
                                         *net::Prefix::parse("10.0.0.0/16"),
                                         attrs));
  EXPECT_EQ(attrs.local_pref.value(), 555u);
}

TEST(PolicyEngine, ImportDenyFilter) {
  auto policy = gao(Relationship::kPeer);
  policy.import_deny = {*net::Prefix::parse("10.0.0.0/8")};
  PathAttributes attrs;
  // A more specific inside the denied space is rejected too.
  EXPECT_FALSE(PolicyEngine::apply_import(policy,
                                          *net::Prefix::parse("10.5.0.0/16"),
                                          attrs));
  EXPECT_TRUE(PolicyEngine::apply_import(policy,
                                         *net::Prefix::parse("192.168.0.0/16"),
                                         attrs));
}

TEST(PolicyEngine, ImportRouteMapRewritesAndRejects) {
  auto policy = gao(Relationship::kPeer);
  policy.import_map = [](PathAttributes& attrs) {
    if (attrs.as_path.length() > 3) return false;
    attrs.communities.push_back(42);
    return true;
  };
  PathAttributes short_path;
  short_path.as_path = AsPath{{core::AsNumber{1}}};
  EXPECT_TRUE(PolicyEngine::apply_import(policy,
                                         *net::Prefix::parse("10.0.0.0/16"),
                                         short_path));
  EXPECT_EQ(short_path.communities.back(), 42u);

  PathAttributes long_path;
  long_path.as_path =
      AsPath{{core::AsNumber{1}, core::AsNumber{2}, core::AsNumber{3},
              core::AsNumber{4}}};
  EXPECT_FALSE(PolicyEngine::apply_import(policy,
                                          *net::Prefix::parse("10.0.0.0/16"),
                                          long_path));
}

TEST(PolicyEngine, ImportSplitComposesToApplyImport) {
  // import_allowed (the per-NLRI filter) and rewrite_import (the
  // per-UPDATE rewrite) must together decide exactly what apply_import
  // does, on random policies, prefixes and bundles.
  core::Rng rng{1604};
  const std::vector<net::Prefix> universe = {
      *net::Prefix::parse("10.0.0.0/8"), *net::Prefix::parse("10.1.0.0/16"),
      *net::Prefix::parse("10.1.2.0/24"), *net::Prefix::parse("192.168.0.0/16"),
      *net::Prefix::parse("0.0.0.0/0")};
  const Relationship rels[] = {Relationship::kCustomer, Relationship::kPeer,
                               Relationship::kProvider};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::size_t denied = 0;
  for (int round = 0; round < 400; ++round) {
    PeerPolicy policy;
    policy.mode = rng.chance(0.5) ? PolicyMode::kGaoRexford
                                  : PolicyMode::kFullTransit;
    policy.relationship = rels[pick(3)];
    if (rng.chance(0.3)) {
      policy.local_pref = static_cast<std::uint32_t>(rng.uniform_int(1, 500));
    }
    if (rng.chance(0.5)) policy.import_deny.push_back(universe[pick(universe.size())]);
    if (rng.chance(0.3)) {
      policy.import_map = [](PathAttributes& a) {
        a.communities.push_back(7);
        return a.as_path.length() < 3;
      };
    }
    PathAttributes attrs;
    std::vector<core::AsNumber> hops;
    for (std::size_t h = pick(4); h > 0; --h) {
      hops.push_back(core::AsNumber{static_cast<std::uint32_t>(pick(9) + 1)});
    }
    attrs.as_path = AsPath{std::move(hops)};
    const net::Prefix prefix = universe[pick(universe.size())];

    PathAttributes composed = attrs;
    PathAttributes split = attrs;
    const bool whole = PolicyEngine::apply_import(policy, prefix, composed);
    const bool allowed = PolicyEngine::import_allowed(policy, prefix);
    const bool parts = allowed && PolicyEngine::rewrite_import(policy, split);
    ASSERT_EQ(whole, parts) << "round " << round;
    if (whole) {
      EXPECT_EQ(composed, split) << "round " << round;
    }
    if (!allowed) ++denied;
  }
  EXPECT_GT(denied, 0u);
}

TEST(PolicyEngine, ValleyFreeExportMatrix) {
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  // (learned-from, export-to) -> allowed?
  const struct {
    Relationship learned;
    Relationship to;
    bool allowed;
  } cases[] = {
      {Relationship::kCustomer, Relationship::kCustomer, true},
      {Relationship::kCustomer, Relationship::kPeer, true},
      {Relationship::kCustomer, Relationship::kProvider, true},
      {Relationship::kPeer, Relationship::kCustomer, true},
      {Relationship::kPeer, Relationship::kPeer, false},
      {Relationship::kPeer, Relationship::kProvider, false},
      {Relationship::kProvider, Relationship::kCustomer, true},
      {Relationship::kProvider, Relationship::kPeer, false},
      {Relationship::kProvider, Relationship::kProvider, false},
  };
  for (const auto& c : cases) {
    PathAttributes attrs;
    attrs.local_pref = 100;
    EXPECT_EQ(PolicyEngine::apply_export(gao(c.to), c.learned, pfx, attrs),
              c.allowed)
        << "learned=" << to_string(c.learned) << " to=" << to_string(c.to);
  }
}

TEST(PolicyEngine, LocalRoutesExportEverywhere) {
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  for (const auto to : {Relationship::kCustomer, Relationship::kPeer,
                        Relationship::kProvider}) {
    PathAttributes attrs;
    EXPECT_TRUE(PolicyEngine::apply_export(gao(to), std::nullopt, pfx, attrs));
  }
}

TEST(PolicyEngine, ExportStripsIbgpOnlyAttributes) {
  PathAttributes attrs;
  attrs.local_pref = 130;
  attrs.med = 10;
  EXPECT_TRUE(PolicyEngine::apply_export(gao(Relationship::kCustomer),
                                         Relationship::kCustomer,
                                         *net::Prefix::parse("10.0.0.0/16"),
                                         attrs));
  EXPECT_FALSE(attrs.local_pref.has_value());
  EXPECT_FALSE(attrs.med.has_value());
}

TEST(PolicyEngine, FullTransitExportsEverything) {
  PeerPolicy policy;  // defaults: full transit, peer
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  PathAttributes attrs;
  EXPECT_TRUE(
      PolicyEngine::apply_export(policy, Relationship::kProvider, pfx, attrs));
  EXPECT_TRUE(PolicyEngine::apply_export(policy, Relationship::kPeer, pfx, attrs));
}

TEST(PolicyEngine, ExportDenyFilter) {
  PeerPolicy policy;
  policy.export_deny = {*net::Prefix::parse("10.0.0.0/8")};
  PathAttributes attrs;
  EXPECT_FALSE(PolicyEngine::apply_export(policy, std::nullopt,
                                          *net::Prefix::parse("10.1.0.0/16"),
                                          attrs));
}

TEST(PolicyEngine, ExportPrepending) {
  PeerPolicy policy;
  policy.prepend = 3;
  PathAttributes attrs;
  attrs.as_path = AsPath{{core::AsNumber{9}}};
  EXPECT_TRUE(PolicyEngine::apply_export(policy, std::nullopt,
                                         *net::Prefix::parse("10.0.0.0/16"),
                                         attrs, core::AsNumber{5}));
  EXPECT_EQ(attrs.as_path.to_string(), "5 5 5 9");
  // Without a local AS (0), prepending is skipped defensively.
  PathAttributes attrs2;
  attrs2.as_path = AsPath{{core::AsNumber{9}}};
  EXPECT_TRUE(PolicyEngine::apply_export(policy, std::nullopt,
                                         *net::Prefix::parse("10.0.0.0/16"),
                                         attrs2));
  EXPECT_EQ(attrs2.as_path.to_string(), "9");
}

TEST(PolicyEngine, PrependSteersTraffic) {
  // Integration: a dual-homed origin prepends on its backup link; the
  // upstream picks the primary even though both paths are one AS hop.
  // (Full-route integration for this lives in test_router_units; here we
  // verify the attribute rewriting end of it.)
  PeerPolicy backup;
  backup.prepend = 2;
  PathAttributes attrs;
  EXPECT_TRUE(PolicyEngine::apply_export(backup, std::nullopt,
                                         *net::Prefix::parse("10.0.0.0/16"),
                                         attrs, core::AsNumber{100}));
  EXPECT_EQ(attrs.as_path.length(), 2u);
}

TEST(PolicyEngine, ExportRouteMap) {
  PeerPolicy policy;
  policy.export_map = [](PathAttributes& attrs) {
    attrs.med = 999;
    return true;
  };
  PathAttributes attrs;
  EXPECT_TRUE(PolicyEngine::apply_export(policy, std::nullopt,
                                         *net::Prefix::parse("10.0.0.0/16"),
                                         attrs));
  EXPECT_EQ(attrs.med.value(), 999u);
}

}  // namespace
}  // namespace bgpsdn::bgp
