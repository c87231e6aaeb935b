// Policy engine (Gao-Rexford local preference and valley-free export) and
// AsPath semantics.
#include <gtest/gtest.h>

#include <optional>

#include "bgp/policy.hpp"

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
  PolicyEngine::rewrite_import(gao(Relationship::kCustomer), attrs);
  EXPECT_EQ(attrs.local_pref.value(), 130u);
  PolicyEngine::rewrite_import(gao(Relationship::kProvider), attrs);
  EXPECT_EQ(attrs.local_pref.value(), 70u);
  // Full transit ignores the relationship.
  PeerPolicy transit;
  transit.relationship = Relationship::kCustomer;
  PolicyEngine::rewrite_import(transit, attrs);
  EXPECT_EQ(attrs.local_pref.value(), 100u);
}

TEST(PolicyEngine, ValleyFreeExportMatrix) {
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
    EXPECT_EQ(PolicyEngine::export_allowed(gao(c.to), c.learned), c.allowed)
        << "learned=" << to_string(c.learned) << " to=" << to_string(c.to);
  }
}

TEST(PolicyEngine, LocalRoutesExportEverywhere) {
  for (const auto to : {Relationship::kCustomer, Relationship::kPeer,
                        Relationship::kProvider}) {
    EXPECT_TRUE(PolicyEngine::export_allowed(gao(to), std::nullopt));
  }
}

TEST(PolicyEngine, ExportStripsIbgpOnlyAttributes) {
  PathAttributes attrs;
  attrs.local_pref = 130;
  attrs.med = 10;
  PolicyEngine::rewrite_export(attrs);
  EXPECT_FALSE(attrs.local_pref.has_value());
  EXPECT_FALSE(attrs.med.has_value());
}

TEST(PolicyEngine, FullTransitExportsEverything) {
  PeerPolicy policy;  // defaults: full transit, peer
  EXPECT_TRUE(PolicyEngine::export_allowed(policy, Relationship::kProvider));
  EXPECT_TRUE(PolicyEngine::export_allowed(policy, Relationship::kPeer));
}

}  // namespace
}  // namespace bgpsdn::bgp
