// Tests of path-attribute interning in an attribute store (attr_intern.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "bgp/attr_intern.hpp"

namespace bgpsdn::bgp {
namespace {

PathAttributes make_attrs(std::vector<std::uint32_t> path,
                          std::uint32_t local_pref = 100) {
  PathAttributes attrs;
  std::vector<core::AsNumber> hops;
  for (const auto as : path) hops.emplace_back(as);
  attrs.as_path = AsPath{std::move(hops)};
  attrs.local_pref = local_pref;
  attrs.next_hop = net::Ipv4Addr{172, 16, 0, 1};
  return attrs;
}

/// Interns `n` distinct bundles that die at once: enough expired entries to
/// make the store sweep its pool at least once.
void churn(AttrRegistry& store, std::uint32_t n) {
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto r = store.intern(make_attrs({i & 0xffff, i >> 16, 7}));
    ASSERT_EQ(r->as_path.length(), 3u);
  }
}

TEST(AttrIntern, SameBundleSharesOneCanonicalInstance) {
  AttrRegistry store;
  const auto a = store.intern(make_attrs({1, 2, 3}));
  const auto b = store.intern(make_attrs({1, 2, 3}));
  EXPECT_TRUE(a.same_set(b));
  EXPECT_EQ(a, b);
  EXPECT_EQ(&*a, &*b);
}

TEST(AttrIntern, DistinctBundlesGetDistinctInstances) {
  AttrRegistry store;
  const auto a = store.intern(make_attrs({1, 2, 3}));
  const auto b = store.intern(make_attrs({1, 2, 4}));
  const auto c = store.intern(make_attrs({1, 2, 3}, 200));
  EXPECT_FALSE(a.same_set(b));
  EXPECT_FALSE(a.same_set(c));
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(AttrIntern, DefaultRefPointsAtSharedDefaultBundle) {
  const AttrSetRef a;
  const AttrSetRef b;
  EXPECT_TRUE(a.same_set(b));
  EXPECT_EQ(*a, PathAttributes{});
}

TEST(AttrIntern, EqualityFallsBackToValueComparison) {
  // Two stores hold two canonical instances of one bundle: the handles are
  // not the same set, yet they compare equal by value.
  AttrRegistry one;
  AttrRegistry other;
  const auto a = one.intern(make_attrs({7}));
  const auto b = other.intern(make_attrs({7}));
  EXPECT_FALSE(a.same_set(b));
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a == make_attrs({7}));
  EXPECT_FALSE(a == make_attrs({8}));
}

TEST(AttrIntern, HitAndMissCountersAdvance) {
  AttrRegistry store;
  const auto before = store.pool_stats();
  const auto a = store.intern(make_attrs({90, 91, 92}));
  const auto mid = store.pool_stats();
  EXPECT_EQ(mid.interns, before.interns + 1);
  EXPECT_EQ(mid.hits, before.hits);  // first sighting is a miss
  const auto b = store.intern(make_attrs({90, 91, 92}));
  const auto after = store.pool_stats();
  EXPECT_EQ(after.interns, mid.interns + 1);
  EXPECT_EQ(after.hits, mid.hits + 1);
  EXPECT_TRUE(a.same_set(b));
}

TEST(AttrIntern, ExpiredEntriesAreSweptAndCanonicalIsReplaced) {
  AttrRegistry store;
  {
    const auto a = store.intern(make_attrs({50, 51}));
    EXPECT_EQ(store.pool_stats().live, 1u);
  }
  // The only holder died; the pool entry is now expired, and the churn's
  // intern traffic sweeps it with the churn's own dead entries.
  churn(store, 200);
  const auto stats = store.pool_stats();
  EXPECT_GT(stats.purges, 0u);
  EXPECT_EQ(stats.live, 0u);
  EXPECT_LT(stats.entries, 200u);
  // Re-interning adopts a fresh canonical bundle (no stale revival).
  const auto hits = stats.hits;
  const auto b = store.intern(make_attrs({50, 51}));
  EXPECT_EQ(*b, make_attrs({50, 51}));
  EXPECT_EQ(store.pool_stats().hits, hits);
}

TEST(AttrIntern, CanonicalSurvivesWhileAnyHolderLives) {
  AttrRegistry store;
  const auto a = store.intern(make_attrs({60, 61}));
  churn(store, 200);  // sweeps must not drop the live entry
  ASSERT_GT(store.pool_stats().purges, 0u);
  const auto b = store.intern(make_attrs({60, 61}));
  EXPECT_TRUE(a.same_set(b));
}

TEST(AttrIntern, PoolStaysBoundedUnderChurn) {
  AttrRegistry store;
  // Interning N distinct short-lived bundles must not grow the pool
  // without bound: the lazy sweep reclaims expired entries.
  churn(store, 100000);
  const auto after = store.pool_stats();
  EXPECT_LE(after.entries, 64u);
  EXPECT_GT(after.purges, 0u);
  EXPECT_EQ(store.pool_live_bytes(), 0u);
}

TEST(AttrIntern, HashCoversAllComparedFields) {
  const auto base = make_attrs({1});
  auto origin = base;
  origin.origin = Origin::kEgp;
  auto med = base;
  med.med = 5;
  auto lp = base;
  lp.local_pref = 7;
  auto nh = base;
  nh.next_hop = net::Ipv4Addr{10, 9, 8, 7};
  auto comm = base;
  comm.communities.push_back(0xdeadbeef);
  EXPECT_NE(hash_value(base), hash_value(origin));
  EXPECT_NE(hash_value(base), hash_value(med));
  EXPECT_NE(hash_value(base), hash_value(lp));
  EXPECT_NE(hash_value(base), hash_value(nh));
  EXPECT_NE(hash_value(base), hash_value(comm));
}

TEST(AttrIntern, MedZeroDistinctFromAbsent) {
  AttrRegistry store;
  auto absent = make_attrs({1});
  auto zero = make_attrs({1});
  zero.med = 0;
  EXPECT_NE(hash_value(absent), hash_value(zero));
  const auto a = store.intern(absent);
  const auto z = store.intern(zero);
  EXPECT_FALSE(a.same_set(z));
  EXPECT_FALSE(a == z);
}

}  // namespace
}  // namespace bgpsdn::bgp
