// The slab RIB diffed against the std::map oracle (rib_oracle.hpp) at the
// unit level, plus the supporting structures the slab layout is built from:
// the open-addressing PrefixTable (fuzzed against std::map), the refcounted
// AttrRegistry, and the Adj-RIB-In slab defragmenter. The framework-level
// golden captures live in tests/framework/test_rib_layout_equivalence.cpp;
// these tests pin the data structures in isolation so a divergence there
// points at the exact class.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "bgp/message.hpp"
#include "bgp/rib.hpp"
#include "bgp/rib_oracle.hpp"
#include "bgp/wire.hpp"

namespace bgpsdn::bgp {
namespace {

/// The attribute store every route and RIB of these tests interns into.
const AttrRegistryRef& attr_store() {
  static const AttrRegistryRef kStore = std::make_shared<AttrRegistry>();
  return kStore;
}

net::Prefix prefix_of(std::uint32_t i) {
  return net::Prefix{net::Ipv4Addr{(10u << 24) | (i << 8)}, 24};
}

Route make_route(std::uint32_t prefix, std::uint32_t session,
                 std::vector<std::uint32_t> path, std::int64_t at_ns = 1000) {
  Route r;
  r.prefix = prefix_of(prefix);
  std::vector<core::AsNumber> hops;
  for (const auto as : path) hops.emplace_back(as);
  PathAttributes attrs;
  attrs.as_path = AsPath{std::move(hops)};
  attrs.next_hop = net::Ipv4Addr{172, 16, 0, 1};
  r.attributes = attr_store()->intern(std::move(attrs));
  r.learned_from = core::SessionId{session};
  r.peer_bgp_id = net::Ipv4Addr{
      10, 0, 0, static_cast<std::uint8_t>(session == 0 ? 1 : session)};
  r.peer_address = net::Ipv4Addr{172, 16, static_cast<std::uint8_t>(session), 1};
  r.installed_at = core::TimePoint::from_nanos(at_ns);
  return r;
}

std::string route_key(const net::Prefix& prefix, const RouteView& r) {
  return prefix.to_string() + " s" + std::to_string(r.learned_from.value()) +
         " a" + r.attributes->get().to_string() + " id" +
         std::to_string(r.peer_bgp_id.bits()) + " pa" +
         std::to_string(r.peer_address.bits()) + " t" +
         std::to_string(r.installed_at.nanos_since_origin());
}

std::string route_key(const Route& r) { return route_key(r.prefix, r.view()); }

// --- PrefixTable ---------------------------------------------------------

struct TableVal {
  std::uint32_t v{0xFFFFFFFFu};
  static TableVal empty() { return {}; }
  bool is_empty() const { return v == 0xFFFFFFFFu; }
};

TEST(PrefixTableFuzz, MatchesStdMapUnderChurn) {
  detail::PrefixTable<TableVal> table;
  std::map<net::Prefix, std::uint32_t> mirror;
  std::mt19937_64 rng{42};
  for (std::uint32_t op = 0; op < 50'000; ++op) {
    // A key universe of 512 prefixes at 50/35/15 put/erase/find keeps the
    // table churning through grow, backshift deletion and probe chains.
    const auto key = prefix_of(static_cast<std::uint32_t>(rng() % 512));
    const auto action = rng() % 100;
    if (action < 50) {
      const auto value = static_cast<std::uint32_t>(rng() % 1'000'000);
      table.put(key, TableVal{value});
      mirror[key] = value;
    } else if (action < 85) {
      const bool erased = table.erase(key);
      EXPECT_EQ(erased, mirror.erase(key) > 0) << "op " << op;
    } else {
      const auto* found = table.find(key);
      const auto it = mirror.find(key);
      ASSERT_EQ(found != nullptr, it != mirror.end()) << "op " << op;
      if (found != nullptr) {
        EXPECT_EQ(found->v, it->second) << "op " << op;
      }
    }
    EXPECT_EQ(table.size(), mirror.size());
  }
  // Full-table agreement at the end: every mirror key present with the right
  // value, and sorted_keys() is exactly the mirror's key sequence.
  const auto keys = table.sorted_keys();
  ASSERT_EQ(keys.size(), mirror.size());
  std::size_t i = 0;
  for (const auto& [key, value] : mirror) {
    EXPECT_EQ(keys[i++], key);
    const auto* found = table.find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->v, value);
  }
}

// --- AttrRegistry --------------------------------------------------------

AttrSetRef bundle(std::uint32_t tag) {
  PathAttributes attrs;
  attrs.as_path = AsPath{{core::AsNumber{tag + 1}}};
  attrs.next_hop = net::Ipv4Addr{172, 16, 0, 1};
  return attr_store()->intern(std::move(attrs));
}

TEST(AttrRegistry, DeduplicatesByCanonicalBundle) {
  AttrRegistry reg;
  const auto a = bundle(1);
  const auto idx = reg.acquire(a);
  EXPECT_EQ(reg.acquire(bundle(1)), idx);  // same canonical bundle
  EXPECT_NE(reg.acquire(bundle(2)), idx);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.at(idx).get(), a.get());
}

TEST(AttrRegistry, ReleaseFreesAtZeroAndReusesSlots) {
  AttrRegistry reg;
  const auto idx = reg.acquire(bundle(1));
  reg.retain(idx);
  reg.release(idx);
  EXPECT_EQ(reg.size(), 1u);  // one reference still held
  reg.release(idx);
  EXPECT_EQ(reg.size(), 0u);
  // A fresh bundle reuses the freed entry slot instead of growing the slab.
  const auto again = reg.acquire(bundle(3));
  EXPECT_EQ(again, idx);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(AttrRegistry, SurvivesInterleavedChurn) {
  AttrRegistry reg;
  std::map<std::uint32_t, std::uint32_t> held;  // tag -> index
  std::mt19937_64 rng{7};
  for (std::uint32_t op = 0; op < 20'000; ++op) {
    const auto tag = static_cast<std::uint32_t>(rng() % 300);
    const auto it = held.find(tag);
    if (it == held.end()) {
      held[tag] = reg.acquire(bundle(tag));
    } else {
      reg.release(it->second);
      held.erase(it);
    }
    EXPECT_EQ(reg.size(), held.size());
  }
  // Every held index still resolves to its own bundle (backshift deletion in
  // the dedup slot index must never detach a live entry).
  for (const auto& [tag, index] : held) {
    EXPECT_EQ(reg.at(index).get(), bundle(tag).get()) << "tag " << tag;
  }
  // And re-acquiring a held bundle finds the existing entry, not a new one.
  for (const auto& [tag, index] : held) {
    EXPECT_EQ(reg.acquire(bundle(tag)), index);
    reg.release(index);
  }
}

TEST(AttrRegistry, BytesDependOnlyOnSequence) {
  // The dedup index hashes pointer values, but the footprint must depend
  // only on the acquire/release sequence (the determinism contract).
  AttrRegistry a;
  AttrRegistry b;
  for (std::uint32_t i = 0; i < 500; ++i) {
    a.acquire(bundle(i));
    b.acquire(bundle(i));
    EXPECT_EQ(a.bytes(), b.bytes());
  }
  EXPECT_GT(a.bytes(), 0u);
}

// --- Adj-RIB-In vs the oracle --------------------------------------------

class RibInPair {
 public:
  AdjRibIn::PutResult put(const Route& route) {
    const auto slab = slab_.put(route.prefix, route.view());
    const auto oracle = oracle_.put(route.prefix, route.view());
    EXPECT_EQ(slab, oracle);
    return slab;
  }
  void erase(std::uint32_t prefix, std::uint32_t session) {
    EXPECT_EQ(slab_.erase(prefix_of(prefix), core::SessionId{session}),
              oracle_.erase(prefix_of(prefix), core::SessionId{session}));
  }
  void erase_session(std::uint32_t session) {
    const auto slab = slab_.erase_session(core::SessionId{session});
    const auto oracle = oracle_.erase_session(core::SessionId{session});
    EXPECT_EQ(slab, oracle);
  }
  void expect_equal() const {
    EXPECT_EQ(slab_.route_count(), oracle_.route_count());
    const auto prefixes = oracle_.prefixes();
    EXPECT_EQ(slab_.prefixes(), prefixes);
    for (const auto& prefix : prefixes) {
      // Slab views read the slab in place: stringify them inside the visitor.
      std::vector<std::string> slab_view;
      slab_.for_each_candidate(prefix, [&](const RouteView& r) {
        slab_view.push_back(route_key(prefix, r));
      });
      const auto oracle_cands = oracle_.candidates(prefix);
      ASSERT_EQ(slab_view.size(), oracle_cands.size()) << prefix.to_string();
      for (std::size_t i = 0; i < oracle_cands.size(); ++i) {
        EXPECT_EQ(slab_view[i], route_key(*oracle_cands[i]))
            << prefix.to_string() << " #" << i;
      }
    }
  }
  const AdjRibIn& slab() const { return slab_; }

 private:
  AdjRibIn slab_{attr_store()};
  oracle::AdjRibIn oracle_;
};

TEST(RibLayoutEquivalence, AdjRibInFuzz) {
  RibInPair pair;
  std::mt19937_64 rng{1234};
  for (std::uint32_t op = 0; op < 20'000; ++op) {
    const auto prefix = static_cast<std::uint32_t>(rng() % 64);
    const auto session = static_cast<std::uint32_t>(1 + rng() % 12);
    const auto action = rng() % 100;
    if (action < 60) {
      // Three path variants per (prefix, session) so puts are a mix of
      // inserts, attribute replacements and no-op re-puts.
      const auto variant = static_cast<std::uint32_t>(rng() % 3);
      pair.put(make_route(prefix, session, {session, variant + 1, prefix + 1},
                          static_cast<std::int64_t>(1000 + op)));
    } else if (action < 90) {
      pair.erase(prefix, session);
    } else {
      pair.erase_session(session);
    }
    if (op % 1000 == 0) pair.expect_equal();
  }
  pair.expect_equal();
}

TEST(AdjRibInDefrag, SlabChurnPreservesContents) {
  // Grow every prefix's span through 1->2->4->8->16 candidates, then strip
  // back down: the doubling churn strands freed spans of every size, pushing
  // the freelist past the defrag trigger. Contents must match the oracle
  // throughout, and the footprint must come back down.
  RibInPair pair;
  for (std::uint32_t prefix = 0; prefix < 48; ++prefix) {
    for (std::uint32_t session = 1; session <= 16; ++session) {
      pair.put(make_route(prefix, session, {session, prefix + 1}));
    }
  }
  pair.expect_equal();
  const auto grown = pair.slab().peak_bytes();
  for (std::uint32_t prefix = 0; prefix < 48; ++prefix) {
    for (std::uint32_t session = 2; session <= 16; ++session) {
      pair.erase(prefix, session);
    }
  }
  pair.expect_equal();
  EXPECT_EQ(pair.slab().route_count(), 48u);
  // After defrag the live footprint is a small fraction of the grown peak:
  // 48 single-candidate spans must not hold on to 16-wide slab rows.
  EXPECT_GT(grown, 48u * 16u * 4u);
  // Refill to prove freed/defragmented spans are reusable.
  for (std::uint32_t prefix = 0; prefix < 48; ++prefix) {
    for (std::uint32_t session = 2; session <= 9; ++session) {
      pair.put(make_route(prefix, session, {session, 7u, prefix + 1}));
    }
  }
  pair.expect_equal();
}

// --- Loc-RIB vs the oracle ------------------------------------------------

TEST(RibLayoutEquivalence, LocRibFuzz) {
  LocRib slab{attr_store()};
  oracle::LocRib oracle;
  std::mt19937_64 rng{77};
  for (std::uint32_t op = 0; op < 20'000; ++op) {
    const auto prefix = static_cast<std::uint32_t>(rng() % 64);
    if (rng() % 100 < 70) {
      const auto session = static_cast<std::uint32_t>(1 + rng() % 8);
      const auto variant = static_cast<std::uint32_t>(rng() % 3);
      const auto route = make_route(prefix, session, {session, variant + 1},
                                    static_cast<std::int64_t>(op));
      EXPECT_EQ(slab.install(route.prefix, route.view()),
                oracle.install(route.prefix, route.view()))
          << op;
    } else {
      EXPECT_EQ(slab.remove(prefix_of(prefix)),
                oracle.remove(prefix_of(prefix)))
          << op;
    }
    EXPECT_EQ(slab.size(), oracle.size());
    EXPECT_EQ(slab.generation(), oracle.generation());
  }
  EXPECT_EQ(slab.prefixes(), oracle.prefixes());
  for (const auto& prefix : oracle.prefixes()) {
    const auto* c = slab.find(prefix);
    ASSERT_NE(c, nullptr);
    const std::string slab_view = route_key(*c);  // scratch: copy first
    EXPECT_EQ(slab_view, route_key(*oracle.find(prefix)));
  }
}

TEST(RibLayoutEquivalence, LocRibLocalRoutes) {
  // Locally-originated routes carry SessionId::invalid(); the slab layout
  // must round-trip them (it parks them on a shared side entry).
  LocRib slab{attr_store()};
  oracle::LocRib oracle;
  Route local = make_route(1, 0, {42});
  local.learned_from = core::SessionId::invalid();
  local.peer_bgp_id = net::Ipv4Addr{};
  local.peer_address = net::Ipv4Addr{};
  EXPECT_EQ(slab.install(local.prefix, local.view()),
            oracle.install(local.prefix, local.view()));
  const auto* c = slab.find(prefix_of(1));
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->is_local());
  const std::string slab_view = route_key(*c);
  EXPECT_EQ(slab_view, route_key(*oracle.find(prefix_of(1))));
}

// --- Adj-RIB-Out / RibOutStore vs the oracle -----------------------------

TEST(RibLayoutEquivalence, RibOutStoreFuzz) {
  RibOutStore slab{attr_store()};
  oracle::RibOutStore oracle;
  constexpr std::uint16_t kCols = 4;
  for (std::uint16_t c = 0; c < kCols; ++c) {
    ASSERT_EQ(slab.add_column(), oracle.add_column());
  }
  std::mt19937_64 rng{99};
  for (std::uint32_t op = 0; op < 20'000; ++op) {
    const auto col = static_cast<std::uint16_t>(rng() % kCols);
    const auto prefix = prefix_of(static_cast<std::uint32_t>(rng() % 64));
    const auto action = rng() % 100;
    if (action < 55) {
      const auto attrs = bundle(static_cast<std::uint32_t>(rng() % 8));
      EXPECT_EQ(slab.advertise(col, prefix, attrs),
                oracle.advertise(col, prefix, attrs))
          << op;
    } else if (action < 85) {
      EXPECT_EQ(slab.withdraw(col, prefix), oracle.withdraw(col, prefix))
          << op;
    } else if (action < 95) {
      const auto* c = slab.advertised(col, prefix);
      const auto* r = oracle.advertised(col, prefix);
      ASSERT_EQ(c != nullptr, r != nullptr) << op;
      if (c != nullptr) {
        EXPECT_EQ(c->get(), r->get()) << op;
      }
    } else {
      slab.clear(col);
      oracle.clear(col);
    }
    EXPECT_EQ(slab.size(col), oracle.size(col));
  }
  for (std::uint16_t c = 0; c < kCols; ++c) {
    EXPECT_EQ(slab.prefixes(c), oracle.prefixes(c));
  }
}

TEST(RibLayoutEquivalence, RibOutLateColumnWidening) {
  // Adding a peer after prefixes are advertised forces row widening; the
  // earlier columns' state must be untouched.
  RibOutStore store{attr_store()};
  const auto c0 = store.add_column();
  const auto a = bundle(1);
  ASSERT_TRUE(store.advertise(c0, prefix_of(1), a));
  ASSERT_TRUE(store.advertise(c0, prefix_of(2), a));
  const auto c1 = store.add_column();
  EXPECT_EQ(store.advertised(c1, prefix_of(1)), nullptr);
  ASSERT_TRUE(store.advertise(c1, prefix_of(1), bundle(2)));
  ASSERT_NE(store.advertised(c0, prefix_of(1)), nullptr);
  EXPECT_EQ(store.advertised(c0, prefix_of(1))->get(), a.get());
  EXPECT_EQ(store.size(c0), 2u);
  EXPECT_EQ(store.size(c1), 1u);
}

// --- shared registry lifecycle -------------------------------------------

TEST(RibLayoutEquivalence, SharedRegistryDrainsWithRibs) {
  // Two RIBs share one registry; when both drop their routes every handle
  // must come back (leaked refcounts would pin bundles for the whole run).
  auto registry = std::make_shared<AttrRegistry>();
  AdjRibIn rib_in{registry};
  LocRib loc{registry};
  for (std::uint32_t prefix = 0; prefix < 32; ++prefix) {
    for (std::uint32_t session = 1; session <= 4; ++session) {
      const auto route = make_route(prefix, session, {session, prefix + 1});
      rib_in.put(route.prefix, route.view());
    }
    const auto winner = make_route(prefix, 1, {1, prefix + 1});
    loc.install(winner.prefix, winner.view());
  }
  EXPECT_GT(registry->size(), 0u);
  for (std::uint32_t prefix = 0; prefix < 32; ++prefix) {
    loc.remove(prefix_of(prefix));
  }
  rib_in.erase_session(core::SessionId{1});
  rib_in.erase_session(core::SessionId{2});
  rib_in.erase_session(core::SessionId{3});
  rib_in.erase_session(core::SessionId{4});
  EXPECT_EQ(registry->size(), 0u);
  EXPECT_EQ(rib_in.route_count(), 0u);
}

// --- batched UPDATE shapes through the wire codec ------------------------

TEST(BatchedUpdateRoundTrip, MultiNlriSharedBundle) {
  // The shape the flush buffer emits: one attribute bundle, many prefixes.
  UpdateMessage u;
  PathAttributes attrs;
  attrs.as_path = AsPath{{core::AsNumber{65001}, core::AsNumber{7}}};
  attrs.next_hop = net::Ipv4Addr{172, 16, 0, 9};
  u.attributes = attrs;
  for (std::uint32_t i = 0; i < 120; ++i) u.nlri.push_back(prefix_of(i));
  for (std::uint32_t i = 200; i < 250; ++i) {
    u.withdrawn.push_back(prefix_of(i));
  }
  const auto wire = encode(u);
  ASSERT_LE(wire.size(), kMaxMessageSize);
  const auto back = decode(wire);
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(std::holds_alternative<UpdateMessage>(*back));
  const auto& got = std::get<UpdateMessage>(*back);
  // Exact order preservation: receivers process NLRI in wire order, so the
  // packer's sorted order must survive the round trip.
  EXPECT_EQ(got.nlri, u.nlri);
  EXPECT_EQ(got.withdrawn, u.withdrawn);
  EXPECT_EQ(got.attributes, u.attributes);
}

TEST(BatchedUpdateRoundTrip, WithdrawOnlyBatch) {
  UpdateMessage u;
  for (std::uint32_t i = 0; i < 300; ++i) u.withdrawn.push_back(prefix_of(i));
  const auto wire = encode(u);
  ASSERT_LE(wire.size(), kMaxMessageSize);
  const auto back = decode(wire);
  ASSERT_TRUE(back.has_value());
  const auto& got = std::get<UpdateMessage>(*back);
  EXPECT_EQ(got.withdrawn, u.withdrawn);
  EXPECT_TRUE(got.nlri.empty());
}

TEST(BatchedUpdateRoundTrip, OversizeBatchSplitsLosslessly) {
  // A batch bigger than one message must split into in-order pieces whose
  // concatenation is the original batch (the receiver-side view).
  UpdateMessage u;
  PathAttributes attrs;
  attrs.as_path = AsPath{{core::AsNumber{65001}}};
  attrs.next_hop = net::Ipv4Addr{172, 16, 0, 9};
  u.attributes = attrs;
  for (std::uint32_t i = 0; i < 1500; ++i) u.nlri.push_back(prefix_of(i));
  ASSERT_GT(encode(u).size(), kMaxMessageSize);
  std::vector<net::Prefix> reassembled;
  for (const auto& piece : split_update(u)) {
    const auto back = decode(encode(piece));
    ASSERT_TRUE(back.has_value());
    const auto& got = std::get<UpdateMessage>(*back);
    reassembled.insert(reassembled.end(), got.nlri.begin(), got.nlri.end());
  }
  EXPECT_EQ(reassembled, u.nlri);
}

}  // namespace
}  // namespace bgpsdn::bgp
