// The Adj-RIB-Out export path: the policy-level export verdict against
// apply_export, export-map peers on the full-evaluation path, the
// attribute-pool cost of one announcement, the flat per-peer dirty set, and
// the MRAI wait window across idle expiries and session resets.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bgp/attr_intern.hpp"
#include "bgp/policy.hpp"
#include "bgp/prefix_set.hpp"
#include "bgp/session.hpp"
#include "core/random.hpp"
#include "test_helpers.hpp"

namespace bgpsdn {
namespace {

using testing::MiniTopo;

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

bgp::PeerPolicy gao(bgp::Relationship rel) {
  bgp::PeerPolicy policy;
  policy.mode = bgp::PolicyMode::kGaoRexford;
  policy.relationship = rel;
  return policy;
}

/// A bare BGP speaker on one link to a router: it establishes the session,
/// records every UPDATE it receives (stamped with the virtual arrival time)
/// and sends scripted ones. It never interns attributes, so the pool
/// counters see only the router under test.
class ScriptedPeer : public net::Node, public bgp::SessionHost {
 public:
  explicit ScriptedPeer(core::AsNumber asn) : asn_{asn} {}

  /// Add a peer with AS `asn` to `router` over a fresh link; the router
  /// applies `policy` towards it.
  static ScriptedPeer& attach(MiniTopo& topo, bgp::BgpRouter& router,
                              std::uint32_t asn, bgp::PeerPolicy policy) {
    const core::AsNumber as{asn};
    auto& peer = topo.net().add<ScriptedPeer>("AS" + std::to_string(asn), as);
    const auto link = topo.net().connect(router.id(), peer.id(),
                                         {core::Duration::millis(2), 0, 0.0});
    const auto& ends = topo.net().link(link);
    const auto p2p = topo.alloc().next_p2p();
    bgp::PeerConfig pc;
    pc.policy = std::move(policy);
    pc.local_address = p2p.left;
    pc.remote_address = p2p.right;
    pc.expected_peer_as = as;
    router.add_peer(ends.a.port, pc);

    peer.port_ = ends.b.port;
    peer.address_ = p2p.right;
    peer.remote_ = p2p.left;
    bgp::SessionConfig sc;
    sc.id = peer.allocate_session_id();
    sc.local_as = as;
    sc.local_id = topo.alloc().router_id(as);
    sc.local_address = p2p.right;
    sc.remote_address = p2p.left;
    sc.expected_peer_as = router.asn();
    sc.timers = router.config().timers;
    peer.session_ = std::make_unique<bgp::Session>(peer, sc);
    return peer;
  }

  /// Announce `prefixes` with AS path `asn` + `tail`.
  void announce(std::vector<net::Prefix> prefixes,
                std::vector<std::uint32_t> tail = {}) {
    std::vector<core::AsNumber> hops{asn_};
    for (const auto hop : tail) hops.push_back(core::AsNumber{hop});
    bgp::UpdateMessage m;
    m.nlri = std::move(prefixes);
    m.attributes.as_path = bgp::AsPath{std::move(hops)};
    m.attributes.next_hop = address_;
    session_->send_update(m);
  }

  void withdraw(std::vector<net::Prefix> prefixes) {
    bgp::UpdateMessage m;
    m.withdrawn = std::move(prefixes);
    session_->send_update(m);
  }

  bool established() const { return session_->established(); }

  void start() override { session_->start(); }
  void handle_packet(core::PortId, const net::Packet& packet) override {
    if (packet.proto == net::Protocol::kBgp) session_->receive(packet.payload);
  }

  void session_transmit(bgp::Session&, net::Bytes wire) override {
    net::Packet pkt;
    pkt.src = address_;
    pkt.dst = remote_;
    pkt.proto = net::Protocol::kBgp;
    pkt.payload = std::move(wire);
    send(port_, std::move(pkt));
  }
  void session_established(bgp::Session&) override {}
  void session_down(bgp::Session&, const std::string&) override {}
  void session_update(bgp::Session&, bgp::UpdateMessage update) override {
    std::string line = std::to_string(loop().now().nanos_since_origin()) +
                       " " + update.to_string();
    for (const auto c : update.attributes.communities) {
      line += " community=" + std::to_string(c);
    }
    received.push_back(std::move(line));
  }
  core::EventLoop& session_loop() override { return loop(); }
  core::Rng& session_rng() override { return rng(); }
  core::Logger& session_logger() override { return logger(); }
  const std::string& session_log_name() const override {
    return log_component("peer");
  }

  /// "<arrival ns> <UPDATE text> [community=N...]" per received UPDATE.
  std::vector<std::string> received;

 private:
  core::AsNumber asn_;
  core::PortId port_{core::PortId::invalid()};
  net::Ipv4Addr address_;
  net::Ipv4Addr remote_;
  std::unique_ptr<bgp::Session> session_;
};

// --- the export verdict ----------------------------------------------------

// PolicyEngine::export_allowed is the attribute-free verdict the router's
// fan-out runs for every peer; apply_export must agree with it whenever no
// export map is configured.
TEST(ExportVerdict, MatchesApplyExportOnRandomPolicies) {
  core::Rng rng{1204};
  // Nested prefixes, so deny lists hold covering and covered entries.
  const std::vector<net::Prefix> universe = {
      pfx("10.0.0.0/8"),     pfx("10.1.0.0/16"),     pfx("10.1.2.0/24"),
      pfx("10.2.0.0/16"),    pfx("192.168.0.0/16"),  pfx("192.168.7.0/24"),
      pfx("0.0.0.0/0")};
  const std::vector<std::optional<bgp::Relationship>> learned = {
      std::nullopt, bgp::Relationship::kCustomer, bgp::Relationship::kPeer,
      bgp::Relationship::kProvider};
  const bgp::Relationship towards[] = {bgp::Relationship::kCustomer,
                                       bgp::Relationship::kPeer,
                                       bgp::Relationship::kProvider};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::size_t allowed = 0;
  std::size_t suppressed = 0;
  for (int round = 0; round < 400; ++round) {
    bgp::PeerPolicy policy;
    policy.mode = rng.chance(0.5) ? bgp::PolicyMode::kGaoRexford
                                  : bgp::PolicyMode::kFullTransit;
    policy.relationship = towards[pick(3)];
    policy.prepend = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
    const auto denies = rng.uniform_int(0, 3);
    for (std::int64_t i = 0; i < denies; ++i) {
      policy.export_deny.push_back(universe[pick(universe.size())]);
    }
    for (const auto& rel : learned) {
      for (const auto& prefix : universe) {
        bgp::PathAttributes attrs;
        attrs.as_path = bgp::AsPath{{core::AsNumber{65010}, core::AsNumber{65020}}};
        attrs.local_pref = 130;
        attrs.med = 5;
        const bool verdict = bgp::PolicyEngine::export_allowed(policy, rel, prefix);
        EXPECT_EQ(verdict, bgp::PolicyEngine::apply_export(
                               policy, rel, prefix, attrs, core::AsNumber{65001}))
            << "round " << round << " prefix " << prefix.to_string();
        ++(verdict ? allowed : suppressed);
      }
    }
  }
  EXPECT_GT(allowed, 0u);
  EXPECT_GT(suppressed, 0u);
}

// --- export-map peers keep the full evaluation -----------------------------

/// Every UPDATE the router's three scripted neighbours receive while a
/// source announces, re-announces and withdraws: one neighbour's export map
/// rejects paths longer than one hop, another's adds a community on top of
/// one extra prepend.
std::vector<std::string> export_map_transcript(bgp::MraiStyle style) {
  MiniTopo topo;
  bgp::Timers timers = MiniTopo::quick_timers();
  timers.mrai_style = style;
  auto& router = topo.add_router(1, timers);
  auto& source = ScriptedPeer::attach(topo, router, 2, {});
  bgp::PeerPolicy rejecting;
  rejecting.export_map = [](bgp::PathAttributes& a) {
    return a.as_path.length() <= 1;
  };
  auto& rejected = ScriptedPeer::attach(topo, router, 3, rejecting);
  bgp::PeerPolicy rewriting;
  rewriting.prepend = 1;
  rewriting.export_map = [](bgp::PathAttributes& a) {
    a.communities.push_back(0x00010002u);
    return true;
  };
  auto& rewritten = ScriptedPeer::attach(topo, router, 4, rewriting);
  topo.start();
  topo.run_for(core::Duration::seconds(2));

  const auto p1 = pfx("10.1.0.0/16");
  const auto p2 = pfx("10.2.0.0/16");
  const auto p3 = pfx("10.3.0.0/16");
  source.announce({p1, p2});
  topo.run_for(core::Duration::millis(50));
  source.announce({p3}, {7, 8});  // inside the first MRAI window
  topo.run_for(core::Duration::seconds(1));
  source.withdraw({p1});
  topo.run_for(core::Duration::millis(30));
  source.announce({p2}, {9});  // now too long for the rejecting map
  topo.run_for(core::Duration::seconds(1));
  source.announce({p3});  // short again: the rejecting map accepts it
  source.announce({p1}, {5});
  topo.run_for(core::Duration::seconds(1));
  source.withdraw({p2, p3});
  topo.run_for(core::Duration::seconds(1));

  std::vector<std::string> out;
  for (const auto& line : source.received) out.push_back("source " + line);
  for (const auto& line : rejected.received) out.push_back("rejecting " + line);
  for (const auto& line : rewritten.received) out.push_back("rewriting " + line);
  return out;
}

TEST(ExportMapPeers, FullEvaluationSendsTheSameUpdates) {
  // Recorded from the export path that built attributes for every verdict.
  const std::vector<std::string> periodic = {
      "source 2075679590 UPDATE announce{10.1.0.0/16 10.2.0.0/16} path=[1 2] nh=172.16.0.1 origin=IGP",
      "source 2075679590 UPDATE announce{10.3.0.0/16} path=[1 2 7 8] nh=172.16.0.1 origin=IGP",
      "source 2963094333 UPDATE withdraw{10.1.0.0/16}",
      "source 3134890470 UPDATE announce{10.2.0.0/16} path=[1 2 9] nh=172.16.0.1 origin=IGP",
      "source 4019503669 UPDATE announce{10.1.0.0/16} path=[1 2 5] nh=172.16.0.1 origin=IGP",
      "source 4019503669 UPDATE announce{10.3.0.0/16} path=[1 2] nh=172.16.0.1 origin=IGP",
      "source 4776281498 UPDATE withdraw{10.2.0.0/16 10.3.0.0/16}",
      "rejecting 2154330950 UPDATE announce{10.1.0.0/16 10.2.0.0/16} path=[1 2] nh=172.16.0.5 origin=IGP",
      "rejecting 2963094333 UPDATE withdraw{10.1.0.0/16}",
      "rejecting 2967644333 UPDATE withdraw{10.2.0.0/16}",
      "rejecting 3965872377 UPDATE announce{10.3.0.0/16} path=[1 2] nh=172.16.0.5 origin=IGP",
      "rejecting 4776281498 UPDATE withdraw{10.3.0.0/16}",
      "rewriting 2109123628 UPDATE announce{10.1.0.0/16 10.2.0.0/16} path=[1 1 2] nh=172.16.0.9 origin=IGP community=65538",
      "rewriting 2109123628 UPDATE announce{10.3.0.0/16} path=[1 1 2 7 8] nh=172.16.0.9 origin=IGP community=65538",
      "rewriting 2963094333 UPDATE withdraw{10.1.0.0/16}",
      "rewriting 3132774777 UPDATE announce{10.2.0.0/16} path=[1 1 2 9] nh=172.16.0.9 origin=IGP community=65538",
      "rewriting 4047788332 UPDATE announce{10.1.0.0/16} path=[1 1 2 5] nh=172.16.0.9 origin=IGP community=65538",
      "rewriting 4047788332 UPDATE announce{10.3.0.0/16} path=[1 1 2] nh=172.16.0.9 origin=IGP community=65538",
      "rewriting 4776281498 UPDATE withdraw{10.2.0.0/16 10.3.0.0/16}",
  };
  const std::vector<std::string> immediate = {
      "source 78112826 UPDATE announce{10.1.0.0/16} path=[1 2] nh=172.16.0.1 origin=IGP",
      "source 262376390 UPDATE announce{10.2.0.0/16} path=[1 2] nh=172.16.0.1 origin=IGP",
      "source 262376390 UPDATE announce{10.3.0.0/16} path=[1 2 7 8] nh=172.16.0.1 origin=IGP",
      "source 459814657 UPDATE withdraw{10.1.0.0/16}",
      "source 464364657 UPDATE announce{10.2.0.0/16} path=[1 2 9] nh=172.16.0.1 origin=IGP",
      "source 620144382 UPDATE announce{10.3.0.0/16} path=[1 2] nh=172.16.0.1 origin=IGP",
      "source 807524511 UPDATE announce{10.1.0.0/16} path=[1 2 5] nh=172.16.0.1 origin=IGP",
      "source 967320213 UPDATE withdraw{10.2.0.0/16 10.3.0.0/16}",
      "rejecting 78112826 UPDATE announce{10.1.0.0/16} path=[1 2] nh=172.16.0.5 origin=IGP",
      "rejecting 259979733 UPDATE announce{10.2.0.0/16} path=[1 2] nh=172.16.0.5 origin=IGP",
      "rejecting 459814657 UPDATE withdraw{10.1.0.0/16}",
      "rejecting 464364657 UPDATE withdraw{10.2.0.0/16}",
      "rejecting 620144382 UPDATE announce{10.3.0.0/16} path=[1 2] nh=172.16.0.5 origin=IGP",
      "rejecting 967320213 UPDATE withdraw{10.3.0.0/16}",
      "rewriting 78112826 UPDATE announce{10.1.0.0/16} path=[1 1 2] nh=172.16.0.9 origin=IGP community=65538",
      "rewriting 269440313 UPDATE announce{10.2.0.0/16} path=[1 1 2] nh=172.16.0.9 origin=IGP community=65538",
      "rewriting 269440313 UPDATE announce{10.3.0.0/16} path=[1 1 2 7 8] nh=172.16.0.9 origin=IGP community=65538",
      "rewriting 459814657 UPDATE withdraw{10.1.0.0/16}",
      "rewriting 464364657 UPDATE announce{10.2.0.0/16} path=[1 1 2 9] nh=172.16.0.9 origin=IGP community=65538",
      "rewriting 620144382 UPDATE announce{10.3.0.0/16} path=[1 1 2] nh=172.16.0.9 origin=IGP community=65538",
      "rewriting 791407126 UPDATE announce{10.1.0.0/16} path=[1 1 2 5] nh=172.16.0.9 origin=IGP community=65538",
      "rewriting 967320213 UPDATE withdraw{10.2.0.0/16 10.3.0.0/16}",
  };
  EXPECT_EQ(export_map_transcript(bgp::MraiStyle::kPeriodicQuagga), periodic);
  EXPECT_EQ(export_map_transcript(bgp::MraiStyle::kImmediateThenGate),
            immediate);
}

// --- attribute-pool cost of one announcement ---------------------------------

// One announcement from a provider is imported once and exported only to
// the customer: the withdraw verdicts towards the provider and the peer
// build nothing, and the customer's bundle is built once, at the flush.
TEST(ExportFanOut, OneAnnouncementInternsOnceOnImportAndOnceOnExport) {
  MiniTopo topo;
  auto& router = topo.add_router(1);
  auto& provider = ScriptedPeer::attach(topo, router, 2, gao(bgp::Relationship::kProvider));
  auto& peer = ScriptedPeer::attach(topo, router, 3, gao(bgp::Relationship::kPeer));
  auto& customer = ScriptedPeer::attach(topo, router, 4, gao(bgp::Relationship::kCustomer));
  topo.start();
  topo.run_for(core::Duration::seconds(2));
  ASSERT_TRUE(provider.established());
  ASSERT_TRUE(peer.established());
  ASSERT_TRUE(customer.established());

  const auto prefix = pfx("10.9.0.0/16");
  const std::uint64_t before = bgp::attr_pool_stats().interns;
  provider.announce({prefix});
  topo.run_for(core::Duration::seconds(2));

  ASSERT_NE(router.loc_rib().find(prefix), nullptr);
  EXPECT_EQ(bgp::attr_pool_stats().interns - before, 2u);
  ASSERT_EQ(customer.received.size(), 1u);
  EXPECT_NE(customer.received[0].find("announce{10.9.0.0/16}"), std::string::npos);
  EXPECT_TRUE(provider.received.empty());
  EXPECT_TRUE(peer.received.empty());
}

// One UPDATE carries one bundle: a 3-NLRI announcement is loop-checked,
// rewritten and interned once on import. From a provider, over a router
// whose only other neighbour is a peer, nothing is exported, so that one
// intern is all the UPDATE costs. An import map sees only the bundle, so it
// runs once per UPDATE too.
TEST(ImportOncePerUpdate, MultiNlriUpdateInternsOnce) {
  for (const bool with_map : {false, true}) {
    MiniTopo topo;
    auto& router = topo.add_router(1);
    auto policy = gao(bgp::Relationship::kProvider);
    int map_calls = 0;
    if (with_map) {
      policy.import_map = [&map_calls](bgp::PathAttributes&) {
        ++map_calls;
        return true;
      };
    }
    auto& provider = ScriptedPeer::attach(topo, router, 2, policy);
    auto& peer = ScriptedPeer::attach(topo, router, 3, gao(bgp::Relationship::kPeer));
    topo.start();
    topo.run_for(core::Duration::seconds(2));
    ASSERT_TRUE(provider.established());
    ASSERT_TRUE(peer.established());

    const std::vector<net::Prefix> prefixes = {
        pfx("10.9.0.0/16"), pfx("10.10.0.0/16"), pfx("10.11.0.0/16")};
    const std::uint64_t before = bgp::attr_pool_stats().interns;
    provider.announce(prefixes);
    topo.run_for(core::Duration::seconds(2));

    for (const auto& p : prefixes) {
      const bgp::Route* route = router.loc_rib().find(p);
      ASSERT_NE(route, nullptr) << with_map;
      EXPECT_EQ(route->attributes->local_pref,
                bgp::default_local_pref(bgp::Relationship::kProvider));
    }
    EXPECT_EQ(bgp::attr_pool_stats().interns - before, 1u);
    EXPECT_EQ(map_calls, with_map ? 1 : 0);
    EXPECT_TRUE(peer.received.empty());
  }
}

// An import map that rejects the bundle rejects every NLRI of the UPDATE,
// after one call and without an intern, and withdraws what the peer had
// announced before.
TEST(ImportOncePerUpdate, RejectingMapRejectsEveryNlri) {
  MiniTopo topo;
  auto& router = topo.add_router(1);
  auto policy = gao(bgp::Relationship::kProvider);
  bool accept = true;
  int map_calls = 0;
  policy.import_map = [&](bgp::PathAttributes&) {
    ++map_calls;
    return accept;
  };
  auto& provider = ScriptedPeer::attach(topo, router, 2, policy);
  topo.start();
  topo.run_for(core::Duration::seconds(2));
  ASSERT_TRUE(provider.established());

  const std::vector<net::Prefix> prefixes = {
      pfx("10.9.0.0/16"), pfx("10.10.0.0/16"), pfx("10.11.0.0/16")};
  provider.announce(prefixes);
  topo.run_for(core::Duration::seconds(2));
  for (const auto& p : prefixes) ASSERT_NE(router.loc_rib().find(p), nullptr);

  accept = false;
  map_calls = 0;
  const std::uint64_t rejected = router.counters().routes_rejected_policy;
  const std::uint64_t before = bgp::attr_pool_stats().interns;
  provider.announce(prefixes);
  topo.run_for(core::Duration::seconds(2));

  for (const auto& p : prefixes) EXPECT_EQ(router.loc_rib().find(p), nullptr);
  EXPECT_EQ(map_calls, 1);
  EXPECT_EQ(router.counters().routes_rejected_policy - rejected, 3u);
  EXPECT_EQ(bgp::attr_pool_stats().interns - before, 0u);
}

// --- the flat dirty set ---------------------------------------------------------

TEST(PrefixSet, MatchesStdSetUnderRandomOperations) {
  core::Rng rng{4242};
  bgp::PrefixSet flat;
  std::set<net::Prefix> oracle;
  const auto octet = [&rng](std::int64_t hi) {
    return static_cast<std::uint8_t>(rng.uniform_int(0, hi));
  };
  for (int step = 0; step < 20000; ++step) {
    const net::Prefix p{net::Ipv4Addr{10, octet(7), octet(7), 0},
                        static_cast<std::uint8_t>(rng.uniform_int(16, 24))};
    const auto op = rng.uniform_int(0, 99);
    if (op < 55) {
      ASSERT_EQ(flat.insert(p), oracle.insert(p).second) << "step " << step;
    } else if (op < 98) {
      ASSERT_EQ(flat.erase(p), oracle.erase(p) == 1) << "step " << step;
    } else {
      flat.clear();
      oracle.clear();
    }
    ASSERT_EQ(flat.size(), oracle.size()) << "step " << step;
    ASSERT_EQ(flat.empty(), oracle.empty());
    if (step % 64 == 0) {
      ASSERT_TRUE(std::equal(flat.begin(), flat.end(), oracle.begin(),
                             oracle.end()))
          << "step " << step;
    }
  }
  EXPECT_TRUE(std::equal(flat.begin(), flat.end(), oracle.begin(), oracle.end()));
}

// --- the MRAI wait window -------------------------------------------------------

const telemetry::Histogram& mrai_waits(MiniTopo& topo) {
  return topo.net().telemetry().metrics().histogram("bgp.mrai.wait_ns");
}

// Under immediate-then-gate pacing a timer that expires with nothing
// pending closes its window: the first change after a long idle spell goes
// out at once and must not be booked as an MRAI wait.
TEST(MraiWindow, IdleExpiryRecordsNoWait) {
  MiniTopo topo;
  bgp::Timers timers = MiniTopo::quick_timers();
  timers.mrai = core::Duration::seconds(10);
  timers.mrai_style = bgp::MraiStyle::kImmediateThenGate;
  auto& a = topo.add_router(1, timers);
  auto& b = topo.add_router(2, timers);
  topo.peer(a, b);
  topo.start();
  topo.run_for(core::Duration::seconds(2));

  a.originate(pfx("10.50.0.0/16"));  // sent at once; arms the timer
  topo.run_for(core::Duration::seconds(12));  // expires with nothing pending
  topo.run_for(core::Duration::seconds(100));
  a.originate(pfx("10.51.0.0/16"));  // immediate again
  topo.run_for(core::Duration::seconds(1));
  a.originate(pfx("10.52.0.0/16"));  // gated behind the new window
  topo.run_for(core::Duration::seconds(12));
  ASSERT_NE(b.loc_rib().find(pfx("10.52.0.0/16")), nullptr);

  const auto& waits = mrai_waits(topo);
  EXPECT_GE(waits.count(), 1u);
  EXPECT_LE(waits.max(), timers.mrai.count_nanos());
}

// A session reset ends the window too: the table transfer of the next
// session is not paced by the cancelled timer.
TEST(MraiWindow, SessionResetRecordsNoWait) {
  MiniTopo topo;
  bgp::Timers timers = MiniTopo::quick_timers();
  timers.mrai = core::Duration::seconds(10);
  auto& a = topo.add_router(1, timers);
  auto& b = topo.add_router(2, timers);
  topo.peer(a, b);
  a.originate(pfx("10.60.0.0/16"));
  topo.start();
  topo.run_for(core::Duration::seconds(5));

  const auto link = topo.net().find_link(a.id(), b.id());
  topo.net().set_link_up(link, false);
  // Nothing else is scheduled while the only link is down; keep the clock
  // running through the outage.
  topo.loop().schedule(core::Duration::seconds(100), [] {});
  topo.run_for(core::Duration::seconds(100));
  topo.net().set_link_up(link, true);
  topo.run_for(core::Duration::seconds(10));
  a.originate(pfx("10.61.0.0/16"));
  topo.run_for(core::Duration::seconds(15));
  ASSERT_NE(b.loc_rib().find(pfx("10.61.0.0/16")), nullptr);

  const auto& waits = mrai_waits(topo);
  EXPECT_GE(waits.count(), 1u);
  EXPECT_LE(waits.max(), timers.mrai.count_nanos());
}

}  // namespace
}  // namespace bgpsdn
