// The Adj-RIB-Out export path: the attribute-pool cost of one announcement
// and of one imported UPDATE, the age and decision cost of a
// re-announcement, the port order of batch sends, the flat per-peer dirty
// set, and the MRAI wait window across session resets.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
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

  /// A scripted peer on a fresh link to a router, and the configuration of
  /// the router's side, which the test adds with `router.add_peer`.
  struct Link {
    ScriptedPeer* peer;
    core::PortId router_port;
    bgp::PeerConfig config;
  };

  /// Wire a peer with AS `asn` to `router` over a fresh link; the router's
  /// side applies `policy` towards it once added.
  static Link link(MiniTopo& topo, bgp::BgpRouter& router, std::uint32_t asn,
                   bgp::PeerPolicy policy) {
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
    peer.session_ = std::make_unique<bgp::Session>(
        peer,
        bgp::SessionEnv{peer.loop(), peer.rng(), peer.logger(),
                        peer.telemetry()},
        sc);
    return {&peer, ends.a.port, pc};
  }

  /// Add a peer with AS `asn` to `router` over a fresh link; the router
  /// applies `policy` towards it.
  static ScriptedPeer& attach(MiniTopo& topo, bgp::BgpRouter& router,
                              std::uint32_t asn, bgp::PeerPolicy policy) {
    const Link l = link(topo, router, asn, std::move(policy));
    router.add_peer(l.router_port, l.config);
    return *l.peer;
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
    received.push_back(std::to_string(loop().now().nanos_since_origin()) + " " +
                       update.to_string());
  }
  const std::string& session_log_name() const override {
    return log_component("peer");
  }

  /// "<arrival ns> <UPDATE text>" per received UPDATE.
  std::vector<std::string> received;

 private:
  core::AsNumber asn_;
  core::PortId port_{core::PortId::invalid()};
  net::Ipv4Addr address_;
  net::Ipv4Addr remote_;
  std::unique_ptr<bgp::Session> session_;
};

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
  const std::uint64_t before = topo.attr_registry()->pool_stats().interns;
  provider.announce({prefix});
  topo.run_for(core::Duration::seconds(2));

  ASSERT_NE(router.loc_rib().find(prefix), nullptr);
  EXPECT_EQ(topo.attr_registry()->pool_stats().interns - before, 2u);
  ASSERT_EQ(customer.received.size(), 1u);
  EXPECT_NE(customer.received[0].find("announce{10.9.0.0/16}"), std::string::npos);
  EXPECT_TRUE(provider.received.empty());
  EXPECT_TRUE(peer.received.empty());
}

// The export bundle is built once per winner bundle per flush, not once per
// prefix: a provider's 3-NLRI UPDATE costs one intern on import and one on
// export to the customer, which receives all three NLRI in one UPDATE.
TEST(ExportFanOut, MultiPrefixAnnouncementBuildsOneExportBundle) {
  MiniTopo topo;
  auto& router = topo.add_router(1);
  auto& provider =
      ScriptedPeer::attach(topo, router, 2, gao(bgp::Relationship::kProvider));
  auto& customer =
      ScriptedPeer::attach(topo, router, 4, gao(bgp::Relationship::kCustomer));
  topo.start();
  topo.run_for(core::Duration::seconds(2));
  ASSERT_TRUE(provider.established());
  ASSERT_TRUE(customer.established());

  const std::uint64_t before = topo.attr_registry()->pool_stats().interns;
  provider.announce({pfx("10.9.0.0/16"), pfx("10.10.0.0/16"), pfx("10.11.0.0/16")});
  topo.run_for(core::Duration::seconds(2));

  EXPECT_EQ(topo.attr_registry()->pool_stats().interns - before, 2u);
  ASSERT_EQ(customer.received.size(), 1u);
  EXPECT_NE(customer.received[0].find(
                "announce{10.9.0.0/16 10.10.0.0/16 10.11.0.0/16}"),
            std::string::npos)
      << customer.received[0];
  EXPECT_TRUE(provider.received.empty());
}

// One UPDATE carries one bundle: a 3-NLRI announcement is loop-checked,
// rewritten and interned once on import. From a provider, over a router
// whose only other neighbour is a peer, nothing is exported, so that one
// intern is all the UPDATE costs. An UPDATE without NLRI and one whose AS
// path loops through the router have no bundle to import: they intern
// nothing.
TEST(ImportOncePerUpdate, MultiNlriUpdateInternsOnce) {
  MiniTopo topo;
  auto& router = topo.add_router(1);
  auto& provider =
      ScriptedPeer::attach(topo, router, 2, gao(bgp::Relationship::kProvider));
  auto& peer = ScriptedPeer::attach(topo, router, 3, gao(bgp::Relationship::kPeer));
  topo.start();
  topo.run_for(core::Duration::seconds(2));
  ASSERT_TRUE(provider.established());
  ASSERT_TRUE(peer.established());

  const std::vector<net::Prefix> prefixes = {
      pfx("10.9.0.0/16"), pfx("10.10.0.0/16"), pfx("10.11.0.0/16")};
  std::uint64_t before = topo.attr_registry()->pool_stats().interns;
  provider.announce(prefixes);
  topo.run_for(core::Duration::seconds(2));
  for (const auto& p : prefixes) {
    const bgp::Route* route = router.loc_rib().find(p);
    ASSERT_NE(route, nullptr);
    EXPECT_EQ(route->attributes->local_pref,
              bgp::default_local_pref(bgp::Relationship::kProvider));
  }
  EXPECT_EQ(topo.attr_registry()->pool_stats().interns - before, 1u);

  before = topo.attr_registry()->pool_stats().interns;
  provider.withdraw({prefixes[0]});
  topo.run_for(core::Duration::seconds(2));
  EXPECT_EQ(router.loc_rib().find(prefixes[0]), nullptr);
  EXPECT_EQ(topo.attr_registry()->pool_stats().interns - before, 0u);

  // The path [2 1] carries the router's own AS: both NLRI are rejected and
  // the provider's earlier routes for them dropped.
  const std::uint64_t loops = router.counters().routes_rejected_loop;
  before = topo.attr_registry()->pool_stats().interns;
  provider.announce({prefixes[1], prefixes[2]}, {1});
  topo.run_for(core::Duration::seconds(2));
  EXPECT_EQ(router.loc_rib().find(prefixes[1]), nullptr);
  EXPECT_EQ(router.loc_rib().find(prefixes[2]), nullptr);
  EXPECT_EQ(router.counters().routes_rejected_loop - loops, 2u);
  EXPECT_EQ(topo.attr_registry()->pool_stats().interns - before, 0u);
  EXPECT_TRUE(peer.received.empty());
}

// A re-announcement of the stored path is no change: the winner keeps its
// installed-at and no decision runs. A different tail replaces the
// candidate: the winner's installed-at moves to the new announcement and
// one decision runs.
TEST(ImportOncePerUpdate, ReannouncementKeepsAgeAndRunsNoDecision) {
  MiniTopo topo;
  auto& router = topo.add_router(1);
  auto& provider =
      ScriptedPeer::attach(topo, router, 2, gao(bgp::Relationship::kProvider));
  topo.start();
  topo.run_for(core::Duration::seconds(2));
  ASSERT_TRUE(provider.established());
  const auto& runs =
      topo.net().telemetry().metrics().counter("bgp.decision.runs");

  const auto prefix = pfx("10.9.0.0/16");
  provider.announce({prefix}, {7});
  topo.run_for(core::Duration::seconds(2));
  const bgp::Route* route = router.loc_rib().find(prefix);
  ASSERT_NE(route, nullptr);
  const core::TimePoint installed = route->installed_at;
  const std::int64_t before = runs.value();

  provider.announce({prefix}, {7});
  topo.run_for(core::Duration::seconds(2));
  route = router.loc_rib().find(prefix);
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->installed_at, installed);
  EXPECT_EQ(runs.value(), before);

  provider.announce({prefix}, {8});
  topo.run_for(core::Duration::seconds(2));
  route = router.loc_rib().find(prefix);
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->attributes->as_path.to_string(), "2 8");
  EXPECT_GT(route->installed_at, installed);
  EXPECT_EQ(runs.value(), before + 1);
}

// --- the port order of batch sends ----------------------------------------------

// A batch flush sends to its peers in ascending port order, whatever order
// they were added in, their AS numbers or the order the burst dirtied them.
// Ports 0, 1 and 2 belong to customers AS 30, 10 and 20, added in
// descending port order; MRAI paces announcements to AS 30 only. AS 20's
// session drops: 10.8.0.0/16 falls back to AS 10's longer path, which is
// announced at once to AS 10 and waits for MRAI towards AS 30, and
// 10.9.0.0/16 is withdrawn from both. The burst dirties AS 10 before AS 30,
// yet AS 30's withdrawal leaves first.
TEST(ExportFanOut, BatchUpdatesLeaveInAscendingPortOrder) {
  MiniTopo topo;
  topo.log().set_min_level(core::LogLevel::kDebug);
  auto& router = topo.add_router(1);
  std::vector<ScriptedPeer::Link> links;
  for (const std::uint32_t asn : {30u, 10u, 20u}) {
    links.push_back(
        ScriptedPeer::link(topo, router, asn, gao(bgp::Relationship::kCustomer)));
  }
  ASSERT_LT(links[0].router_port, links[1].router_port);
  ASSERT_LT(links[1].router_port, links[2].router_port);
  links[1].config.mrai = core::Duration::zero();
  links[2].config.mrai = core::Duration::zero();
  for (auto it = links.rbegin(); it != links.rend(); ++it) {
    router.add_peer(it->router_port, it->config);
  }
  ScriptedPeer& as10 = *links[1].peer;
  ScriptedPeer& as20 = *links[2].peer;
  topo.start();
  topo.run_for(core::Duration::seconds(2));
  for (const auto& l : links) ASSERT_TRUE(l.peer->established());

  const auto fallback = pfx("10.8.0.0/16");
  const auto lost = pfx("10.9.0.0/16");
  as20.announce({fallback, lost});
  as10.announce({fallback}, {99});
  topo.run_for(core::Duration::seconds(2));
  const std::size_t before = topo.log().filter("update_tx", "bgp.AS1").size();
  topo.net().set_link_up(topo.net().find_link(router.id(), as20.id()), false);
  topo.run_for(core::Duration::seconds(2));

  std::vector<std::string> sent;
  for (const auto& rec : topo.log().filter("update_tx", "bgp.AS1")) {
    sent.push_back(rec.detail);
  }
  ASSERT_GE(sent.size(), before);
  sent.erase(sent.begin(), sent.begin() + static_cast<std::ptrdiff_t>(before));
  const auto announce = [](const ScriptedPeer::Link& l) {
    return "announce{10.8.0.0/16} path=[1 10 99] nh=" +
           l.config.local_address.to_string() + " origin=IGP";
  };
  const std::vector<std::string> want = {
      "to AS30 UPDATE withdraw{10.9.0.0/16}",
      "to AS10 UPDATE withdraw{10.9.0.0/16} " + announce(links[1]),
      "to AS30 UPDATE " + announce(links[0]),
  };
  EXPECT_EQ(sent, want);
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

// A session reset ends the MRAI window without a sample: the table
// transfer of the next session is not paced by the cancelled timer.
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
