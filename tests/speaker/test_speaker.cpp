// ClusterBgpSpeaker tests: relayed-session establishment with the cluster
// AS identity, listener callbacks, announcement dedup, resets.
//
// The speaker peers with a real BgpRouter over a direct link (the border
// switch relay is transparent, so a direct wire exercises the same code).
#include <gtest/gtest.h>

#include "bgp/router.hpp"
#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "core/random.hpp"
#include "net/network.hpp"
#include "speaker/cluster_speaker.hpp"

namespace bgpsdn::speaker {
namespace {

class RecordingListener : public SpeakerListener {
 public:
  void on_peer_established(const Peering& p) override { ups.push_back(p.id); }
  void on_peer_down(const Peering& p, const std::string& reason) override {
    downs.push_back({p.id, reason});
  }
  void on_route_update(const Peering& p, const bgp::UpdateMessage& u) override {
    updates.push_back({p.id, u});
  }
  std::vector<PeeringId> ups;
  std::vector<std::pair<PeeringId, std::string>> downs;
  std::vector<std::pair<PeeringId, bgp::UpdateMessage>> updates;
};

class SpeakerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    log.set_min_level(core::LogLevel::kInfo);
    speaker = &net.add<ClusterBgpSpeaker>("spk", quick_timers(), store);
    speaker->set_listener(&listener);

    bgp::RouterConfig rc;
    rc.asn = core::AsNumber{100};
    rc.router_id = net::Ipv4Addr{10, 0, 0, 100};
    rc.timers = quick_timers();
    rc.attr_registry = store;
    router = &net.add<bgp::BgpRouter>("AS100", rc);

    link = net.connect(speaker->id(), router->id(),
                       {core::Duration::millis(2), 0, 0.0});
    const auto& l = net.link(link);

    Peering peering;
    peering.cluster_as = core::AsNumber{7};  // the member AS this session represents
    peering.border_dpid = 42;
    peering.switch_external_port = core::PortId{3};
    peering.local_address = net::Ipv4Addr{172, 16, 0, 1};
    peering.remote_address = net::Ipv4Addr{172, 16, 0, 2};
    peering.expected_peer_as = core::AsNumber{100};
    pid = speaker->add_peering(l.a.port, peering);

    bgp::PeerConfig pc;
    pc.local_address = net::Ipv4Addr{172, 16, 0, 2};
    pc.remote_address = net::Ipv4Addr{172, 16, 0, 1};
    pc.expected_peer_as = core::AsNumber{7};
    router->add_peer(l.b.port, pc);
  }

  static bgp::Timers quick_timers() {
    bgp::Timers t;
    t.mrai = core::Duration::millis(100);
    t.hold = core::Duration::seconds(9);
    t.keepalive = core::Duration::seconds(3);
    return t;
  }

  void establish() {
    net.start_all();
    loop.run(loop.now() + core::Duration::seconds(3));
    ASSERT_TRUE(speaker->peering_established(pid));
  }

  bgp::PathAttributes attrs(std::vector<std::uint32_t> path) {
    bgp::PathAttributes a;
    std::vector<core::AsNumber> hops;
    for (const auto as : path) hops.emplace_back(as);
    a.as_path = bgp::AsPath{std::move(hops)};
    a.next_hop = net::Ipv4Addr{172, 16, 0, 1};
    return a;
  }

  core::EventLoop loop;
  core::Logger log;
  core::Rng rng{1};
  net::Network net{loop, log, rng};
  bgp::AttrRegistryRef store = std::make_shared<bgp::AttrRegistry>();
  ClusterBgpSpeaker* speaker{};
  bgp::BgpRouter* router{};
  RecordingListener listener;
  core::LinkId link;
  PeeringId pid{};
};

TEST_F(SpeakerTest, EstablishesWithClusterAsIdentity) {
  establish();
  ASSERT_EQ(listener.ups.size(), 1u);
  EXPECT_EQ(listener.ups[0], pid);
  // The legacy router believes it peers with AS7 — the cluster member.
  ASSERT_EQ(router->sessions().size(), 1u);
  EXPECT_EQ(router->sessions()[0]->peer_as().value(), 7u);
}

TEST_F(SpeakerTest, RoutesFromLegacyReachListener) {
  router->originate(*net::Prefix::parse("10.100.0.0/16"));
  establish();
  loop.run(loop.now() + core::Duration::seconds(2));
  ASSERT_GE(listener.updates.size(), 1u);
  const auto& [id, update] = listener.updates.front();
  EXPECT_EQ(id, pid);
  ASSERT_EQ(update.nlri.size(), 1u);
  EXPECT_EQ(update.nlri[0].to_string(), "10.100.0.0/16");
  EXPECT_EQ(update.attributes.as_path.to_string(), "100");
}

TEST_F(SpeakerTest, AnnouncePropagatesToLegacyRouter) {
  establish();
  const auto pfx = *net::Prefix::parse("10.7.0.0/16");
  speaker->announce(pid, pfx, attrs({7}));
  loop.run(loop.now() + core::Duration::seconds(2));
  const bgp::Route* r = router->loc_rib().find(pfx);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->attributes->as_path.to_string(), "7");
}

TEST_F(SpeakerTest, DuplicateAnnouncementsSuppressed) {
  establish();
  const auto pfx = *net::Prefix::parse("10.7.0.0/16");
  speaker->announce(pid, pfx, attrs({7}));
  speaker->announce(pid, pfx, attrs({7}));
  speaker->announce(pid, pfx, attrs({7}));
  EXPECT_EQ(speaker->counters().announces_tx, 1u);
  // A changed path does go out.
  speaker->announce(pid, pfx, attrs({7, 9}));
  EXPECT_EQ(speaker->counters().announces_tx, 2u);
}

TEST_F(SpeakerTest, WithdrawOnlyAfterAdvertise) {
  establish();
  const auto pfx = *net::Prefix::parse("10.7.0.0/16");
  speaker->withdraw(pid, pfx);  // nothing advertised yet
  EXPECT_EQ(speaker->counters().withdraws_tx, 0u);
  speaker->announce(pid, pfx, attrs({7}));
  speaker->withdraw(pid, pfx);
  EXPECT_EQ(speaker->counters().withdraws_tx, 1u);
  loop.run(loop.now() + core::Duration::seconds(2));
  EXPECT_EQ(router->loc_rib().find(pfx), nullptr);
}

TEST_F(SpeakerTest, AnnounceIgnoredWhenDown) {
  // Never started: session idle.
  speaker->announce(pid, *net::Prefix::parse("10.7.0.0/16"), attrs({7}));
  EXPECT_EQ(speaker->counters().announces_tx, 0u);
}

TEST_F(SpeakerTest, ResetTearsDownAndRecovers) {
  establish();
  speaker->reset_peering(pid, "border port down");
  EXPECT_EQ(speaker->counters().resets, 1u);
  ASSERT_EQ(listener.downs.size(), 1u);
  EXPECT_EQ(listener.downs[0].second, "border port down");
  EXPECT_FALSE(speaker->peering_established(pid));
  // Auto-restart (speaker side) plus the peer's passive open re-establish.
  loop.run(loop.now() + core::Duration::seconds(20));
  EXPECT_TRUE(speaker->peering_established(pid));
  EXPECT_GE(listener.ups.size(), 2u);
}

TEST_F(SpeakerTest, RibOutClearedOnReset) {
  establish();
  const auto pfx = *net::Prefix::parse("10.7.0.0/16");
  speaker->announce(pid, pfx, attrs({7}));
  EXPECT_EQ(speaker->counters().announces_tx, 1u);
  speaker->reset_peering(pid, "reset");
  loop.run(loop.now() + core::Duration::seconds(20));
  ASSERT_TRUE(speaker->peering_established(pid));
  // After the reset the same announcement is fresh again (not deduped).
  speaker->announce(pid, pfx, attrs({7}));
  EXPECT_EQ(speaker->counters().announces_tx, 2u);
}

TEST_F(SpeakerTest, LinkFailureDropsSession) {
  establish();
  net.set_link_up(link, false);
  EXPECT_FALSE(speaker->peering_established(pid));
  ASSERT_EQ(listener.downs.size(), 1u);
  net.set_link_up(link, true);
  loop.run(loop.now() + core::Duration::seconds(10));
  EXPECT_TRUE(speaker->peering_established(pid));
}

TEST_F(SpeakerTest, PeeringAccessors) {
  ASSERT_NE(speaker->peering(pid), nullptr);
  EXPECT_EQ(speaker->peering(pid)->cluster_as.value(), 7u);
  EXPECT_EQ(speaker->peering(pid)->border_dpid, 42u);
  EXPECT_EQ(speaker->peering(999), nullptr);
  EXPECT_EQ(speaker->peerings().size(), 1u);
}

}  // namespace
}  // namespace bgpsdn::speaker
