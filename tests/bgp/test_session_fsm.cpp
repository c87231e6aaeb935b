// Session FSM tests over an in-memory transport: establishment, keepalive
// maintenance, hold-timer expiry, notifications, decode errors, restart.
#include <gtest/gtest.h>

#include <memory>

#include "bgp/session.hpp"
#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "core/random.hpp"
#include "telemetry/trace.hpp"

namespace bgpsdn::bgp {
namespace {

/// SessionHost wired straight to a peer session through the event loop.
class Harness : public SessionHost {
 public:
  Harness(core::EventLoop& loop, std::string name)
      : loop_{loop}, name_{std::move(name)} {}

  void connect_to(Harness& peer) { peer_ = &peer; }
  void set_link_up(bool up) { link_up_ = up; }

  void session_transmit(Session&, net::Bytes wire) override {
    if (!link_up_ || peer_ == nullptr || peer_->session == nullptr) return;
    Harness* peer = peer_;
    loop_.schedule(core::Duration::millis(1), [peer, wire = std::move(wire)] {
      if (peer->link_up_ && peer->session) peer->session->receive(wire);
    });
  }
  void session_established(Session&) override { ++established_count; }
  void session_down(Session&, const std::string& reason) override {
    ++down_count;
    last_reason = reason;
  }
  void session_update(Session&, UpdateMessage update) override {
    updates.push_back(update);
  }
  const std::string& session_log_name() const override { return name_; }

  std::unique_ptr<Session> session;
  int established_count{0};
  int down_count{0};
  std::string last_reason;
  std::vector<UpdateMessage> updates;

 private:
  core::EventLoop& loop_;
  std::string name_;
  Harness* peer_{nullptr};
  bool link_up_{true};
};

class SessionFsmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a = std::make_unique<Harness>(loop, "a");
    b = std::make_unique<Harness>(loop, "b");
    a->connect_to(*b);
    b->connect_to(*a);
    a->session = make_session(*a, config(1, 65001, 65002));
    b->session = make_session(*b, config(2, 65002, 65001));
  }

  std::unique_ptr<Session> make_session(Harness& host, SessionConfig c) {
    return std::make_unique<Session>(host, SessionEnv{loop, rng, log, tel},
                                     std::move(c));
  }

  SessionConfig config(std::uint32_t id, std::uint32_t local_as,
                       std::uint32_t peer_as) {
    SessionConfig c;
    c.id = core::SessionId{id};
    c.local_as = core::AsNumber{local_as};
    c.local_id = net::Ipv4Addr{10, 0, 0, static_cast<std::uint8_t>(id)};
    c.local_address = net::Ipv4Addr{172, 16, 0, static_cast<std::uint8_t>(id)};
    c.remote_address = net::Ipv4Addr{172, 16, 0, static_cast<std::uint8_t>(3 - id)};
    c.expected_peer_as = core::AsNumber{peer_as};
    c.timers.hold = core::Duration::seconds(9);
    c.timers.keepalive = core::Duration::seconds(3);
    return c;
  }

  void run(core::Duration d) { loop.run(loop.now() + d); }

  // The sessions' environment, declared before the harnesses that own them.
  core::EventLoop loop;
  core::Logger log;
  core::Rng rng{3};
  telemetry::Telemetry tel;
  std::unique_ptr<Harness> a, b;
};

TEST_F(SessionFsmTest, EstablishesBothSides) {
  a->session->start();
  b->session->start();
  run(core::Duration::seconds(2));
  EXPECT_TRUE(a->session->established());
  EXPECT_TRUE(b->session->established());
  EXPECT_EQ(a->established_count, 1);
  EXPECT_EQ(b->established_count, 1);
  EXPECT_EQ(a->session->peer_as().value(), 65002u);
  EXPECT_EQ(b->session->peer_as().value(), 65001u);
  EXPECT_TRUE(a->session->codec().four_octet_as);
}

TEST_F(SessionFsmTest, OneSidedStartStillEstablishes) {
  // Only A initiates; B's OPEN is triggered by receiving A's (simultaneous
  // open handling in Connect state).
  a->session->start();
  b->session->start();  // both must at least be started (listening)
  run(core::Duration::seconds(2));
  EXPECT_TRUE(a->session->established());
}

TEST_F(SessionFsmTest, WrongPeerAsRejected) {
  b->session = make_session(*b, config(2, 64999, 65001));
  a->session->start();
  b->session->start();
  run(core::Duration::seconds(3));
  // A expected 65002 but got 64999: NOTIFICATION and no establishment.
  EXPECT_FALSE(a->session->established());
  EXPECT_GT(a->session->counters().notifications_tx, 0u);
}

TEST_F(SessionFsmTest, UpdatesFlowWhenEstablished) {
  a->session->start();
  b->session->start();
  run(core::Duration::seconds(2));
  UpdateMessage u;
  u.attributes.as_path = AsPath{{core::AsNumber{65001}}};
  u.attributes.next_hop = net::Ipv4Addr{172, 16, 0, 1};
  u.nlri = {*net::Prefix::parse("10.0.0.0/16")};
  a->session->send_update(u);
  run(core::Duration::seconds(1));
  ASSERT_EQ(b->updates.size(), 1u);
  EXPECT_EQ(b->updates[0], u);
  EXPECT_EQ(a->session->counters().updates_tx, 1u);
  EXPECT_EQ(b->session->counters().updates_rx, 1u);
}

TEST_F(SessionFsmTest, SendUpdateIgnoredWhenNotEstablished) {
  UpdateMessage u;
  u.nlri = {*net::Prefix::parse("10.0.0.0/16")};
  a->session->send_update(u);
  run(core::Duration::seconds(1));
  EXPECT_EQ(a->session->counters().updates_tx, 0u);
}

TEST_F(SessionFsmTest, KeepalivesMaintainSession) {
  a->session->start();
  b->session->start();
  run(core::Duration::seconds(60));  // many hold periods
  EXPECT_TRUE(a->session->established());
  EXPECT_TRUE(b->session->established());
  EXPECT_GT(a->session->counters().keepalives_rx, 5u);
  EXPECT_EQ(a->down_count, 0);
}

TEST_F(SessionFsmTest, HoldTimerExpiresWhenPeerSilent) {
  a->session->start();
  b->session->start();
  run(core::Duration::seconds(2));
  ASSERT_TRUE(a->session->established());
  // Cut B's transmissions (A hears nothing more).
  b->set_link_up(false);
  run(core::Duration::seconds(30));
  EXPECT_FALSE(a->session->established());
  EXPECT_EQ(a->down_count, 1);
  EXPECT_NE(a->last_reason.find("hold timer"), std::string::npos);
}

TEST_F(SessionFsmTest, AutoRestartAfterFailure) {
  a->session->start();
  b->session->start();
  run(core::Duration::seconds(2));
  b->set_link_up(false);
  run(core::Duration::seconds(30));
  ASSERT_FALSE(a->session->established());
  // Heal the link; hold-timer failure scheduled an automatic reconnect.
  b->set_link_up(true);
  // B's session also dropped (its hold timer saw silence from A's
  // perspective? B kept hearing A. Stop B manually to resync both sides).
  b->session->stop("test reset");
  b->session->start();
  run(core::Duration::seconds(40));
  EXPECT_TRUE(a->session->established());
  EXPECT_TRUE(b->session->established());
}

TEST_F(SessionFsmTest, StopIsQuietAndIdempotent) {
  a->session->start();
  b->session->start();
  run(core::Duration::seconds(2));
  a->session->stop("admin");
  EXPECT_EQ(a->down_count, 1);
  a->session->stop("admin again");
  EXPECT_EQ(a->down_count, 1);  // no double notification
  EXPECT_EQ(a->session->state(), SessionState::kIdle);
}

TEST_F(SessionFsmTest, GarbageBytesTriggerNotification) {
  a->session->start();
  b->session->start();
  run(core::Duration::seconds(2));
  ASSERT_TRUE(b->session->established());
  b->session->receive(std::vector<std::byte>{std::byte{1}, std::byte{2}});
  EXPECT_FALSE(b->session->established());
  EXPECT_EQ(b->session->counters().decode_errors, 1u);
  run(core::Duration::seconds(1));
  // A received the NOTIFICATION and dropped too.
  EXPECT_FALSE(a->session->established());
  EXPECT_GT(a->session->counters().notifications_rx, 0u);
}

TEST_F(SessionFsmTest, FlapCounterTracksDowns) {
  a->session->start();
  b->session->start();
  run(core::Duration::seconds(2));
  a->session->stop("1");
  a->session->start();
  run(core::Duration::seconds(2));
  a->session->stop("2");
  EXPECT_EQ(a->session->counters().flaps, 2u);
}

TEST_F(SessionFsmTest, StopResetsNegotiatedHoldTime) {
  // Regression: stop() must forget the dead connection's negotiated hold
  // time. A restarted session that kept a short negotiated hold (4 s here)
  // would expire its OpenSent hold timer off the stale value instead of the
  // configured 9 s and NOTIFY/flap while the peer is merely slow to return.
  auto cb = config(2, 65002, 65001);
  cb.timers.hold = core::Duration::seconds(4);
  b->session = make_session(*b, cb);
  a->session->start();
  b->session->start();
  run(core::Duration::seconds(2));
  ASSERT_TRUE(a->session->established());
  ASSERT_EQ(a->session->negotiated_hold_s(), 4u);

  a->session->stop("maintenance");
  EXPECT_EQ(a->session->negotiated_hold_s(), 0u);

  // Restart towards a dead peer: only the configured hold may govern.
  a->set_link_up(false);
  b->set_link_up(false);
  const auto notifications_before = a->session->counters().notifications_tx;
  a->session->start();
  run(core::Duration::seconds(5));  // past the stale 4 s, short of 9 s
  EXPECT_EQ(a->session->state(), SessionState::kOpenSent);
  EXPECT_EQ(a->session->counters().notifications_tx, notifications_before);
}

TEST_F(SessionFsmTest, StateNamesAreStable) {
  EXPECT_STREQ(to_string(SessionState::kIdle), "Idle");
  EXPECT_STREQ(to_string(SessionState::kEstablished), "Established");
}

}  // namespace
}  // namespace bgpsdn::bgp
