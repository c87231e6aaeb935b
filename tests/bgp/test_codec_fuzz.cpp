// Randomized codec property test: any well-formed UPDATE the framework can
// construct must round-trip bit-exactly through the RFC 4271 wire format,
// in both AS-width modes, at any size (including ones that require
// splitting) — plus a live-session fuzz where the transport itself flips
// bits in flight.
#include <gtest/gtest.h>

#include <memory>

#include "bgp/message.hpp"
#include "bgp/session.hpp"
#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "core/random.hpp"
#include "telemetry/trace.hpp"

namespace bgpsdn::bgp {
namespace {

UpdateMessage random_update(core::Rng& rng, bool big_asns) {
  UpdateMessage u;
  const auto n_withdrawn = rng.uniform_int(0, 6);
  const auto n_nlri = rng.uniform_int(0, 6);
  const auto random_prefix = [&rng] {
    const auto len = static_cast<std::uint8_t>(rng.uniform_int(0, 32));
    const auto bits = static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffll));
    return net::Prefix{net::Ipv4Addr{bits}, len};
  };
  for (int i = 0; i < n_withdrawn; ++i) u.withdrawn.push_back(random_prefix());
  for (int i = 0; i < n_nlri; ++i) u.nlri.push_back(random_prefix());
  // Deduplicate: the codec round-trip compares vectors verbatim, and
  // duplicate prefixes would be legal but pointless.
  std::sort(u.withdrawn.begin(), u.withdrawn.end());
  u.withdrawn.erase(std::unique(u.withdrawn.begin(), u.withdrawn.end()),
                    u.withdrawn.end());
  std::sort(u.nlri.begin(), u.nlri.end());
  u.nlri.erase(std::unique(u.nlri.begin(), u.nlri.end()), u.nlri.end());

  if (!u.nlri.empty()) {
    u.attributes.origin = static_cast<Origin>(rng.uniform_int(0, 2));
    const auto path_len = rng.uniform_int(0, 12);
    std::vector<core::AsNumber> hops;
    for (int i = 0; i < path_len; ++i) {
      hops.emplace_back(static_cast<std::uint32_t>(
          rng.uniform_int(1, big_asns ? 4'000'000'000ll : 65000)));
    }
    u.attributes.as_path = AsPath{std::move(hops)};
    u.attributes.next_hop =
        net::Ipv4Addr{static_cast<std::uint32_t>(rng.uniform_int(1, 0xffffffffll))};
    if (rng.chance(0.5)) {
      u.attributes.med = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));
    }
    if (rng.chance(0.5)) {
      u.attributes.local_pref =
          static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
    }
    const auto n_comm = rng.uniform_int(0, 5);
    for (int i = 0; i < n_comm; ++i) {
      u.attributes.communities.push_back(
          static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffll)));
    }
  }
  return u;
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RandomUpdatesRoundTripFourOctet) {
  core::Rng rng{GetParam()};
  for (int i = 0; i < 50; ++i) {
    const auto u = random_update(rng, /*big_asns=*/true);
    const auto back = decode(encode(u));
    ASSERT_TRUE(back.has_value()) << "iteration " << i;
    EXPECT_EQ(std::get<UpdateMessage>(*back), u) << "iteration " << i;
  }
}

TEST_P(CodecFuzz, RandomUpdatesRoundTripTwoOctet) {
  core::Rng rng{GetParam() + 1000};
  const CodecOptions legacy{.four_octet_as = false};
  for (int i = 0; i < 50; ++i) {
    const auto u = random_update(rng, /*big_asns=*/false);
    const auto back = decode(encode(u, legacy), legacy);
    ASSERT_TRUE(back.has_value()) << "iteration " << i;
    EXPECT_EQ(std::get<UpdateMessage>(*back), u) << "iteration " << i;
  }
}

TEST_P(CodecFuzz, SplitAlwaysFitsAndPreservesContent) {
  core::Rng rng{GetParam() + 2000};
  UpdateMessage u = random_update(rng, true);
  // Inflate to force splitting.
  for (std::uint32_t i = 0; i < 1500; ++i) {
    u.nlri.push_back(net::Prefix{net::Ipv4Addr{(20u << 24) | (i << 8)}, 24});
  }
  if (u.nlri.empty()) return;
  std::sort(u.nlri.begin(), u.nlri.end());
  u.nlri.erase(std::unique(u.nlri.begin(), u.nlri.end()), u.nlri.end());

  std::size_t total = 0;
  for (const auto& piece : split_update(u)) {
    EXPECT_LE(encode(piece).size(), kMaxMessageSize);
    total += piece.nlri.size() + piece.withdrawn.size();
  }
  EXPECT_EQ(total, u.nlri.size() + u.withdrawn.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// Transport that flips 1-3 random bits of a message with probability p —
/// the live-session counterpart of the link-corruption fault.
class CorruptingHost : public SessionHost {
 public:
  CorruptingHost(core::EventLoop& loop, core::Rng& rng, std::string name)
      : loop_{loop}, rng_{rng}, name_{std::move(name)} {}

  void connect_to(CorruptingHost& peer) { peer_ = &peer; }
  void set_corruption(double p) { corrupt_ = p; }

  void session_transmit(Session&, net::Bytes wire) override {
    if (corrupt_ > 0.0 && !wire.empty() && rng_.chance(corrupt_)) {
      const auto flips = rng_.uniform_int(1, 3);
      const auto bits = static_cast<std::int64_t>(wire.size()) * 8;
      auto& bytes = wire.mutate();
      for (std::int64_t i = 0; i < flips; ++i) {
        const auto bit =
            static_cast<std::size_t>(rng_.uniform_int(0, bits - 1));
        bytes[bit / 8] ^= std::byte{static_cast<unsigned char>(1u << (bit % 8))};
      }
      ++corrupted;
    }
    CorruptingHost* peer = peer_;
    loop_.schedule(core::Duration::millis(1), [peer, wire = std::move(wire)] {
      if (peer->session) peer->session->receive(wire);
    });
  }
  void session_established(Session&) override {}
  void session_down(Session&, const std::string&) override {}
  void session_update(Session&, UpdateMessage) override {}
  const std::string& session_log_name() const override { return name_; }

  std::unique_ptr<Session> session;
  int corrupted{0};

 private:
  core::EventLoop& loop_;
  core::Rng& rng_;
  std::string name_;
  CorruptingHost* peer_{nullptr};
  double corrupt_{0.0};
};

class LiveSessionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LiveSessionFuzz, BitFlipsNotifyAndAutoRestartWithoutCrashing) {
  // A session pair exchanges real traffic over a transport that corrupts
  // 20% of messages. The contract under corruption: decode failures answer
  // with a NOTIFICATION and auto-restart — never UB, never a wedged FSM —
  // and once the channel heals the pair re-establishes.
  // The sessions' environment, declared before the hosts that own them.
  core::EventLoop loop;
  core::Logger log;
  core::Rng rng{GetParam()};
  telemetry::Telemetry tel;
  const SessionEnv env{loop, rng, log, tel};
  CorruptingHost a{loop, rng, "a"}, b{loop, rng, "b"};
  a.connect_to(b);
  b.connect_to(a);
  const auto config = [](std::uint32_t id, std::uint32_t local_as,
                         std::uint32_t peer_as) {
    SessionConfig c;
    c.id = core::SessionId{id};
    c.local_as = core::AsNumber{local_as};
    c.local_id = net::Ipv4Addr{10, 0, 0, static_cast<std::uint8_t>(id)};
    c.local_address = net::Ipv4Addr{172, 16, 0, static_cast<std::uint8_t>(id)};
    c.remote_address =
        net::Ipv4Addr{172, 16, 0, static_cast<std::uint8_t>(3 - id)};
    c.expected_peer_as = core::AsNumber{peer_as};
    c.timers.hold = core::Duration::seconds(9);
    c.timers.keepalive = core::Duration::seconds(3);
    return c;
  };
  a.session = std::make_unique<Session>(a, env, config(1, 65001, 65002));
  b.session = std::make_unique<Session>(b, env, config(2, 65002, 65001));
  a.session->start();
  b.session->start();
  loop.run(loop.now() + core::Duration::seconds(2));
  ASSERT_TRUE(a.session->established());

  a.set_corruption(0.2);
  b.set_corruption(0.2);
  for (int i = 0; i < 60; ++i) {
    // Keep UPDATE traffic flowing between keepalives so payload messages
    // are fuzzed too, not just the 19-byte headers.
    if (a.session->established()) {
      UpdateMessage u = random_update(rng, true);
      u.withdrawn.clear();
      if (!u.nlri.empty()) a.session->send_update(u);
    }
    loop.run(loop.now() + core::Duration::seconds(1));
  }
  ASSERT_GT(a.corrupted + b.corrupted, 0);
  const auto errors = a.session->counters().decode_errors +
                      b.session->counters().decode_errors;
  EXPECT_GT(errors, 0u);
  // Every decode error answers with a NOTIFICATION. Assert on the transmit
  // side: the NOTIFICATION itself crosses the corrupting transport, so the
  // peer is not guaranteed to decode (and count) it.
  EXPECT_GT(a.session->counters().notifications_tx +
                b.session->counters().notifications_tx,
            0u);

  // Channel heals: auto-restart must bring the pair back up.
  a.set_corruption(0.0);
  b.set_corruption(0.0);
  loop.run(loop.now() + core::Duration::seconds(30));
  EXPECT_TRUE(a.session->established());
  EXPECT_TRUE(b.session->established());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveSessionFuzz,
                         ::testing::Values(11, 12, 13, 14));

}  // namespace
}  // namespace bgpsdn::bgp
