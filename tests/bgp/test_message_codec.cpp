// RFC 4271 wire codec tests: round-trips, capability negotiation,
// rejection of malformed input (truncation fuzzing included), and the bytes
// a session puts on the wire.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bgp/message.hpp"
#include "bgp/session.hpp"
#include "bgp/wire.hpp"
#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "core/random.hpp"
#include "telemetry/trace.hpp"

namespace bgpsdn::bgp {
namespace {

PathAttributes sample_attrs() {
  PathAttributes a;
  a.origin = Origin::kEgp;
  a.as_path = AsPath{{core::AsNumber{65001}, core::AsNumber{3}, core::AsNumber{1}}};
  a.next_hop = *net::Ipv4Addr::parse("172.16.0.1");
  a.med = 50;
  a.local_pref = 130;
  a.communities = {0x00010002u, 0xffff0001u};
  return a;
}

TEST(MessageCodec, OpenRoundTrip) {
  OpenMessage open;
  open.my_as = core::AsNumber{65010};
  open.hold_time_s = 90;
  open.bgp_id = *net::Ipv4Addr::parse("10.0.0.1");
  open.four_octet_as = true;

  const auto wire = encode(open);
  const auto back = decode(wire);
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(std::holds_alternative<OpenMessage>(*back));
  EXPECT_EQ(std::get<OpenMessage>(*back), open);
}

TEST(MessageCodec, OpenWithFourOctetAsNumber) {
  OpenMessage open;
  open.my_as = core::AsNumber{400000};  // > 16 bit
  open.bgp_id = *net::Ipv4Addr::parse("10.0.0.1");
  open.four_octet_as = true;
  const auto back = decode(encode(open));
  ASSERT_TRUE(back.has_value());
  // The 2-byte field holds AS_TRANS; the capability carries the real ASN.
  EXPECT_EQ(std::get<OpenMessage>(*back).my_as.value(), 400000u);
}

TEST(MessageCodec, OpenWithoutCapabilityFallsBackToTwoOctets) {
  OpenMessage open;
  open.my_as = core::AsNumber{65002};
  open.bgp_id = *net::Ipv4Addr::parse("10.0.0.2");
  open.four_octet_as = false;
  const auto back = decode(encode(open));
  ASSERT_TRUE(back.has_value());
  const auto& m = std::get<OpenMessage>(*back);
  EXPECT_FALSE(m.four_octet_as);
  EXPECT_EQ(m.my_as.value(), 65002u);
}

TEST(MessageCodec, KeepaliveRoundTrip) {
  const auto wire = encode(KeepaliveMessage{});
  EXPECT_EQ(wire.size(), 19u);  // marker 16 + len 2 + type 1
  const auto back = decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(std::holds_alternative<KeepaliveMessage>(*back));
}

TEST(MessageCodec, NotificationRoundTrip) {
  NotificationMessage n;
  n.code = 6;
  n.subcode = 2;
  n.data = {std::byte{0xde}, std::byte{0xad}};
  const auto back = decode(encode(n));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<NotificationMessage>(*back), n);
}

TEST(MessageCodec, UpdateAnnounceRoundTrip) {
  UpdateMessage u;
  u.attributes = sample_attrs();
  u.nlri = {*net::Prefix::parse("10.0.0.0/16"), *net::Prefix::parse("10.1.0.0/16")};
  const auto back = decode(encode(u));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<UpdateMessage>(*back), u);
}

TEST(MessageCodec, UpdateWithdrawRoundTrip) {
  UpdateMessage u;
  u.withdrawn = {*net::Prefix::parse("10.0.0.0/16"),
                 *net::Prefix::parse("192.168.4.0/24")};
  const auto back = decode(encode(u));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<UpdateMessage>(*back), u);
}

TEST(MessageCodec, UpdateMixedRoundTrip) {
  UpdateMessage u;
  u.withdrawn = {*net::Prefix::parse("172.20.0.0/14")};
  u.attributes = sample_attrs();
  u.nlri = {*net::Prefix::parse("10.2.0.0/16")};
  const auto back = decode(encode(u));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<UpdateMessage>(*back), u);
}

TEST(MessageCodec, UpdateTwoOctetAsPath) {
  UpdateMessage u;
  u.attributes = sample_attrs();
  u.attributes.as_path = AsPath{{core::AsNumber{100}, core::AsNumber{200}}};
  u.nlri = {*net::Prefix::parse("10.0.0.0/16")};
  const CodecOptions legacy{.four_octet_as = false};
  const auto back = decode(encode(u, legacy), legacy);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<UpdateMessage>(*back).attributes.as_path,
            u.attributes.as_path);
}

TEST(MessageCodec, TwoOctetEncodingSubstitutesAsTrans) {
  UpdateMessage u;
  u.attributes = sample_attrs();
  u.attributes.as_path = AsPath{{core::AsNumber{400000}}};
  u.nlri = {*net::Prefix::parse("10.0.0.0/16")};
  const CodecOptions legacy{.four_octet_as = false};
  const auto back = decode(encode(u, legacy), legacy);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<UpdateMessage>(*back).attributes.as_path.hops()[0].value(),
            static_cast<std::uint32_t>(kAsTrans));
}

TEST(MessageCodec, EmptyAsPathRoundTrip) {
  UpdateMessage u;
  u.attributes = sample_attrs();
  u.attributes.as_path = AsPath{};
  u.nlri = {*net::Prefix::parse("10.0.0.0/16")};
  const auto back = decode(encode(u));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(std::get<UpdateMessage>(*back).attributes.as_path.empty());
}

TEST(MessageCodec, OptionalAttributesAbsent) {
  UpdateMessage u;
  u.attributes.origin = Origin::kIgp;
  u.attributes.as_path = AsPath{{core::AsNumber{1}}};
  u.attributes.next_hop = *net::Ipv4Addr::parse("1.1.1.1");
  u.nlri = {*net::Prefix::parse("10.0.0.0/16")};
  const auto back = decode(encode(u));
  ASSERT_TRUE(back.has_value());
  const auto& m = std::get<UpdateMessage>(*back);
  EXPECT_FALSE(m.attributes.med.has_value());
  EXPECT_FALSE(m.attributes.local_pref.has_value());
  EXPECT_TRUE(m.attributes.communities.empty());
}

TEST(MessageCodec, OddPrefixLengthsPackCorrectly) {
  // Prefix lengths that do not fall on byte boundaries exercise the
  // variable-length NLRI encoding.
  for (const char* s : {"128.0.0.0/1", "10.64.0.0/11", "10.1.2.0/23",
                        "10.1.2.128/25", "1.2.3.4/32", "0.0.0.0/0"}) {
    UpdateMessage u;
    u.attributes = sample_attrs();
    u.nlri = {*net::Prefix::parse(s)};
    const auto back = decode(encode(u));
    ASSERT_TRUE(back.has_value()) << s;
    EXPECT_EQ(std::get<UpdateMessage>(*back).nlri[0].to_string(), s);
  }
}

TEST(MessageCodec, RejectsBadMarker) {
  auto wire = encode(KeepaliveMessage{});
  wire[3] = std::byte{0x00};
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(MessageCodec, RejectsLengthMismatch) {
  auto wire = encode(KeepaliveMessage{});
  wire.push_back(std::byte{0});  // trailing garbage
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(MessageCodec, RejectsUnknownType) {
  auto wire = encode(KeepaliveMessage{});
  wire[18] = std::byte{9};
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(MessageCodec, RejectsNlriWithoutAttributes) {
  // Hand-build an UPDATE with NLRI but zero path-attribute length.
  ByteWriter w;
  for (int i = 0; i < 16; ++i) w.u8(0xff);
  const auto len_pos = w.size();
  w.u16(0);
  w.u8(2);   // UPDATE
  w.u16(0);  // withdrawn len
  w.u16(0);  // path attr len
  w.u8(8);   // NLRI /8
  w.u8(10);
  w.patch_u16(len_pos, static_cast<std::uint16_t>(w.size()));
  EXPECT_FALSE(decode(w.take()).has_value());
}

TEST(MessageCodec, RejectsPrefixLengthOver32) {
  ByteWriter w;
  for (int i = 0; i < 16; ++i) w.u8(0xff);
  const auto len_pos = w.size();
  w.u16(0);
  w.u8(2);
  w.u16(2);  // withdrawn len
  w.u8(40);  // bogus prefix length
  w.u8(10);
  w.u16(0);
  w.patch_u16(len_pos, static_cast<std::uint16_t>(w.size()));
  EXPECT_FALSE(decode(w.take()).has_value());
}

TEST(MessageCodec, SplitUpdateFitsWithinLimit) {
  UpdateMessage u;
  u.attributes = sample_attrs();
  for (std::uint32_t i = 0; i < 2000; ++i) {
    u.nlri.push_back(net::Prefix{net::Ipv4Addr{(10u << 24) | (i << 8)}, 24});
    u.withdrawn.push_back(net::Prefix{net::Ipv4Addr{(11u << 24) | (i << 8)}, 24});
  }
  ASSERT_GT(encode(u).size(), kMaxMessageSize);

  const auto pieces = split_update(u);
  ASSERT_GT(pieces.size(), 1u);
  std::size_t nlri_total = 0, withdrawn_total = 0;
  for (const auto& piece : pieces) {
    const auto wire = encode(piece);
    EXPECT_LE(wire.size(), kMaxMessageSize);
    // Every piece decodes cleanly.
    const auto back = decode(wire);
    ASSERT_TRUE(back.has_value());
    nlri_total += piece.nlri.size();
    withdrawn_total += piece.withdrawn.size();
    if (!piece.nlri.empty()) {
      EXPECT_EQ(piece.attributes, u.attributes);
    }
  }
  EXPECT_EQ(nlri_total, u.nlri.size());
  EXPECT_EQ(withdrawn_total, u.withdrawn.size());
}

TEST(MessageCodec, SplitUpdatePassthroughWhenSmall) {
  UpdateMessage u;
  u.attributes = sample_attrs();
  u.nlri = {*net::Prefix::parse("10.0.0.0/16")};
  const auto pieces = split_update(u);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], u);
}

// Truncation fuzz: every strict prefix of a valid message must be rejected
// cleanly (no crash, no acceptance). One case per cut point: the range is
// sized to the encoded message.
std::vector<std::byte> truncation_sample() {
  UpdateMessage u;
  u.withdrawn = {*net::Prefix::parse("172.20.0.0/14")};
  u.attributes = sample_attrs();
  u.nlri = {*net::Prefix::parse("10.2.0.0/16")};
  return encode(u);
}

class TruncationFuzz : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TruncationFuzz, TruncatedUpdateRejected) {
  auto wire = truncation_sample();
  const std::size_t cut = GetParam();
  ASSERT_LT(cut, wire.size());
  wire.resize(cut);
  // Truncated frames fail the length check.
  EXPECT_FALSE(decode(wire).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    AllTruncationPoints, TruncationFuzz,
    ::testing::Range<std::size_t>(0, truncation_sample().size(), 1));

// Bit-flip fuzz: flipping any single byte must never crash the decoder. One
// case per byte of the encoded message.
std::vector<std::byte> bit_flip_sample() {
  UpdateMessage u;
  u.attributes = sample_attrs();
  u.nlri = {*net::Prefix::parse("10.2.0.0/16")};
  return encode(u);
}

class BitFlipFuzz : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitFlipFuzz, NoCrashOnCorruption) {
  auto wire = bit_flip_sample();
  const std::size_t pos = GetParam();
  ASSERT_LT(pos, wire.size());
  wire[pos] = static_cast<std::byte>(static_cast<unsigned>(wire[pos]) ^ 0xff);
  (void)decode(wire);  // must not crash; result may be anything valid-typed
}

INSTANTIATE_TEST_SUITE_P(
    AllBytePositions, BitFlipFuzz,
    ::testing::Range<std::size_t>(0, bit_flip_sample().size(), 1));

// --- encode_shared: the fan-out path must be indistinguishable on the wire.

TEST(EncodeShared, UpdateBytesIdenticalToPlainEncode) {
  UpdateMessage u;
  u.attributes = sample_attrs();
  u.nlri = {net::Prefix{net::Ipv4Addr{10, 1, 0, 0}, 16},
            net::Prefix{net::Ipv4Addr{10, 2, 0, 0}, 16}};
  u.withdrawn = {net::Prefix{net::Ipv4Addr{192, 168, 0, 0}, 24}};
  for (const bool four_octet : {true, false}) {
    const CodecOptions opts{.four_octet_as = four_octet};
    const net::Bytes shared = encode_shared(u, opts);
    EXPECT_EQ(shared.vec(), encode(u, opts)) << "four_octet=" << four_octet;
  }
}

TEST(EncodeShared, KeepaliveBytesIdenticalAndStaticallyShared) {
  const net::Bytes a = encode_shared(Message{KeepaliveMessage{}});
  const net::Bytes b = encode_shared(Message{KeepaliveMessage{}});
  EXPECT_EQ(a.vec(), encode(Message{KeepaliveMessage{}}));
  EXPECT_EQ(a.data(), b.data());  // one static wire image per thread
}

TEST(EncodeShared, RepeatedUpdateSharesOneBuffer) {
  UpdateMessage u;
  u.attributes = sample_attrs();
  u.nlri = {net::Prefix{net::Ipv4Addr{10, 9, 0, 0}, 16}};
  const net::Bytes first = encode_shared(u);
  const net::Bytes second = encode_shared(u);
  EXPECT_EQ(first.data(), second.data());  // cache hit: encoded once
  EXPECT_EQ(first.vec(), encode(u));
}

TEST(EncodeShared, CodecWidthIsPartOfTheCacheKey) {
  UpdateMessage u;
  u.attributes = sample_attrs();
  u.nlri = {net::Prefix{net::Ipv4Addr{10, 8, 0, 0}, 16}};
  const net::Bytes wide = encode_shared(u, {.four_octet_as = true});
  const net::Bytes narrow = encode_shared(u, {.four_octet_as = false});
  EXPECT_NE(wide.data(), narrow.data());
  EXPECT_EQ(wide.vec(), encode(u, {.four_octet_as = true}));
  EXPECT_EQ(narrow.vec(), encode(u, {.four_octet_as = false}));
}

/// A bare session host that records every wire image the session hands it.
class RecordingHost : public SessionHost {
 public:
  void session_transmit(Session&, net::Bytes wire) override {
    sent.push_back(wire.vec());
  }
  void session_established(Session&) override {}
  void session_down(Session&, const std::string&) override {}
  void session_update(Session&, UpdateMessage) override {}
  const std::string& session_log_name() const override { return name; }

  // The environment of the session this host carries.
  core::EventLoop loop;
  core::Rng rng{7};
  core::Logger logger;
  telemetry::Telemetry tel;
  std::string name{"host"};
  std::vector<std::vector<std::byte>> sent;
};

std::vector<net::Prefix> random_prefixes(core::Rng& rng) {
  // Half the draws stay small, so both whole and split sends are common.
  const std::int64_t most = rng.chance(0.5) ? 20 : 1500;
  std::vector<net::Prefix> out(static_cast<std::size_t>(rng.uniform_int(0, most)));
  for (auto& p : out) {
    p = net::Prefix{net::Ipv4Addr{static_cast<std::uint32_t>(
                        rng.uniform_int(0, 0xffffffffLL))},
                    static_cast<std::uint8_t>(rng.uniform_int(0, 32))};
  }
  return out;
}

UpdateMessage random_update(core::Rng& rng, bool communities) {
  UpdateMessage u;
  u.withdrawn = random_prefixes(rng);
  u.nlri = random_prefixes(rng);
  std::vector<core::AsNumber> hops(static_cast<std::size_t>(rng.uniform_int(1, 12)));
  for (auto& as : hops) {
    // Some hops need four octets, so the two-octet codec writes AS_TRANS.
    as = core::AsNumber{static_cast<std::uint32_t>(
        rng.uniform_int(1, rng.chance(0.3) ? 0xffffffffLL : 0xffffLL))};
  }
  u.attributes.as_path = AsPath{std::move(hops)};
  u.attributes.next_hop =
      net::Ipv4Addr{static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL))};
  if (rng.chance(0.5)) u.attributes.med = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
  if (rng.chance(0.5)) {
    u.attributes.local_pref = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
  }
  if (communities) {
    u.attributes.communities.resize(static_cast<std::size_t>(rng.uniform_int(1, 10)));
    for (auto& c : u.attributes.communities) {
      c = static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL));
    }
  }
  return u;
}

// Session::send_update encodes an UPDATE once and splits only what exceeds
// the 4096-byte cap: the bytes it hands the host are encode() of each
// split_update() piece, in order, for UPDATEs of every size (0 to 1500 NLRI
// and withdrawn prefixes), both AS widths, with and without communities.
TEST(EncodeShared, SendUpdateMatchesSplitEncode) {
  core::Rng rng{2020};
  std::size_t whole_sends = 0;
  std::size_t split_sends = 0;
  for (const bool four_octet : {true, false}) {
    RecordingHost host;
    SessionConfig config;
    config.id = core::SessionId{1};
    config.local_as = core::AsNumber{65001};
    config.local_id = net::Ipv4Addr{10, 0, 0, 1};
    Session session{host, {host.loop, host.rng, host.logger, host.tel}, config};
    session.start();
    host.loop.run(host.loop.now() + core::Duration::seconds(1));
    OpenMessage open;
    open.my_as = core::AsNumber{65002};
    open.bgp_id = net::Ipv4Addr{10, 0, 0, 2};
    open.four_octet_as = four_octet;
    session.receive(encode(Message{open}));
    session.receive(encode(Message{KeepaliveMessage{}}));
    ASSERT_TRUE(session.established());
    ASSERT_EQ(session.codec().four_octet_as, four_octet);

    for (const bool communities : {false, true}) {
      for (int i = 0; i < 40; ++i) {
        const UpdateMessage u = random_update(rng, communities);
        std::vector<std::vector<std::byte>> want;
        for (const auto& piece : split_update(u, session.codec())) {
          want.push_back(encode(piece, session.codec()));
        }
        ++(want.size() > 1 ? split_sends : whole_sends);
        host.sent.clear();
        session.send_update(u);
        ASSERT_EQ(host.sent, want)
            << "four_octet=" << four_octet << " communities=" << communities
            << " update " << i << ": " << u.nlri.size() << " NLRI, "
            << u.withdrawn.size() << " withdrawn";
      }
    }
  }
  EXPECT_GT(whole_sends, 0u);
  EXPECT_GT(split_sends, 0u);
}

TEST(EncodeShared, OpenFallsThroughToPlainEncoding) {
  OpenMessage open;
  open.my_as = core::AsNumber{65010};
  open.bgp_id = *net::Ipv4Addr::parse("10.0.0.1");
  const net::Bytes wire = encode_shared(Message{open});
  EXPECT_EQ(wire.vec(), encode(Message{open}));
  const auto back = decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(std::holds_alternative<OpenMessage>(*back));
}

}  // namespace
}  // namespace bgpsdn::bgp
