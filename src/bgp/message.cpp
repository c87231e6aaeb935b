#include "bgp/message.hpp"

#include <algorithm>

#include "bgp/wire.hpp"

namespace bgpsdn::bgp {

namespace {

// Attribute type codes (RFC 4271 / RFC 1997).
constexpr std::uint8_t kAttrOrigin = 1;
constexpr std::uint8_t kAttrAsPath = 2;
constexpr std::uint8_t kAttrNextHop = 3;
constexpr std::uint8_t kAttrMed = 4;
constexpr std::uint8_t kAttrLocalPref = 5;
constexpr std::uint8_t kAttrCommunities = 8;

// Attribute flag bits.
constexpr std::uint8_t kFlagOptional = 0x80;
constexpr std::uint8_t kFlagTransitive = 0x40;
constexpr std::uint8_t kFlagExtendedLen = 0x10;

// OPEN optional parameter / capability codes.
constexpr std::uint8_t kParamCapabilities = 2;
constexpr std::uint8_t kCapFourOctetAs = 65;

constexpr std::uint8_t kAsSequence = 2;

void write_prefix(ByteWriter& w, const net::Prefix& p) {
  w.u8(p.length());
  const std::uint32_t bits = p.network().bits();
  const int n = (p.length() + 7) / 8;
  for (int i = 0; i < n; ++i) w.u8(static_cast<std::uint8_t>(bits >> (24 - 8 * i)));
}

std::optional<net::Prefix> read_prefix(ByteReader& r) {
  const std::uint8_t len = r.u8();
  if (len > 32) {
    r.fail();
    return std::nullopt;
  }
  std::uint32_t bits = 0;
  const int n = (len + 7) / 8;
  for (int i = 0; i < n; ++i) bits |= std::uint32_t{r.u8()} << (24 - 8 * i);
  if (!r.ok()) return std::nullopt;
  return net::Prefix{net::Ipv4Addr{bits}, len};
}

void write_attr_header(ByteWriter& w, std::uint8_t flags, std::uint8_t type,
                       std::uint16_t len) {
  if (len > 255) flags |= kFlagExtendedLen;
  w.u8(flags);
  w.u8(type);
  if (flags & kFlagExtendedLen) {
    w.u16(len);
  } else {
    w.u8(static_cast<std::uint8_t>(len));
  }
}

void encode_attributes(ByteWriter& w, const PathAttributes& attrs,
                       const CodecOptions& opts) {
  // ORIGIN
  write_attr_header(w, kFlagTransitive, kAttrOrigin, 1);
  w.u8(static_cast<std::uint8_t>(attrs.origin));

  // AS_PATH: one AS_SEQUENCE segment (empty path -> zero segments).
  {
    const auto& hops = attrs.as_path.hops();
    const std::uint16_t body =
        hops.empty() ? 0
                     : static_cast<std::uint16_t>(
                           2 + hops.size() * (opts.four_octet_as ? 4 : 2));
    write_attr_header(w, kFlagTransitive, kAttrAsPath, body);
    if (!hops.empty()) {
      w.u8(kAsSequence);
      w.u8(static_cast<std::uint8_t>(hops.size()));
      for (const auto as : hops) {
        if (opts.four_octet_as) {
          w.u32(as.value());
        } else {
          w.u16(as.value() > 0xffff ? kAsTrans
                                    : static_cast<std::uint16_t>(as.value()));
        }
      }
    }
  }

  // NEXT_HOP
  write_attr_header(w, kFlagTransitive, kAttrNextHop, 4);
  w.addr(attrs.next_hop);

  if (attrs.med) {
    write_attr_header(w, kFlagOptional, kAttrMed, 4);
    w.u32(*attrs.med);
  }
  if (attrs.local_pref) {
    write_attr_header(w, kFlagTransitive, kAttrLocalPref, 4);
    w.u32(*attrs.local_pref);
  }
  if (!attrs.communities.empty()) {
    write_attr_header(w, kFlagOptional | kFlagTransitive, kAttrCommunities,
                      static_cast<std::uint16_t>(attrs.communities.size() * 4));
    for (const auto c : attrs.communities) w.u32(c);
  }
}

bool decode_attributes(ByteReader& r, PathAttributes& attrs,
                       const CodecOptions& opts) {
  while (r.remaining() > 0) {
    const std::uint8_t flags = r.u8();
    const std::uint8_t type = r.u8();
    const std::uint16_t len = (flags & kFlagExtendedLen) ? r.u16() : r.u8();
    ByteReader body = r.sub(len);
    if (!r.ok()) return false;
    switch (type) {
      case kAttrOrigin: {
        const std::uint8_t o = body.u8();
        if (o > 2) return false;
        attrs.origin = static_cast<Origin>(o);
        break;
      }
      case kAttrAsPath: {
        std::vector<core::AsNumber> hops;
        while (body.remaining() > 0) {
          const std::uint8_t seg_type = body.u8();
          const std::uint8_t count = body.u8();
          if (seg_type != kAsSequence) return false;  // AS_SET unsupported
          for (int i = 0; i < count; ++i) {
            hops.emplace_back(opts.four_octet_as ? body.u32() : body.u16());
          }
        }
        if (!body.ok()) return false;
        attrs.as_path = AsPath{std::move(hops)};
        break;
      }
      case kAttrNextHop:
        attrs.next_hop = body.addr();
        break;
      case kAttrMed:
        attrs.med = body.u32();
        break;
      case kAttrLocalPref:
        attrs.local_pref = body.u32();
        break;
      case kAttrCommunities: {
        if (len % 4 != 0) return false;
        attrs.communities.clear();
        while (body.remaining() >= 4) attrs.communities.push_back(body.u32());
        break;
      }
      default:
        // Unknown optional attributes are skipped (already consumed by sub).
        if (!(flags & kFlagOptional)) return false;
        break;
    }
    if (!body.ok()) return false;
  }
  return r.ok();
}

void encode_body(ByteWriter& w, const OpenMessage& m, const CodecOptions&) {
  w.u8(m.version);
  w.u16(m.my_as.value() > 0xffff ? kAsTrans
                                 : static_cast<std::uint16_t>(m.my_as.value()));
  w.u16(m.hold_time_s);
  w.addr(m.bgp_id);
  if (m.four_octet_as) {
    // Opt-params: one capabilities parameter with the 4-octet-AS capability.
    w.u8(8);  // opt params total length
    w.u8(kParamCapabilities);
    w.u8(6);  // param length
    w.u8(kCapFourOctetAs);
    w.u8(4);  // capability length
    w.u32(m.my_as.value());
  } else {
    w.u8(0);
  }
}

void encode_body(ByteWriter& w, const UpdateMessage& m, const CodecOptions& opts) {
  // Withdrawn routes.
  const std::size_t wr_len_pos = w.size();
  w.u16(0);
  for (const auto& p : m.withdrawn) write_prefix(w, p);
  w.patch_u16(wr_len_pos,
              static_cast<std::uint16_t>(w.size() - wr_len_pos - 2));

  // Path attributes (only when there is NLRI to describe).
  const std::size_t pa_len_pos = w.size();
  w.u16(0);
  if (!m.nlri.empty()) encode_attributes(w, m.attributes, opts);
  w.patch_u16(pa_len_pos, static_cast<std::uint16_t>(w.size() - pa_len_pos - 2));

  for (const auto& p : m.nlri) write_prefix(w, p);
}

void encode_body(ByteWriter& w, const NotificationMessage& m, const CodecOptions&) {
  w.u8(m.code);
  w.u8(m.subcode);
  w.bytes(m.data);
}

void encode_body(ByteWriter&, const KeepaliveMessage&, const CodecOptions&) {}

/// Upper bounds on the encoded size of each message, header included, so
/// an image is built in one allocation of its own.
std::size_t size_bound(const OpenMessage&) { return 37; }
std::size_t size_bound(const UpdateMessage& m) {
  // Two length fields, at most 5 bytes per prefix, and per attribute at
  // most a 4-byte header plus its body.
  std::size_t n = 23 + 5 * (m.withdrawn.size() + m.nlri.size());
  if (!m.nlri.empty()) {
    n += 39 + 4 * (m.attributes.as_path.hops().size() +
                   m.attributes.communities.size());
  }
  return n;
}
std::size_t size_bound(const NotificationMessage& m) {
  return 21 + m.data.size();
}
std::size_t size_bound(const KeepaliveMessage&) { return 19; }

/// The wire image of `m`, a message of type `type`, encoded straight into
/// a buffer of its own that a packet can adopt without a copy.
template <typename M>
std::vector<std::byte> encode_image(const M& m, MessageType type,
                                    const CodecOptions& opts) {
  ByteWriter w;
  w.reserve(size_bound(m));
  for (int i = 0; i < 16; ++i) w.u8(0xff);  // marker
  const std::size_t len_pos = w.size();
  w.u16(0);
  w.u8(static_cast<std::uint8_t>(type));
  encode_body(w, m, opts);
  w.patch_u16(len_pos, static_cast<std::uint16_t>(w.size()));
  return w.take();
}

using WireImage = std::shared_ptr<const std::vector<std::byte>>;
struct FanoutEntry {
  UpdateMessage msg;
  bool four_octet{false};
  WireImage wire;
};
constexpr std::size_t kFanoutSize = 8;

/// Two caches of immutable wire images. The fan-out ring, keyed by message
/// value + codec width, encodes an UPDATE sent unchanged to several peers
/// once; in a router those are withdraw-only UPDATEs, since announcements
/// carry each peer's own next hop. KEEPALIVE is 19 fixed bytes whatever
/// the codec options, so one image serves every session.
struct WireCache {
  FanoutEntry fanout[kFanoutSize];
  std::size_t next{0};
  WireImage keepalive{std::make_shared<std::vector<std::byte>>(
      encode_image(KeepaliveMessage{}, MessageType::kKeepalive, {}))};
};

WireCache& wire_cache() {
  // lint: thread-ok(pure caches of immutable wire images: a hit returns
  // exactly the bytes a fresh encode would, and nothing counted or printed
  // depends on them)
  thread_local WireCache cache;
  return cache;
}

/// The cached wire image of `update`, or null.
// lint: hotpath(every UPDATE a speaker sends is looked up here first)
[[gnu::always_inline]] inline const WireImage* fanout_hit(
    const WireCache& cache, const UpdateMessage& update,
    const CodecOptions& opts) {
  for (const auto& e : cache.fanout) {
    if (e.wire != nullptr && e.four_octet == opts.four_octet_as &&
        e.msg == update) {
      return &e.wire;
    }
  }
  return nullptr;
}

/// A miss: encode `update` once and keep the image in the oldest slot,
/// overwritten in place so the slot's vectors keep their capacity.
// lint: hotpath(every UPDATE the fan-out cache misses is encoded here)
net::Bytes fanout_insert(WireCache& cache, const UpdateMessage& update,
                         const CodecOptions& opts) {
  // lint: alloc-ok(the wire buffer the packet owns: it travels with the
  // packet, shared with the cache slot, after this call returns)
  auto wire = std::make_shared<std::vector<std::byte>>(
      encode_image(update, MessageType::kUpdate, opts));
  FanoutEntry& slot = cache.fanout[cache.next];
  slot.msg = update;
  slot.four_octet = opts.four_octet_as;
  slot.wire = wire;
  cache.next = (cache.next + 1) % kFanoutSize;
  return net::Bytes::adopt(std::move(wire));
}

std::optional<Message> decode_open(ByteReader& r) {
  OpenMessage m;
  m.version = r.u8();
  std::uint16_t as2 = r.u16();
  m.hold_time_s = r.u16();
  m.bgp_id = r.addr();
  m.four_octet_as = false;
  std::uint32_t as4 = 0;
  const std::uint8_t opt_len = r.u8();
  ByteReader params = r.sub(opt_len);
  if (!r.ok()) return std::nullopt;
  while (params.remaining() > 0) {
    const std::uint8_t ptype = params.u8();
    const std::uint8_t plen = params.u8();
    ByteReader pr = params.sub(plen);
    if (!params.ok()) return std::nullopt;
    if (ptype != kParamCapabilities) continue;
    while (pr.remaining() > 0) {
      const std::uint8_t cap = pr.u8();
      const std::uint8_t clen = pr.u8();
      ByteReader cr = pr.sub(clen);
      if (!pr.ok()) return std::nullopt;
      if (cap == kCapFourOctetAs && clen == 4) {
        m.four_octet_as = true;
        as4 = cr.u32();
      }
    }
  }
  m.my_as = core::AsNumber{m.four_octet_as ? as4 : as2};
  if (!r.ok()) return std::nullopt;
  return m;
}

std::optional<Message> decode_update(ByteReader& r, const CodecOptions& opts) {
  UpdateMessage m;
  const std::uint16_t wr_len = r.u16();
  ByteReader wr = r.sub(wr_len);
  if (!r.ok()) return std::nullopt;
  while (wr.remaining() > 0) {
    const auto p = read_prefix(wr);
    if (!p) return std::nullopt;
    m.withdrawn.push_back(*p);
  }
  const std::uint16_t pa_len = r.u16();
  ByteReader pa = r.sub(pa_len);
  if (!r.ok()) return std::nullopt;
  if (pa_len > 0 && !decode_attributes(pa, m.attributes, opts)) return std::nullopt;
  while (r.remaining() > 0) {
    const auto p = read_prefix(r);
    if (!p) return std::nullopt;
    m.nlri.push_back(*p);
  }
  if (!m.nlri.empty() && pa_len == 0) return std::nullopt;  // RFC: attrs required
  return m;
}

}  // namespace

const char* to_string(MessageType t) {
  switch (t) {
    case MessageType::kOpen: return "OPEN";
    case MessageType::kUpdate: return "UPDATE";
    case MessageType::kNotification: return "NOTIFICATION";
    case MessageType::kKeepalive: return "KEEPALIVE";
  }
  return "?";
}

MessageType type_of(const Message& m) {
  if (std::holds_alternative<OpenMessage>(m)) return MessageType::kOpen;
  if (std::holds_alternative<UpdateMessage>(m)) return MessageType::kUpdate;
  if (std::holds_alternative<NotificationMessage>(m)) return MessageType::kNotification;
  return MessageType::kKeepalive;
}

void UpdateMessage::append_to(std::string& out) const {
  out += "UPDATE";
  if (!withdrawn.empty()) {
    out += " withdraw{";
    for (std::size_t i = 0; i < withdrawn.size(); ++i) {
      if (i > 0) out += ' ';
      withdrawn[i].append_to(out);
    }
    out += '}';
  }
  if (!nlri.empty()) {
    out += " announce{";
    for (std::size_t i = 0; i < nlri.size(); ++i) {
      if (i > 0) out += ' ';
      nlri[i].append_to(out);
    }
    out += "} ";
    attributes.append_to(out);
  }
}

std::string UpdateMessage::to_string() const { return core::text_of(*this); }

std::vector<std::byte> encode(const Message& message, const CodecOptions& opts) {
  return std::visit(
      [&](const auto& m) { return encode_image(m, type_of(message), opts); },
      message);
}

std::vector<std::byte> encode(const UpdateMessage& update,
                              const CodecOptions& opts) {
  return encode_image(update, MessageType::kUpdate, opts);
}

net::Bytes encode_shared(const Message& message, const CodecOptions& opts) {
  if (std::holds_alternative<KeepaliveMessage>(message)) {
    return net::Bytes::adopt(wire_cache().keepalive);
  }
  // OPEN / NOTIFICATION: rare, connection-scoped, not worth caching.
  return net::Bytes{encode(message, opts)};
}

// lint: hotpath(every UPDATE a speaker sends is encoded here, once)
net::Bytes encode_shared(const UpdateMessage& update, const CodecOptions& opts) {
  WireCache& cache = wire_cache();
  if (const auto* wire = fanout_hit(cache, update, opts)) {
    return net::Bytes::adopt(*wire);
  }
  return fanout_insert(cache, update, opts);
}

std::vector<UpdateMessage> split_update(const UpdateMessage& update,
                                        const CodecOptions& opts) {
  if (encode(update, opts).size() <= kMaxMessageSize) return {update};

  // Budget below the hard cap leaving room for header + attribute bundle.
  // Attributes only encode when NLRI is present, so measure the bundle via
  // a single-prefix probe message.
  UpdateMessage probe;
  probe.attributes = update.attributes;
  const std::size_t overhead = encode(probe, opts).size();
  std::size_t attr_overhead = overhead;
  if (!update.nlri.empty()) {
    UpdateMessage one;
    one.attributes = update.attributes;
    one.nlri.push_back(update.nlri.front());
    attr_overhead = encode(one, opts).size();
  }
  const std::size_t per_prefix = 5;  // 1 length byte + up to 4 prefix bytes
  const std::size_t room = kMaxMessageSize - std::max(overhead, attr_overhead);
  const std::size_t chunk = std::max<std::size_t>(1, room / per_prefix);

  std::vector<UpdateMessage> out;
  for (std::size_t i = 0; i < update.withdrawn.size(); i += chunk) {
    UpdateMessage m;
    const auto end = std::min(update.withdrawn.size(), i + chunk);
    m.withdrawn.assign(update.withdrawn.begin() + static_cast<long>(i),
                       update.withdrawn.begin() + static_cast<long>(end));
    out.push_back(std::move(m));
  }
  for (std::size_t i = 0; i < update.nlri.size(); i += chunk) {
    UpdateMessage m;
    m.attributes = update.attributes;
    const auto end = std::min(update.nlri.size(), i + chunk);
    m.nlri.assign(update.nlri.begin() + static_cast<long>(i),
                  update.nlri.begin() + static_cast<long>(end));
    out.push_back(std::move(m));
  }
  return out;
}

std::optional<Message> decode(const std::vector<std::byte>& wire,
                              const CodecOptions& opts) {
  ByteReader r{wire};
  for (int i = 0; i < 16; ++i) {
    if (r.u8() != 0xff) return std::nullopt;
  }
  const std::uint16_t len = r.u16();
  if (!r.ok() || len != wire.size() || len < 19) return std::nullopt;
  const std::uint8_t type = r.u8();
  switch (static_cast<MessageType>(type)) {
    case MessageType::kOpen:
      return decode_open(r);
    case MessageType::kUpdate:
      return decode_update(r, opts);
    case MessageType::kNotification: {
      NotificationMessage m;
      m.code = r.u8();
      m.subcode = r.u8();
      m.data = r.bytes(r.remaining());
      if (!r.ok()) return std::nullopt;
      return Message{m};
    }
    case MessageType::kKeepalive:
      if (r.remaining() != 0) return std::nullopt;
      return Message{KeepaliveMessage{}};
  }
  return std::nullopt;
}

}  // namespace bgpsdn::bgp
