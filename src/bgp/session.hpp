// BGP session finite state machine (RFC 4271 §8, emulation subset).
//
// One Session object lives on each side of a peering link, owned by the
// speaker node (router, collector, cluster speaker). TCP is abstracted as a
// short jittered connect delay; everything above it — OPEN exchange,
// capability negotiation, keepalive/hold timers, NOTIFICATION on error —
// is real and runs over the emulated network in wire format.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/ids.hpp"
#include "core/time.hpp"
#include "bgp/message.hpp"
#include "bgp/types.hpp"
#include "net/bytes.hpp"
#include "net/ip.hpp"

namespace bgpsdn::core {
class EventLoop;
class Logger;
class Rng;
}  // namespace bgpsdn::core

namespace bgpsdn::telemetry {
class Counter;
class Histogram;
class Telemetry;
}  // namespace bgpsdn::telemetry

namespace bgpsdn::bgp {

enum class SessionState : std::uint8_t {
  kIdle,
  kConnect,
  kOpenSent,
  kOpenConfirm,
  kEstablished,
};

const char* to_string(SessionState s);

class Session;

/// What a session runs on, handed over once when it is built: the
/// simulation's event loop, RNG, logger and telemetry hub. Each must
/// outlive the session.
struct SessionEnv {
  core::EventLoop& loop;
  core::Rng& rng;
  core::Logger& logger;
  telemetry::Telemetry& telemetry;
};

/// The node hosting a session implements this to supply transport and
/// route handling.
class SessionHost {
 public:
  virtual ~SessionHost() = default;

  /// Transmit wire bytes towards the peer (the host wraps them in a Packet
  /// and picks the right port). The buffer is the one the message was
  /// encoded into, adopted without a copy, and copy-on-write shared: every
  /// hop and every copy of a packet holds that one image. Only a
  /// withdraw-only UPDATE sent unchanged to several peers shares one image
  /// across peers (announcements carry each peer's own next hop, so each
  /// is encoded once per peer).
  virtual void session_transmit(Session& session, net::Bytes wire) = 0;

  virtual void session_established(Session& session) = 0;
  virtual void session_down(Session& session, const std::string& reason) = 0;
  /// A received UPDATE, handed over by value: the session moves the
  /// decoded message in, so a host that keeps it pays no copy.
  virtual void session_update(Session& session, UpdateMessage update) = 0;

  /// The host's log component ("bgp.AS3"); computed once, not per record.
  virtual const std::string& session_log_name() const = 0;
};

struct SessionConfig {
  core::SessionId id;
  core::AsNumber local_as;
  net::Ipv4Addr local_id;
  net::Ipv4Addr local_address;
  net::Ipv4Addr remote_address;
  /// Expected peer AS (0 = accept any, collector style).
  core::AsNumber expected_peer_as{0};
  Timers timers;
};

struct SessionCounters {
  std::uint64_t opens_rx{0};
  std::uint64_t updates_rx{0};
  std::uint64_t updates_tx{0};
  std::uint64_t keepalives_rx{0};
  std::uint64_t keepalives_tx{0};
  std::uint64_t notifications_rx{0};
  std::uint64_t notifications_tx{0};
  std::uint64_t decode_errors{0};
  std::uint64_t flaps{0};  // established -> down transitions
};

class Session {
 public:
  Session(SessionHost& host, SessionEnv env, SessionConfig config)
      : host_{host}, env_{env}, config_{std::move(config)} {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Begin connecting (Idle -> Connect). Safe to call repeatedly.
  void start();

  /// Administrative or link-driven stop; sends no messages (the link is
  /// presumed dead). If the session was established the host gets
  /// session_down(). With `auto_restart`, the session re-enters Connect
  /// after a jittered connect-retry delay (protocol failures recover this
  /// way; link-down stops wait for the link-up event instead).
  void stop(const std::string& reason, bool auto_restart = false);

  /// Feed received wire bytes into the FSM.
  void receive(const std::vector<std::byte>& wire);

  /// Send an UPDATE (only valid when established).
  void send_update(const UpdateMessage& update);

  SessionState state() const { return state_; }
  bool established() const { return state_ == SessionState::kEstablished; }
  const SessionConfig& config() const { return config_; }
  core::SessionId id() const { return config_.id; }
  /// Peer AS learned from the OPEN (valid once past OpenSent).
  core::AsNumber peer_as() const { return peer_as_; }
  net::Ipv4Addr peer_bgp_id() const { return peer_id_; }
  const SessionCounters& counters() const { return counters_; }
  /// Negotiated codec (4-octet AS iff both sides advertised it).
  const CodecOptions& codec() const { return codec_; }
  /// Negotiated hold time in seconds; 0 until an OPEN has been accepted on
  /// the current connection (stop() resets it).
  std::uint16_t negotiated_hold_s() const { return negotiated_hold_s_; }

 private:
  /// Single funnel for every FSM state change: updates counters, emits an
  /// instant "fsm" trace span, and records the connect→established latency.
  void transition(SessionState next);
  void init_metrics();
  void transmit(const Message& m);
  /// Hand one encoded UPDATE to the host and count it.
  void transmit_update(net::Bytes wire);
  void on_open(const OpenMessage& m);
  void on_keepalive();
  void on_update(UpdateMessage m);
  void on_notification(const NotificationMessage& m);
  void enter_established();
  void fail(std::uint8_t code, std::uint8_t subcode, const std::string& reason);
  void reset_hold_timer();
  void arm_keepalive_timer();
  void cancel_timers();
  /// This session's log component: the host's plus ".s<id>", built on
  /// first use.
  const std::string& log_name();
  /// One DEBUG record from this session (see core::Logger::log).
  template <typename... Parts>
  void log(std::string_view event, const Parts&... parts);

  SessionHost& host_;
  SessionEnv env_;
  SessionConfig config_;
  SessionState state_{SessionState::kIdle};
  core::AsNumber peer_as_{0};
  net::Ipv4Addr peer_id_;
  bool peer_four_octet_{false};
  CodecOptions codec_{};
  SessionCounters counters_;
  core::TimerId connect_timer_{core::TimerId::invalid()};
  core::TimerId hold_timer_{core::TimerId::invalid()};
  core::TimerId keepalive_timer_{core::TimerId::invalid()};
  /// Negotiated hold time (min of both sides), seconds.
  std::uint16_t negotiated_hold_s_{0};
  /// Guards stale timer callbacks after resets.
  std::uint64_t epoch_{0};
  /// When the current connect attempt began (for the establish histogram).
  core::TimePoint connect_started_{};
  std::string log_name_;
  /// Cached metric handles (network-wide aggregates), resolved on first
  /// use, not at construction: a lookup creates the instrument, and a
  /// metrics snapshot lists every created one, zero-valued or not.
  bool metrics_resolved_{false};
  telemetry::Counter* updates_tx_metric_{nullptr};
  telemetry::Counter* updates_rx_metric_{nullptr};
  telemetry::Counter* transitions_metric_{nullptr};
};

}  // namespace bgpsdn::bgp
