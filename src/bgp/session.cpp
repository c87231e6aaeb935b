#include "bgp/session.hpp"

#include <algorithm>

#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "core/random.hpp"
#include "telemetry/trace.hpp"

namespace bgpsdn::bgp {

namespace {
// NOTIFICATION error codes (RFC 4271 §4.5).
constexpr std::uint8_t kErrMessageHeader = 1;
constexpr std::uint8_t kErrOpen = 2;
constexpr std::uint8_t kErrUpdate = 3;
constexpr std::uint8_t kErrHoldTimer = 4;
constexpr std::uint8_t kErrFsm = 5;
constexpr std::uint8_t kErrCease = 6;

/// The abstracted TCP connection setup takes a delay drawn from these
/// bounds.
constexpr core::Duration kConnectDelayMin = core::Duration::millis(10);
constexpr core::Duration kConnectDelayMax = core::Duration::millis(100);
/// An automatic restart waits this long, jittered by 75%-125%, before
/// connecting again.
constexpr core::Duration kConnectRetry = core::Duration::seconds(5);
}  // namespace

const char* to_string(SessionState s) {
  switch (s) {
    case SessionState::kIdle: return "Idle";
    case SessionState::kConnect: return "Connect";
    case SessionState::kOpenSent: return "OpenSent";
    case SessionState::kOpenConfirm: return "OpenConfirm";
    case SessionState::kEstablished: return "Established";
  }
  return "?";
}

const std::string& Session::log_name() {
  if (log_name_.empty()) {
    log_name_ = host_.session_log_name();
    log_name_ += ".s";
    core::append_decimal(log_name_, config_.id.value());
  }
  return log_name_;
}

template <typename... Parts>
void Session::log(std::string_view event, const Parts&... parts) {
  env_.logger.log(env_.loop.now(), core::LogLevel::kDebug, log_name(), event,
                  parts...);
}

void Session::init_metrics() {
  if (metrics_resolved_) return;
  metrics_resolved_ = true;
  auto& metrics = env_.telemetry.metrics();
  updates_tx_metric_ = &metrics.counter("bgp.session.updates_tx");
  updates_rx_metric_ = &metrics.counter("bgp.session.updates_rx");
  transitions_metric_ = &metrics.counter("bgp.session.transitions");
}

void Session::transition(SessionState next) {
  const SessionState prev = state_;
  if (prev == next) return;
  state_ = next;
  if (prev == SessionState::kIdle && next == SessionState::kConnect) {
    connect_started_ = env_.loop.now();
  }
  init_metrics();
  transitions_metric_->inc();
  auto& metrics = env_.telemetry.metrics();
  if (next == SessionState::kEstablished) {
    metrics.counter("bgp.session.established").inc();
    metrics.histogram("bgp.session.establish_ns")
        .record((env_.loop.now() - connect_started_).count_nanos());
  } else if (prev == SessionState::kEstablished) {
    metrics.counter("bgp.session.dropped").inc();
  }
  if (env_.telemetry.tracing()) {
    auto span = telemetry::TraceSpan::instant(env_.loop.now(), "bgp", "fsm",
                                              log_name());
    span.arg("from", to_string(prev)).arg("to", to_string(next));
    env_.telemetry.emit(span);
  }
}

void Session::start() {
  if (state_ != SessionState::kIdle) return;
  transition(SessionState::kConnect);
  const auto delay =
      env_.rng.uniform_duration(kConnectDelayMin, kConnectDelayMax);
  const auto my_epoch = epoch_;
  connect_timer_ = env_.loop.schedule(delay, [this, my_epoch] {
    if (epoch_ != my_epoch || state_ != SessionState::kConnect) return;
    // "TCP" is up: send OPEN.
    OpenMessage open;
    open.my_as = config_.local_as;
    open.hold_time_s =
        static_cast<std::uint16_t>(config_.timers.hold.to_seconds());
    open.bgp_id = config_.local_id;
    open.four_octet_as = true;
    transmit(open);
    transition(SessionState::kOpenSent);
    reset_hold_timer();
    log("open_sent", "to ", config_.remote_address);
  });
}

void Session::stop(const std::string& reason, bool auto_restart) {
  const bool was_established = established();
  cancel_timers();
  ++epoch_;
  transition(SessionState::kIdle);
  // Every stop path forgets what the dead "connection" negotiated: hold
  // time, codec width and capabilities are per-connection state (RFC 4271
  // §8 releases all resources on ManualStop/AutomaticStop). Keeping them
  // would make a restarted session run OpenSent on the stale peer's hold
  // time and decode with the stale AS width.
  negotiated_hold_s_ = 0;
  peer_four_octet_ = false;
  codec_ = CodecOptions{};
  if (was_established) {
    ++counters_.flaps;
    log("session_down", reason);
    host_.session_down(*this, reason);
  }
  if (auto_restart) {
    const auto delay = env_.rng.jittered(kConnectRetry, 0.75, 1.25);
    const auto my_epoch = epoch_;
    connect_timer_ = env_.loop.schedule(delay, [this, my_epoch] {
      if (epoch_ != my_epoch || state_ != SessionState::kIdle) return;
      start();
    });
  }
}

void Session::fail(std::uint8_t code, std::uint8_t subcode,
                   const std::string& reason) {
  NotificationMessage n;
  n.code = code;
  n.subcode = subcode;
  transmit(n);
  ++counters_.notifications_tx;
  stop(reason, /*auto_restart=*/true);
}

void Session::transmit(const Message& m) {
  // OPEN must be readable before negotiation; only UPDATE uses the
  // negotiated AS width, and it is only sent when established.
  host_.session_transmit(*this, encode_shared(m, codec_));
  if (type_of(m) == MessageType::kKeepalive) ++counters_.keepalives_tx;
}

void Session::receive(const std::vector<std::byte>& wire) {
  if (state_ == SessionState::kIdle) {
    // Passive open: a fresh OPEN from the peer wakes an idle session (the
    // TCP-accept path of a real speaker). Anything else is stale bytes.
    const auto peek = decode(wire, CodecOptions{});
    if (!peek || type_of(*peek) != MessageType::kOpen) return;
    transition(SessionState::kConnect);
  }
  auto msg = decode(wire, codec_);
  if (!msg) {
    ++counters_.decode_errors;
    fail(kErrMessageHeader, 0, "decode error");
    return;
  }
  switch (type_of(*msg)) {
    case MessageType::kOpen:
      ++counters_.opens_rx;
      on_open(std::get<OpenMessage>(*msg));
      break;
    case MessageType::kKeepalive:
      ++counters_.keepalives_rx;
      on_keepalive();
      break;
    case MessageType::kUpdate:
      ++counters_.updates_rx;
      init_metrics();
      updates_rx_metric_->inc();
      on_update(std::move(std::get<UpdateMessage>(*msg)));
      break;
    case MessageType::kNotification:
      ++counters_.notifications_rx;
      on_notification(std::get<NotificationMessage>(*msg));
      break;
  }
}

void Session::on_open(const OpenMessage& m) {
  if (state_ == SessionState::kEstablished ||
      state_ == SessionState::kOpenConfirm) {
    // The peer restarted and opened a fresh "connection": tear the old
    // session down and accept the new OPEN (collision-resolution spirit of
    // RFC 4271 §6.8).
    stop("peer re-opened");
    transition(SessionState::kConnect);
  }
  // Accept OPEN in Connect too (peer's OPEN can beat our connect timer).
  if (state_ != SessionState::kOpenSent && state_ != SessionState::kConnect) {
    fail(kErrFsm, 0, "OPEN in " + std::string{to_string(state_)});
    return;
  }
  if (m.version != 4) {
    fail(kErrOpen, 1, "bad version");
    return;
  }
  if (config_.expected_peer_as.value() != 0 && m.my_as != config_.expected_peer_as) {
    fail(kErrOpen, 2, "unexpected peer AS " + m.my_as.to_string());
    return;
  }
  if (m.hold_time_s != 0 && m.hold_time_s < 3) {
    fail(kErrOpen, 6, "unacceptable hold time");
    return;
  }
  peer_as_ = m.my_as;
  peer_id_ = m.bgp_id;
  peer_four_octet_ = m.four_octet_as;
  codec_.four_octet_as = peer_four_octet_;  // we always offer it
  negotiated_hold_s_ = std::min<std::uint16_t>(
      static_cast<std::uint16_t>(config_.timers.hold.to_seconds()), m.hold_time_s);

  if (state_ == SessionState::kConnect) {
    // Simultaneous open: our OPEN has not gone out yet; send it now.
    if (connect_timer_.is_valid()) env_.loop.cancel(connect_timer_);
    OpenMessage open;
    open.my_as = config_.local_as;
    open.hold_time_s =
        static_cast<std::uint16_t>(config_.timers.hold.to_seconds());
    open.bgp_id = config_.local_id;
    open.four_octet_as = true;
    transmit(open);
  }
  transmit(KeepaliveMessage{});
  transition(SessionState::kOpenConfirm);
  reset_hold_timer();
  log("open_rx", "peer ", peer_as_);
}

void Session::on_keepalive() {
  switch (state_) {
    case SessionState::kOpenConfirm:
      enter_established();
      break;
    case SessionState::kEstablished:
      reset_hold_timer();
      break;
    default:
      fail(kErrFsm, 0, "KEEPALIVE in " + std::string{to_string(state_)});
  }
}

void Session::on_update(UpdateMessage m) {
  if (state_ != SessionState::kEstablished) {
    fail(kErrFsm, 0, "UPDATE in " + std::string{to_string(state_)});
    return;
  }
  reset_hold_timer();
  host_.session_update(*this, std::move(m));
}

void Session::on_notification(const NotificationMessage& m) {
  stop("NOTIFICATION code=" + std::to_string(m.code) +
           " sub=" + std::to_string(m.subcode),
       /*auto_restart=*/true);
}

void Session::enter_established() {
  transition(SessionState::kEstablished);
  reset_hold_timer();
  arm_keepalive_timer();
  log("session_up", "peer ", peer_as_);
  host_.session_established(*this);
}

// lint: hotpath(every UPDATE a router sends passes here: one encode, no
// message copies)
void Session::send_update(const UpdateMessage& update) {
  if (!established()) return;
  init_metrics();
  net::Bytes wire = encode_shared(update, codec_);
  if (wire.size() <= kMaxMessageSize) {
    transmit_update(std::move(wire));
    return;
  }
  // Honour the RFC 4271 4096-byte message cap: oversized updates are split
  // transparently (one attribute bundle per NLRI piece).
  for (const auto& piece : split_update(update, codec_)) {
    transmit_update(encode_shared(piece, codec_));
  }
}

void Session::transmit_update(net::Bytes wire) {
  ++counters_.updates_tx;
  updates_tx_metric_->inc();
  host_.session_transmit(*this, std::move(wire));
}

void Session::reset_hold_timer() {
  if (hold_timer_.is_valid()) env_.loop.cancel(hold_timer_);
  if (negotiated_hold_s_ == 0 && state_ == SessionState::kEstablished) return;
  const auto hold = negotiated_hold_s_ > 0
                        ? core::Duration::seconds(negotiated_hold_s_)
                        : config_.timers.hold;
  const auto my_epoch = epoch_;
  hold_timer_ = env_.loop.schedule(hold, [this, my_epoch] {
    if (epoch_ != my_epoch) return;
    fail(kErrHoldTimer, 0, "hold timer expired");
  });
}

void Session::arm_keepalive_timer() {
  const auto base = negotiated_hold_s_ > 0
                        ? core::Duration::seconds(negotiated_hold_s_ / 3)
                        : config_.timers.keepalive;
  const auto delay = env_.rng.jittered(base, kTimerJitterLow, kTimerJitterHigh);
  const auto my_epoch = epoch_;
  keepalive_timer_ = env_.loop.schedule(delay, [this, my_epoch] {
    if (epoch_ != my_epoch || state_ != SessionState::kEstablished) return;
    transmit(KeepaliveMessage{});
    arm_keepalive_timer();
  });
}

void Session::cancel_timers() {
  if (connect_timer_.is_valid()) env_.loop.cancel(connect_timer_);
  if (hold_timer_.is_valid()) env_.loop.cancel(hold_timer_);
  if (keepalive_timer_.is_valid()) env_.loop.cancel(keepalive_timer_);
  connect_timer_ = hold_timer_ = keepalive_timer_ = core::TimerId::invalid();
}

}  // namespace bgpsdn::bgp
