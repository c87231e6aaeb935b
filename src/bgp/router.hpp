// BgpRouter — one emulated AS border router (the Quagga bgpd substitute).
//
// "To isolate the effects of inter-domain from intra-domain routing every AS
// is emulated by a single network device": a BgpRouter is that device. It
// terminates eBGP sessions on its ports, runs the RFC 4271 decision process
// over Adj-RIB-In, programs its FIB from the Loc-RIB, applies per-peer
// policy on import/export, and rate-limits advertisements with per-peer
// MRAI timers — the mechanism behind BGP path exploration, which the
// paper's experiments measure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/damping.hpp"
#include "bgp/decision.hpp"
#include "bgp/policy.hpp"
#include "bgp/prefix_set.hpp"
#include "bgp/rib.hpp"
#include "bgp/session.hpp"
#include "bgp/types.hpp"
#include "core/function.hpp"
#include "net/lpm.hpp"
#include "net/node.hpp"

namespace bgpsdn::bgp {

struct RouterConfig {
  core::AsNumber asn;
  net::Ipv4Addr router_id;
  Timers timers;
  /// Route-flap damping (RFC 2439); disabled by default like Quagga.
  DampingConfig damping{};
  /// The simulation's attribute store, shared by every router, the speaker
  /// and the controller (the Experiment wires one instance through all of
  /// them). Required: every bundle the router interns goes through it.
  AttrRegistryRef attr_registry{};
};

/// Configuration of one peering, bound to a local port.
struct PeerConfig {
  PeerPolicy policy;
  net::Ipv4Addr local_address;
  net::Ipv4Addr remote_address;
  /// Expected peer AS (0 = accept any).
  core::AsNumber expected_peer_as{0};
  /// Per-peer MRAI override (e.g. 0 towards a route collector).
  std::optional<core::Duration> mrai;
};

struct RouterCounters {
  std::uint64_t updates_rx{0};
  std::uint64_t updates_tx{0};
  std::uint64_t routes_rejected_loop{0};
  std::uint64_t best_changes{0};
  std::uint64_t routes_suppressed{0};
  std::uint64_t packets_forwarded{0};
  std::uint64_t packets_no_route{0};
};

class BgpRouter : public net::Node, public SessionHost {
 public:
  explicit BgpRouter(RouterConfig config)
      : config_{std::move(config)},
        adj_rib_in_{config_.attr_registry},
        loc_rib_{config_.attr_registry},
        rib_out_store_{config_.attr_registry},
        dampener_{config_.damping} {}

  // --- configuration (before or after start) ---------------------------

  /// Declare a peering on `port`. Creates the session; it begins connecting
  /// at start() (or immediately if the router already started).
  void add_peer(core::PortId port, PeerConfig peer_config);

  /// Attach a host subnet reachable out of `port`; the prefix is originated
  /// into BGP and delivered locally.
  void attach_host(core::PortId port, const net::Prefix& prefix);

  /// Originate a prefix (no attached host; traffic to it terminates here).
  void originate(const net::Prefix& prefix);

  /// Stop originating; propagates withdrawals.
  void withdraw_origin(const net::Prefix& prefix);

  // --- Node -------------------------------------------------------------
  void start() override;
  void handle_packet(core::PortId ingress, const net::Packet& packet) override;
  void on_link_state(core::PortId port, bool up) override;

  // --- SessionHost --------------------------------------------------------
  void session_transmit(Session& session, net::Bytes wire) override;
  void session_established(Session& session) override;
  void session_down(Session& session, const std::string& reason) override;
  void session_update(Session& session, UpdateMessage update) override;
  /// "bgp.<name>".
  const std::string& session_log_name() const override;

  // --- introspection ------------------------------------------------------
  core::AsNumber asn() const { return config_.asn; }
  const RouterConfig& config() const { return config_; }
  const LocRib& loc_rib() const { return loc_rib_; }
  const AdjRibIn& adj_rib_in() const { return adj_rib_in_; }
  const RouterCounters& counters() const { return counters_; }
  const Session* session_on(core::PortId port) const;
  std::vector<const Session*> sessions() const;
  /// FIB egress port for a destination, if any.
  std::optional<core::PortId> fib_lookup(net::Ipv4Addr dst) const;
  bool originates(const net::Prefix& prefix) const {
    return local_prefixes_.count(prefix) > 0;
  }
  const FlapDampener& dampener() const { return dampener_; }

  /// Report deterministic RIB footprints (high-water marks computed with the
  /// core/mem_stats.hpp allocation model) into `stats`.
  void account_memory(core::MemStats& stats) const {
    stats.rib_in += adj_rib_in_.peak_bytes();
    stats.loc_rib += loc_rib_.peak_bytes();
    stats.rib_out += rib_out_store_.peak_bytes();
  }

 private:
  struct Peer {
    /// Every peer's Adj-RIB-Out is one column of the router-wide store, so
    /// per-prefix advertised state is shared across peers.
    Peer(core::PortId p, RibOutStore& store) : port{p}, rib_out{store} {}

    core::PortId port;
    PeerConfig config;
    std::unique_ptr<Session> session;
    AdjRibOut rib_out;
    /// Prefixes whose export state must be re-evaluated at next flush.
    PrefixSet pending;
    /// Prefixes touched inside the current TxBatch whose ungated UPDATE is
    /// deferred to the batch flush (where same-bundle prefixes coalesce
    /// into one multi-NLRI message).
    PrefixSet batch_dirty;
    core::TimerId mrai_timer{core::TimerId::invalid()};
    std::uint64_t epoch{0};
    /// Open "mrai_wait" span: armed at each advertisement tick, closed at
    /// the gated flush (or, without a sample, at a session reset).
    core::TimePoint mrai_armed_at{};
    bool mrai_span_open{false};
  };

  Peer* peer_on(core::PortId port) {
    return const_cast<Peer*>(std::as_const(*this).peer_on(port));
  }
  const Peer* peer_on(core::PortId port) const;
  Peer* peer_of(const Session& session);

  /// Serialized-CPU work model: runs `fn` after queued processing cost.
  void enqueue_work(core::Duration cost, core::SmallFunc fn);

  /// Import one UPDATE: withdrawals, then the NLRI. The attribute bundle is
  /// loop-checked, rewritten and interned once per UPDATE that carries
  /// NLRI.
  void process_update(Peer& peer, const UpdateMessage& update);
  /// Offer `prefix` with the imported bundle `attrs` as `peer`'s candidate
  /// in the Adj-RIB-In, re-running the decision when the set changed.
  void import_candidate(Peer& peer, const net::Prefix& prefix,
                        const AttrSetRef& attrs);
  /// Drop the candidate `session` offered for a looped `prefix`, if any.
  void reject_candidate(core::SessionId session, const net::Prefix& prefix);
  /// Re-run the decision process for one prefix; on change, update Loc-RIB +
  /// FIB and queue advertisements. Damping-suppressed candidates are
  /// excluded.
  void recompute(const net::Prefix& prefix);
  /// Record a flap with the dampener; on suppression, schedules the
  /// reuse-time re-evaluation.
  void note_flap(core::SessionId session, const net::Prefix& prefix,
                 bool withdrawal);
  /// The Loc-RIB winner of one prefix as export sees it: its canonical
  /// bundle (null when there is none) and the relationship of the session
  /// it was learned over (nullopt for a local route).
  struct ExportSource {
    const PathAttributes* winner{nullptr};
    std::optional<Relationship> learned_rel;
  };
  ExportSource export_source(const PathAttributes* winner,
                             core::SessionId learned_from) const;

  /// Queue the export state of `prefix`, whose winner is `source`, for
  /// `peer`: MRAI-gated changes go to `pending`, ungated ones to
  /// `batch_dirty` for the enclosing TxBatch to send.
  void schedule_peer_update(Peer& peer, const net::Prefix& prefix,
                            const ExportSource& source);
  /// The export verdict: true to announce the winner to `peer`, false to
  /// withdraw. There must be a winner, and the valley-free rule must let it
  /// through; no attribute is touched.
  bool export_verdict(const Peer& peer, const ExportSource& source) const;
  /// The bundle announced to `peer` for `winner`: copied out, rewritten
  /// for export, prefixed with the local AS and next hop, then interned.
  /// Runs only where an UPDATE is packed.
  AttrSetRef build_export(const Peer& peer, const PathAttributes& winner) const;
  /// Whether an announcement (or withdrawal) to `peer` waits for MRAI.
  bool gated(const Peer& peer, bool announce) const;
  /// Send everything pending for the peer; groups NLRI by attribute bundle.
  void flush_peer(Peer& peer);
  void arm_mrai(Peer& peer);
  core::Duration peer_mrai(const Peer& peer) const;

  /// The UPDATEs one peer's flush is packing, and the export state of the
  /// last Loc-RIB winner key it resolved. Dirty prefixes are visited in
  /// sorted order and runs of them share a winner (the NLRI of one
  /// received UPDATE), so while the key repeats the verdict and the export
  /// bundle are reused: build_export runs once per (peer, winner key) per
  /// flush, not once per prefix.
  struct FlushPack {
    static constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);
    explicit FlushPack(std::size_t dirty) {
      groups.reserve(dirty);
      withdrawals.reserve(dirty);
    }
    /// One announcement group per export bundle, in order of first use:
    /// every prefix advertised with that bundle rides in one UPDATE.
    std::vector<std::pair<AttrSetRef, std::vector<net::Prefix>>> groups;
    std::vector<net::Prefix> withdrawals;
    /// The last winner key and what it resolved to.
    LocRib::WinnerKey key;
    bool announce{false};
    /// `built` holds the key's export bundle once one was needed, and
    /// `group` indexes its group once a prefix joined it.
    bool has_built{false};
    AttrSetRef built;
    std::size_t group{kNoGroup};
  };
  /// The export verdict of `prefix` towards `peer`, read from its Loc-RIB
  /// winner key; resolved afresh only when the key differs from `pack`'s.
  bool flush_verdict(const Peer& peer, const net::Prefix& prefix,
                     FlushPack& pack) const;
  /// Add `prefix`'s export state towards `peer` to the UPDATEs being packed:
  /// when `announce`, the key's export bundle (built on first use) joins
  /// its group unless `peer` already has it; otherwise an advertised prefix
  /// joins the withdrawals.
  void pack_update(Peer& peer, const net::Prefix& prefix, bool announce,
                   FlushPack& pack);
  /// Emit one UPDATE per group (withdrawals ride in the first message),
  /// with per-message counters, logging and tracing.
  void emit_updates(Peer& peer, FlushPack& pack);

  /// RAII scope coalescing ungated UPDATE emission across one burst of RIB
  /// mutations (one received UPDATE, session event or origin change):
  /// schedule_peer_update defers ungated sends to `batch_dirty`, and the
  /// outermost scope flushes them peer by peer, packed by attribute bundle.
  struct TxBatch {
    explicit TxBatch(BgpRouter& r) : router{r} { ++router.tx_batch_depth_; }
    ~TxBatch() {
      if (--router.tx_batch_depth_ == 0) router.flush_tx_batches();
    }
    TxBatch(const TxBatch&) = delete;
    TxBatch& operator=(const TxBatch&) = delete;
    BgpRouter& router;
  };
  void flush_tx_batches();

  void forward_data(const net::Packet& packet);

  RouterConfig config_;
  bool started_{false};
  /// Ascending by port, the order every fan-out visits peers in. Each Peer
  /// is heap-held so its address survives later add_peer calls: timers and
  /// peers_by_session_ keep Peer*.
  std::vector<std::unique_ptr<Peer>> peers_;
  std::unordered_map<std::uint32_t, Peer*> peers_by_session_;
  AdjRibIn adj_rib_in_;
  LocRib loc_rib_;
  /// Shared advertised-state store; every Peer's rib_out is one column.
  RibOutStore rib_out_store_;
  int tx_batch_depth_{0};
  /// Locally-originated prefixes and when they were originated.
  std::map<net::Prefix, core::TimePoint> local_prefixes_;
  /// The bundle of every locally-originated candidate, interned at the
  /// first origination.
  std::optional<AttrSetRef> local_attrs_;
  /// Host delivery: local prefix -> port of the attached host.
  std::map<net::Prefix, core::PortId> host_ports_;
  net::LpmTable<core::PortId> fib_;
  core::TimePoint busy_until_{};
  FlapDampener dampener_;
  RouterCounters counters_;
  /// Cached network-wide metric handles (see Session for the pattern).
  void init_metrics();
  bool metrics_resolved_{false};
  telemetry::Counter* decision_runs_metric_{nullptr};
  telemetry::Counter* best_changes_metric_{nullptr};
  telemetry::Counter* updates_tx_metric_{nullptr};
  telemetry::Histogram* decision_candidates_metric_{nullptr};
};

}  // namespace bgpsdn::bgp
