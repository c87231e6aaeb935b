// ControllerReplicaSet — hot-standby replication for the IDR controller.
//
// The paper runs a single IDR controller per cluster, so a controller crash
// degrades the cluster to distributed BGP (FallbackRouting). The follow-up
// centralization-broker model (Kotronis et al.) envisions replicated
// brokers; this layer models N controller replicas co-resident on the
// cluster's controller node (a VIP/shared-endpoint deployment): switches
// and the cluster speaker always talk to "the controller", and the replica
// set decides which modeled process is serving.
//
// The leader serves RouteFlow/FlowMod programming; standbys shadow its
// application state over a deterministic virtual-time replication channel:
//   - a sequence-numbered state-delta log (external-RIB updates, origin
//     changes, installed-flow mirror changes, SwitchGraph edge deltas),
//     fanned out to each standby subject to per-replica partitions, with
//     cumulative ACKs and exponential-backoff retransmission of the
//     unacknowledged suffix;
//   - periodic full-snapshot anti-entropy for fresh joiners and chronic
//     laggards (and after a takeover, whose speaker replay bypasses the log).
//
// Leader election is lease/heartbeat-based with Raft-style terms: the
// leader heartbeats every standby; a standby that misses heartbeats for a
// seeded jittered election timeout becomes a candidate, collects one vote
// per replica per term, and wins with a majority of the *live* replicas
// (the emulation models an external failure detector, so crashed replicas
// leave the electorate — an N=2 leader crash self-elects; a replication
// partition does not, and epoch fencing preserves safety there). A
// pre-vote-style lease guard defers any candidacy started within
// election_min of a received heartbeat, so a healed rejoiner whose term was
// inflated by futile partition-era candidacies cannot depose a healthy
// leader.
//
// Every leadership transition — election win, degradation to fallback,
// recovery — bumps a monotonic cluster epoch stamped into FlowMods;
// switches reject programming from a lower epoch, fencing deposed leaders.
// Only when *all* replicas are down does the cluster degrade to PR 3's
// FallbackRouting, via the experiment-provided hooks.
//
// Determinism: all channel behaviour runs on the event loop in virtual
// time; the only randomness is the forked, seeded Rng for election jitter,
// created exclusively in HA mode so non-HA runs draw the exact same stream
// as before this layer existed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "controller/idr_controller.hpp"
#include "core/random.hpp"
#include "core/time.hpp"
#include "speaker/cluster_speaker.hpp"

namespace bgpsdn::core {
class EventLoop;
class Logger;
}  // namespace bgpsdn::core

namespace bgpsdn::telemetry {
class Telemetry;
}  // namespace bgpsdn::telemetry

namespace bgpsdn::controller {

struct ReplicaSetConfig {
  std::size_t replicas{2};
  /// Election timeout drawn uniformly from [election_min, election_max].
  core::Duration election_min{core::Duration::millis(150)};
  core::Duration election_max{core::Duration::millis(300)};
  /// Seed for the replica set's private election-jitter stream.
  std::uint64_t seed{1};
};

struct ReplicaSetCounters {
  std::uint64_t elections{0};        // candidacies that won
  std::uint64_t takeovers{0};        // leadership adoptions by a standby
  std::uint64_t split_votes{0};      // candidacies that expired without quorum
  std::uint64_t heartbeats_sent{0};
  std::uint64_t deltas_appended{0};
  std::uint64_t deltas_replicated{0};  // delta transmissions that left the leader
  std::uint64_t retransmits{0};        // backoff-timer resends of a suffix
  std::uint64_t snapshots_sent{0};     // anti-entropy full snapshots
  std::uint64_t deltas_replayed{0};    // unacknowledged suffix at takeovers
  std::uint64_t flow_mods_replayed{0};  // flow-kind deltas in those suffixes
  std::uint64_t leaderless_events_dropped{0};
  std::uint64_t replica_crashes{0};
  std::uint64_t replica_restarts{0};
};

/// One entry of the replication log. The log is a journal of state the
/// leader has already applied, not a consensus log: standbys apply entries
/// as they arrive (in order; gaps wait for retransmission).
struct ReplicaDelta {
  enum class Kind : std::uint8_t {
    kRouteUpdate,     // speaker Adj-RIB-In change
    kPeerUp,          // peering established (no shadow state; informational)
    kPeerDown,        // peering lost: drop its routes
    kOriginate,       // cluster origination added
    kWithdrawOrigin,  // cluster origination removed
    kFlowInstall,     // installed-flow mirror upsert
    kFlowRemove,      // installed-flow mirror removal
    kEdge,            // SwitchGraph edge-delta changelog entry
  };
  Kind kind{Kind::kRouteUpdate};
  speaker::PeeringId peering{0};
  bgp::UpdateMessage update;  // kRouteUpdate
  net::Prefix prefix;         // origin / flow kinds
  sdn::Dpid dpid{0};          // origin / flow kinds; kEdge: from
  sdn::Dpid dpid2{0};         // kEdge: to
  bool edge_added{false};     // kEdge
  std::optional<core::PortId> host_port;  // kOriginate
  sdn::FlowAction action;     // kFlowInstall
};

class ControllerReplicaSet : public speaker::SpeakerListener {
 public:
  /// Called when the last live replica dies: the experiment runs the legacy
  /// full-crash path (control links down, FallbackRouting activates) and
  /// fences the fallback at the passed epoch.
  using DegradeHook = std::function<void(std::uint32_t epoch)>;
  /// Called when a replica restarts out of full degradation: the experiment
  /// runs the legacy restart path (fallback stands down, controller
  /// restarts and resyncs, control links heal).
  using RecoverHook = std::function<void(std::uint32_t epoch)>;

  ControllerReplicaSet(core::EventLoop& loop, core::Logger& logger,
                       telemetry::Telemetry& telemetry, IdrController& controller,
                       speaker::ClusterBgpSpeaker& speaker,
                       ReplicaSetConfig config);
  ControllerReplicaSet(const ControllerReplicaSet&) = delete;
  ControllerReplicaSet& operator=(const ControllerReplicaSet&) = delete;

  void set_degrade_hook(DegradeHook hook) { degrade_ = std::move(hook); }
  void set_recover_hook(RecoverHook hook) { recover_ = std::move(hook); }

  /// Interpose on the speaker and controller (flow observer + programming
  /// epoch), elect replica 0, and arm the heartbeat / election /
  /// anti-entropy timers. Call once, after the controller is bound to the
  /// speaker and before the experiment starts.
  void activate();

  // --- fault surface --------------------------------------------------------

  void crash_replica(std::size_t id);
  void restart_replica(std::size_t id);
  void crash_all();
  void restart_all();
  /// Partition a replica's replication links (both directions); heartbeats,
  /// votes, deltas, acks and snapshots to/from it are blocked. The switch
  /// and speaker channels are unaffected (shared-node model).
  void partition_replica(std::size_t id);
  void heal_replica(std::size_t id);

  // --- experiment integration ----------------------------------------------

  /// Record an origination/withdrawal into the replication log (the
  /// experiment calls these alongside IdrController::originate etc.).
  void record_originate(sdn::Dpid dpid, const net::Prefix& prefix,
                        std::optional<core::PortId> host_port);
  void record_withdraw_origin(const net::Prefix& prefix);

  // SpeakerListener: replicate, then forward to the live leader process.
  void on_peer_established(const speaker::Peering& peering) override;
  void on_peer_down(const speaker::Peering& peering,
                    const std::string& reason) override;
  void on_route_update(const speaker::Peering& peering,
                       const bgp::UpdateMessage& update) override;

  // --- introspection --------------------------------------------------------

  std::size_t size() const { return replicas_.size(); }
  std::optional<std::size_t> leader() const { return leader_; }
  bool degraded() const { return degraded_; }
  bool replica_partitioned(std::size_t id) const {
    return replicas_.at(id).partitioned;
  }
  std::size_t live_count() const;
  std::uint32_t cluster_epoch() const { return cluster_epoch_; }
  std::size_t log_size() const { return log_.size(); }
  std::size_t replica_acked(std::size_t id) const { return replicas_.at(id).acked; }
  std::uint64_t replica_term(std::size_t id) const { return replicas_.at(id).term; }
  const ReplicaSetCounters& counters() const { return counters_; }
  /// Virtual-time span of the most recent leaderless window (crash of the
  /// old leader to the new leader's election win); zero before any.
  core::Duration last_election_latency() const { return last_election_latency_; }

 private:
  struct Replica {
    bool crashed{false};
    bool partitioned{false};
    std::uint64_t term{0};
    std::uint64_t voted_term{0};  // highest term this replica granted
    core::TimePoint last_leader_contact{};  // latest heartbeat receipt
    std::size_t applied{0};       // log entries applied to the shadow
    std::size_t acked{0};         // leader's view of `applied`
    bool needs_snapshot{false};   // fresh joiner / post-takeover resync
    IdrShadowState shadow;
    std::uint64_t election_gen{0};
    std::uint64_t candidacy_gen{0};
    std::uint64_t candidacy_term{0};
    int votes{0};
    std::uint32_t backoff_mult{1};
    bool retry_armed{false};
  };

  std::size_t quorum() const { return live_count() / 2 + 1; }
  bool channel_blocked(std::size_t a, std::size_t b) const {
    return replicas_[a].partitioned || replicas_[b].partitioned;
  }

  void append(ReplicaDelta delta);
  void send_suffix(std::size_t to);
  void deliver_suffix(std::size_t to, std::size_t end);
  void deliver_ack(std::size_t from, std::size_t pos);
  void arm_retry(std::size_t to);
  void apply_delta(IdrShadowState& shadow, const ReplicaDelta& delta) const;
  void harvest_graph_deltas();

  void arm_heartbeat();
  void heartbeat_tick(std::uint64_t gen);
  void arm_anti_entropy();
  void anti_entropy_tick(std::uint64_t gen);
  void send_snapshot(std::size_t to);

  void arm_election(std::size_t id);
  void on_election_timeout(std::size_t id, std::uint64_t gen);
  void start_candidacy(std::size_t id);
  void deliver_vote_request(std::size_t from, std::size_t to,
                            std::uint64_t term, std::uint64_t candidacy_gen);
  void deliver_vote_grant(std::size_t to, std::uint64_t term,
                          std::uint64_t candidacy_gen);
  void become_leader(std::size_t id);

  void on_all_down();
  void recover_from_degraded(std::size_t id);
  void rebind_controller();
  void count(const char* name);
  /// One INFO record from the replica set (see core::Logger::log).
  template <typename... Parts>
  void log(const char* event, const Parts&... parts) const;

  core::EventLoop& loop_;
  core::Logger& logger_;
  telemetry::Telemetry& telemetry_;
  IdrController& controller_;
  speaker::ClusterBgpSpeaker& speaker_;
  ReplicaSetConfig config_;
  core::Rng rng_;

  std::vector<Replica> replicas_;
  std::vector<ReplicaDelta> log_;
  std::optional<std::size_t> leader_;
  bool degraded_{false};
  bool leaderless_{false};
  core::TimePoint leaderless_since_{};
  std::uint32_t cluster_epoch_{0};
  std::size_t graph_seen_{0};  // SwitchGraph changelog harvest position
  std::uint64_t hb_gen_{0};
  std::uint64_t ae_gen_{0};
  core::Duration last_election_latency_{core::Duration::zero()};
  ReplicaSetCounters counters_;
  DegradeHook degrade_;
  RecoverHook recover_;
};

}  // namespace bgpsdn::controller
