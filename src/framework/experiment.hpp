// Experiment — the high-level orchestration API.
//
// The C++ counterpart of the paper's Python experiment scripts and
// "additional Mininet-BGP commands": hand it a TopologySpec and the set of
// ASes that join the SDN cluster, and it builds the whole hybrid network —
// BGP routers for legacy ASes, switches + controller + cluster BGP speaker
// (with relay links and relay flow rules) for members, a route collector
// peering with every legacy router — assigns all addresses, and exposes
// announce / withdraw / fail-link / wait-until-converged commands.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bgp/collector.hpp"
#include "bgp/router.hpp"
#include "controller/fallback.hpp"
#include "controller/idr_controller.hpp"
#include "controller/replica_set.hpp"
#include "controller/routeflow.hpp"
#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "core/random.hpp"
#include "framework/convergence.hpp"
#include "framework/monitor_base.hpp"
#include "net/address_allocator.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "sdn/switch.hpp"
#include "speaker/cluster_speaker.hpp"
#include "topology/spec.hpp"

namespace bgpsdn::framework {

/// Which cluster routing application drives the SDN members.
enum class ControllerStyle {
  kIdrCentralized,   // the paper's IDR controller (default)
  kRouteFlowMirror,  // the related-work baseline: mirrored legacy BGP
};

struct ExperimentConfig {
  std::uint64_t seed{1};
  /// BGP timer profile for every legacy router (paper-faithful defaults:
  /// Quagga eBGP MRAI 30 s etc. — see bgp::Timers).
  bgp::Timers timers{};
  /// Route-flap damping on every legacy router (off by default, as in
  /// Quagga).
  bgp::DampingConfig damping{};
  /// Default link parameters where the spec does not override delay.
  net::LinkParams default_link{core::Duration::millis(5), 0, 0.0};
  /// Controller batching window (the paper's delayed recomputation).
  core::Duration recompute_delay{core::Duration::seconds(2)};
  /// Controller's sub-cluster legacy bridging (off = naive loop pruning).
  bool subcluster_bridging{true};
  /// Cluster controller implementation.
  ControllerStyle controller_style{ControllerStyle::kIdrCentralized};
  /// Controller replication factor. 1 (default) keeps the paper's single
  /// controller; >= 2 models hot-standby replicas with leader election and
  /// epoch-fenced failover (requires the IDR controller style). Only when
  /// all replicas are down does the cluster degrade to FallbackRouting.
  std::size_t controller_replicas{1};
  /// HA election timers (replicas and seed fields are overridden from
  /// controller_replicas and the experiment seed).
  controller::ReplicaSetConfig ha{};
  /// Whether to attach the monitoring route collector to legacy routers.
  bool with_collector{true};
  /// Retain log records in memory (off for long sweeps).
  bool retain_logs{false};
};

class Experiment {
 public:
  /// `sdn_members` selects which spec ASes join the cluster (must exist in
  /// the spec). Throws std::invalid_argument on inconsistent input.
  Experiment(const topology::TopologySpec& spec,
             std::set<core::AsNumber> sdn_members, ExperimentConfig config = {});

  // --- lifecycle ---------------------------------------------------------

  /// Attach a host to an AS (must be called before start()). The AS's /16
  /// prefix is originated automatically and delivered to the host.
  net::Host& add_host(core::AsNumber as);

  /// Start all nodes and run until every BGP session (including relayed
  /// cluster peerings and the collector's) is established plus initial
  /// routes settle. Returns false if sessions fail to establish in
  /// `timeout` virtual time.
  bool start(core::Duration timeout = core::Duration::seconds(120));

  // --- commands (the "Mininet-BGP commands") ------------------------------

  /// Originate / withdraw a prefix at an AS (router or cluster member).
  void announce_prefix(core::AsNumber as, const net::Prefix& prefix);
  void withdraw_prefix(core::AsNumber as, const net::Prefix& prefix);

  void fail_link(core::AsNumber a, core::AsNumber b);
  void restore_link(core::AsNumber a, core::AsNumber b);

  // --- fault commands ------------------------------------------------------

  /// Crash the cluster controller process: switch channels and application
  /// state are lost, every control link goes down (switches flush their
  /// data rules and enter standalone mode), and the cluster degrades to
  /// distributed BGP — the FallbackRouting engine takes over the speaker,
  /// reseeded from its retained Adj-RIBs-In and the recorded member
  /// originations. Requires the IDR controller style.
  void crash_controller();

  /// Restart a crashed controller: the fallback stands down, control links
  /// heal (switches flush degraded-mode rules and re-handshake), and the
  /// controller resyncs — replayed member originations plus the speaker's
  /// Adj-RIBs-In reproduce the Loc-RIBs of a never-crashed run.
  void restart_controller();

  /// Crash / restart the cluster BGP speaker process. Crash drops every
  /// external session silently (peers discover via hold-timer expiry);
  /// restart reconnects and peers re-send their tables.
  /// Replica-targeted faults (controller HA). A negative replica id means
  /// the whole controller (all replicas). With controller_replicas == 1,
  /// replica 0 aliases the whole controller; other ids are rejected.
  void crash_controller_replica(int replica);
  void restart_controller_replica(int replica);
  /// Partition / heal a replica's replication links (requires HA).
  void partition_replication(int replica);
  void heal_replication(int replica);

  void crash_speaker();
  void restart_speaker();

  bool controller_crashed() const { return controller_crashed_; }
  bool speaker_crashed() const {
    return speaker_ != nullptr && speaker_->crashed();
  }
  /// The degraded-mode engine; created lazily on the first controller
  /// crash, nullptr before that.
  controller::FallbackRouting* fallback() { return fallback_.get(); }

  /// The controller replica set; nullptr unless controller_replicas >= 2.
  controller::ControllerReplicaSet* replica_set() { return replica_set_.get(); }
  const controller::ControllerReplicaSet* replica_set() const {
    return replica_set_.get();
  }

  /// The link between two ASes (member or legacy); throws
  /// std::invalid_argument when no such link exists. For targeted
  /// degradation via network().set_link_loss/set_link_corruption.
  core::LinkId link_between(core::AsNumber a, core::AsNumber b) const;

  /// Grow the topology while running ("dynamically changing the topology"):
  /// wire a new peering between two *legacy* ASes; sessions start
  /// immediately. Throws std::invalid_argument for members (adding cluster
  /// links at runtime would need new relay plumbing) or duplicates.
  void add_link(core::AsNumber a, core::AsNumber b,
                bgp::Relationship a_sees_b = bgp::Relationship::kPeer);

  /// Drive the loop until routing is quiet for `opts.quiet` (zero = default
  /// of 2x MRAI + 1 s) or `opts.timeout` passes. The result carries the
  /// convergence instant, the timeout flag, and the quiet window actually
  /// applied — no side-channel queries needed.
  ConvergenceResult wait_converged(const WaitOpts& opts = {});

  // --- monitors ------------------------------------------------------------

  /// Construct a Monitor owned by this experiment. Monitors that declare an
  /// Experiment&-first constructor get `*this` prepended to `args`; plain
  /// constructors are forwarded as-is. Returns the live instance.
  template <typename T, typename... Args>
  T& attach_monitor(Args&&... args) {
    static_assert(std::is_base_of_v<Monitor, T>,
                  "attach_monitor requires a framework::Monitor subclass");
    std::unique_ptr<T> owned;
    if constexpr (std::is_constructible_v<T, Experiment&, Args...>) {
      owned = std::make_unique<T>(*this, std::forward<Args>(args)...);
    } else {
      owned = std::make_unique<T>(std::forward<Args>(args)...);
    }
    T& ref = *owned;
    monitors_.push_back(std::move(owned));
    return ref;
  }

  /// Typed retrieval: the first attached monitor of type T, or nullptr.
  template <typename T>
  T* monitor() {
    for (const auto& m : monitors_) {
      if (auto* typed = dynamic_cast<T*>(m.get())) return typed;
    }
    return nullptr;
  }
  template <typename T>
  const T* monitor() const {
    for (const auto& m : monitors_) {
      if (const auto* typed = dynamic_cast<const T*>(m.get())) return typed;
    }
    return nullptr;
  }

  const std::vector<std::unique_ptr<Monitor>>& monitors() const {
    return monitors_;
  }

  /// One JSON object per attached monitor: [{kind, data}, ...], in
  /// attachment order (the built-in convergence detector comes first).
  telemetry::Json monitors_snapshot() const;

  /// Let virtual time pass (events run).
  void run_for(core::Duration d) { loop_.run(loop_.now() + d); }

  // --- verification helpers ----------------------------------------------

  /// True when every legacy router's Loc-RIB contains a route for `prefix`
  /// (or, with `expect_present=false`, none does). Cluster members are
  /// checked against the controller's decisions.
  bool all_know_prefix(const net::Prefix& prefix, bool expect_present = true) const;

  /// Data-plane check: trace the FIB/flow hop sequence from AS `from`
  /// towards `dst`; returns the AS sequence, empty on a blackhole or loop.
  std::vector<core::AsNumber> trace_route(core::AsNumber from,
                                          net::Ipv4Addr dst) const;

  // --- accessors -----------------------------------------------------------

  bool is_member(core::AsNumber as) const { return members_.count(as) > 0; }
  bgp::BgpRouter& router(core::AsNumber as);
  const bgp::BgpRouter& router(core::AsNumber as) const;
  sdn::SdnSwitch& member_switch(core::AsNumber as);
  /// The active cluster controller (whichever style was configured).
  controller::ClusterController* cluster_controller() { return controller_; }
  /// Typed accessors; null when the other style is active.
  controller::IdrController* idr_controller() { return idr_; }
  controller::RouteFlowController* routeflow_controller() { return routeflow_; }
  speaker::ClusterBgpSpeaker* cluster_speaker() { return speaker_; }
  bgp::RouteCollector* collector() { return collector_; }
  net::Network& network() { return net_; }
  core::EventLoop& loop() { return loop_; }
  core::Logger& logger() { return log_; }
  core::Rng& rng() { return rng_; }
  net::AddressAllocator& allocator() { return alloc_; }
  /// The network's telemetry hub (metrics always collect; attach a
  /// TelemetryMonitor to capture traces).
  telemetry::Telemetry& telemetry() { return net_.telemetry(); }
  const topology::TopologySpec& spec() const { return spec_; }
  const ExperimentConfig& config() const { return config_; }
  net::Prefix as_prefix(core::AsNumber as) { return alloc_.as_prefix(as); }
  const std::set<core::AsNumber>& members() const { return members_; }

  /// Deterministic memory snapshot (core/mem_stats.hpp): RIB peaks from
  /// every router and the speaker, at-collection footprints of the attr
  /// intern pool and the member flow tables. Byte-identical at any
  /// BGPSDN_JOBS — no OS RSS involved.
  core::MemStats memory_stats() const;

 private:
  void build();
  void degrade_to_fallback(std::uint32_t epoch);
  void recover_from_fallback(std::uint32_t epoch);
  void build_legacy_link(const topology::LinkSpec& link);
  void build_cluster_link(const topology::LinkSpec& link);
  void build_border_link(const topology::LinkSpec& link);
  void attach_collector(core::AsNumber as);
  net::LinkParams link_params(const topology::LinkSpec& link) const;

  topology::TopologySpec spec_;
  std::set<core::AsNumber> members_;
  ExperimentConfig config_;

  core::EventLoop loop_;
  core::Logger log_;
  core::Rng rng_;
  net::Network net_;
  net::AddressAllocator alloc_;

  /// The simulation's one attribute store (created in build(), wired into
  /// every router and the speaker, and through it into the controller).
  bgp::AttrRegistryRef attr_registry_;
  std::map<core::AsNumber, bgp::BgpRouter*> routers_;
  std::map<core::AsNumber, sdn::SdnSwitch*> switches_;
  std::map<core::AsNumber, net::Host*> hosts_;
  /// Port on each member switch that leads to the controller.
  controller::ClusterController* controller_{nullptr};
  controller::IdrController* idr_{nullptr};
  controller::RouteFlowController* routeflow_{nullptr};
  speaker::ClusterBgpSpeaker* speaker_{nullptr};
  bgp::RouteCollector* collector_{nullptr};
  /// Controller<->switch control links, in build order (failed together on
  /// a controller crash, restored on restart).
  std::vector<core::LinkId> control_links_;
  /// Member originations as declared through the experiment API — the
  /// resync source for restarts and the fallback (the controller's own
  /// origin table dies with it).
  std::map<net::Prefix, controller::ClusterOrigin> member_origins_;
  std::unique_ptr<controller::FallbackRouting> fallback_;
  std::unique_ptr<controller::ControllerReplicaSet> replica_set_;
  bool controller_crashed_{false};
  /// All attached monitors, in attachment order; owns the built-in
  /// convergence detector (always monitors_[0]).
  std::vector<std::unique_ptr<Monitor>> monitors_;
  ConvergenceDetector* detector_{nullptr};
  bool started_{false};
};

}  // namespace bgpsdn::framework
