#include "framework/experiment_spec.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "topology/datasets.hpp"
#include "topology/generators.hpp"

namespace bgpsdn::framework {

namespace {

[[noreturn]] void bad(const std::string& message) {
  throw std::invalid_argument{message};
}

}  // namespace

const char* to_string(TopologyModel model) {
  switch (model) {
    case TopologyModel::kClique: return "clique";
    case TopologyModel::kLine: return "line";
    case TopologyModel::kRing: return "ring";
    case TopologyModel::kStar: return "star";
    case TopologyModel::kSynthCaida: return "synth-caida";
    case TopologyModel::kInternetLike: return "internet-like";
  }
  return "?";
}

std::optional<TopologyModel> parse_topology_model(std::string_view name) {
  if (name == "clique") return TopologyModel::kClique;
  if (name == "line") return TopologyModel::kLine;
  if (name == "ring") return TopologyModel::kRing;
  if (name == "star") return TopologyModel::kStar;
  if (name == "synth-caida") return TopologyModel::kSynthCaida;
  if (name == "internet-like") return TopologyModel::kInternetLike;
  return std::nullopt;
}

const char* to_string(EventKind event) {
  switch (event) {
    case EventKind::kAnnouncement: return "announcement";
    case EventKind::kWithdrawal: return "withdrawal";
    case EventKind::kFailover: return "failover";
    case EventKind::kFlapTrain: return "flap-train";
  }
  return "?";
}

std::optional<EventKind> parse_event_kind(std::string_view name) {
  if (name == "announcement" || name == "announce") {
    return EventKind::kAnnouncement;
  }
  if (name == "withdrawal" || name == "withdraw") return EventKind::kWithdrawal;
  if (name == "failover") return EventKind::kFailover;
  if (name == "flap-train" || name == "flap") return EventKind::kFlapTrain;
  return std::nullopt;
}

net::Prefix ExperimentSpec::primary_prefix() {
  return *net::Prefix::parse("10.0.0.0/16");
}

net::Prefix ExperimentSpec::fresh_prefix() {
  return *net::Prefix::parse("10.200.0.0/16");
}

core::AsNumber ExperimentSpec::failover_stub() { return core::AsNumber{100}; }
core::AsNumber ExperimentSpec::failover_mid() { return core::AsNumber{101}; }

void ExperimentSpec::resolve() {
  if (sdn_fraction) {
    if (!(*sdn_fraction >= 0.0 && *sdn_fraction <= 1.0)) {
      bad("sdn fraction must be in [0, 1], got " +
          std::to_string(*sdn_fraction));
    }
    sdn_count = static_cast<std::size_t>(
        *sdn_fraction * static_cast<double>(topology_size) + 0.5);
    sdn_fraction.reset();
  }
}

void ExperimentSpec::validate() const {
  if (topology_size < 2) {
    bad("topology size must be >= 2, got " + std::to_string(topology_size));
  }
  if (sdn_fraction) {
    bad("sdn_fraction is unresolved; call resolve() before validate()");
  }
  if (sdn_count > topology_size) {
    bad("sdn count " + std::to_string(sdn_count) + " exceeds topology size " +
        std::to_string(topology_size));
  }
  if (topology == TopologyModel::kInternetLike && topology_size < 8) {
    bad("internet-like topologies need >= 8 ASes, got " +
        std::to_string(topology_size));
  }
  if (event == EventKind::kFailover &&
      topology_size >= failover_stub().value()) {
    bad("failover topologies are capped at " +
        std::to_string(failover_stub().value() - 1) +
        " ASes (the stub occupies AS " + failover_stub().to_string() + ")");
  }
  if (event == EventKind::kFlapTrain) {
    if (sdn_count < 2) {
      bad("flap-train needs at least 2 SDN members (the flapped link joins "
          "the two lowest-numbered members)");
    }
    if (flap_cycles < 1) bad("flap-train needs at least 1 cycle");
  }
  if (config.controller_replicas < 1 || config.controller_replicas > 16) {
    bad("controller replicas must be in [1, 16], got " +
        std::to_string(config.controller_replicas));
  }
  if (config.controller_replicas >= 2 &&
      config.controller_style != ControllerStyle::kIdrCentralized) {
    bad("controller replication requires the IDR controller style");
  }
  if (config.controller_replicas >= 2 && sdn_count < 1) {
    bad("controller replication needs at least 1 SDN member");
  }
  for (const auto& [as, prefix] : announcements) {
    (void)prefix;
    const bool in_topology = as.value() >= 1 && as.value() <= topology_size;
    const bool failover_extra =
        event == EventKind::kFailover &&
        (as == failover_stub() || as == failover_mid());
    if (!in_topology && !failover_extra) {
      bad("announcement origin AS " + as.to_string() + " not in topology");
    }
  }
}

core::AsNumber ExperimentSpec::origin() const {
  if (event == EventKind::kFailover) return failover_stub();
  if (!announcements.empty()) return announcements.front().first;
  return core::AsNumber{1};
}

topology::TopologySpec ExperimentSpec::make_topology(std::uint64_t seed) const {
  topology::TopologySpec spec;
  switch (topology) {
    case TopologyModel::kClique:
      spec = topology::clique(topology_size);
      break;
    case TopologyModel::kLine:
      spec = topology::line(topology_size);
      break;
    case TopologyModel::kRing:
      spec = topology::ring(topology_size);
      break;
    case TopologyModel::kStar:
      spec = topology::star(topology_size);
      break;
    case TopologyModel::kSynthCaida: {
      core::Rng rng{seed};
      spec = topology::parse_caida_text(
          topology::synthesize_caida_text(topology_size, rng));
      break;
    }
    case TopologyModel::kInternetLike: {
      // Scale the three-tier shape from the total AS target: a small tier-1
      // core, ~an eighth of the ASes as transit, the rest stubs. Three
      // uplinks per non-core AS keep per-prefix candidate sets well above
      // one, which is the load the RIB memory figures have to absorb.
      topology::InternetLikeParams params;
      params.tier1 =
          std::min<std::size_t>(std::max<std::size_t>(3, topology_size / 25),
                                8);
      params.transit =
          std::min(std::max<std::size_t>(4, topology_size / 8),
                   topology_size - params.tier1 - 1);
      params.stubs = topology_size - params.tier1 - params.transit;
      params.transit_uplinks = 4;
      params.stub_uplinks = 4;
      params.transit_peer_prob =
          std::min(0.2, 8.0 / static_cast<double>(params.transit));
      core::Rng rng{seed};
      spec = topology::internet_like(params, rng);
      break;
    }
  }
  if (event == EventKind::kFailover) {
    // Dual-homed stub: primary link into AS 1, backup path via the
    // intermediate AS into the highest regular AS.
    const core::AsNumber stub = failover_stub();
    const core::AsNumber mid = failover_mid();
    const core::AsNumber primary{1};
    const core::AsNumber backup_attach{
        static_cast<std::uint32_t>(topology_size)};
    spec.add_as(stub);
    spec.add_as(mid);
    spec.add_link(stub, primary);
    spec.add_link(stub, mid);
    spec.add_link(mid, backup_attach);
  }
  return spec;
}

std::set<core::AsNumber> ExperimentSpec::make_members() const {
  std::set<core::AsNumber> members;
  for (std::size_t i = 0; i < sdn_count; ++i) {
    members.insert(
        core::AsNumber{static_cast<std::uint32_t>(topology_size - i)});
  }
  return members;
}

std::vector<std::pair<core::AsNumber, net::Prefix>>
ExperimentSpec::effective_announcements() const {
  if (!announcements.empty()) return announcements;
  return {{origin(), primary_prefix()}};
}

std::unique_ptr<Experiment> ExperimentSpec::make_experiment(
    std::uint64_t seed) const {
  ExperimentConfig cfg = config;
  cfg.seed = seed;
  auto experiment = std::make_unique<Experiment>(make_topology(seed),
                                                 make_members(), cfg);
  for (const auto& [as, prefix] : effective_announcements()) {
    experiment->announce_prefix(as, prefix);
  }
  return experiment;
}

core::TimePoint ExperimentSpec::inject_event(Experiment& experiment) const {
  const auto t0 = experiment.loop().now();
  switch (event) {
    case EventKind::kAnnouncement:
      experiment.announce_prefix(origin(), fresh_prefix());
      break;
    case EventKind::kWithdrawal: {
      const auto first = effective_announcements().front();
      experiment.withdraw_prefix(first.first, first.second);
      break;
    }
    case EventKind::kFailover:
      experiment.fail_link(failover_stub(), core::AsNumber{1});
      break;
    case EventKind::kFlapTrain: {
      // Flap the link between the two lowest-numbered members, waiting out
      // convergence after every transition (the churn-ablation shape).
      const auto members = make_members();
      auto it = members.begin();
      const core::AsNumber a = *it++;
      const core::AsNumber b = *it;
      for (std::size_t i = 0; i < flap_cycles; ++i) {
        experiment.fail_link(a, b);
        experiment.wait_converged();
        experiment.restore_link(a, b);
        experiment.wait_converged();
      }
      break;
    }
  }
  return t0;
}

core::Duration ExperimentSpec::effective_quiet() const {
  if (wait_quiet > core::Duration::zero()) return wait_quiet;
  return config.timers.mrai * 2 + core::Duration::seconds(1);
}

double ExperimentSpec::run_trial(
    std::uint64_t seed, std::map<std::string, std::int64_t>* counters_out)
    const {
  auto experiment = make_experiment(seed);
  const bool started = experiment->start();
  double seconds = 0.0;
  const bool ok = checked_trial(*experiment, started, [&] {
    if (!faults.events.empty()) {
      experiment->attach_monitor<FaultInjector>(faults);
    }
    if (event == EventKind::kFlapTrain) {
      // Measure the train itself: settle first, then every fail/restore
      // cycle (each waited to quiescence) is the measured interval.
      experiment->wait_converged();
      const auto t0 = experiment->loop().now();
      inject_event(*experiment);
      seconds = (experiment->loop().now() - t0).to_seconds();
    } else {
      const auto t0 = inject_event(*experiment);
      const auto conv = experiment->wait_converged(
          WaitOpts{effective_quiet(), core::Duration::seconds(3600)});
      seconds = conv.since(t0).to_seconds();
    }
    if (counters_out != nullptr) accumulate_counters(*experiment, *counters_out);
  });
  return ok ? seconds : -1.0;
}

bool checked_trial(Experiment& experiment, bool started,
                   const std::function<void()>& measure) {
  const auto seed = static_cast<unsigned long long>(experiment.config().seed);
  if (!started) {
    std::fprintf(stderr, "trial failed to start (seed %llu)\n", seed);
    return false;
  }
  // find_counter keeps an untouched counter out of the JSON counters block.
  const auto timeouts = [&experiment] {
    const auto* c = experiment.telemetry().metrics().find_counter(
        "framework.wait_converged.timeouts");
    return c == nullptr ? 0 : c->value();
  };
  const std::int64_t before = timeouts();
  measure();
  if (timeouts() != before) {
    std::fprintf(stderr, "trial timed out waiting for convergence (seed %llu)\n",
                 seed);
    return false;
  }
  return true;
}

std::string ExperimentSpec::signature() const {
  char buf[384];
  std::snprintf(
      buf, sizeof buf,
      "topo=%s:%zu sdn=%zu event=%s flaps=%zu mrai=%lld recompute=%lld "
      "damping=%d controller=%s quiet=%lld link_delay=%lld "
      "replicas=%zu election=%lld",
      to_string(topology), topology_size, sdn_count, to_string(event),
      event == EventKind::kFlapTrain ? flap_cycles : std::size_t{0},
      static_cast<long long>(config.timers.mrai.count_nanos()),
      static_cast<long long>(config.recompute_delay.count_nanos()),
      config.damping.enabled ? 1 : 0,
      config.controller_style == ControllerStyle::kIdrCentralized
          ? "idr"
          : "routeflow",
      static_cast<long long>(wait_quiet.count_nanos()),
      static_cast<long long>(config.default_link.delay.count_nanos()),
      config.controller_replicas,
      static_cast<long long>(config.ha.election_min.count_nanos()));
  std::string out{buf};
  for (const auto& [as, prefix] : announcements) {
    out += " announce=" + as.to_string() + ":" + prefix.to_string();
  }
  for (const auto& fault : faults.events) {
    out += " fault=" + std::string{to_string(fault.kind)} + "@" +
           std::to_string(fault.at.count_nanos());
  }
  return out;
}

void accumulate_counters(Experiment& experiment,
                         std::map<std::string, std::int64_t>& out) {
  telemetry::Json snap = experiment.telemetry().metrics().snapshot();
  for (const auto& [name, value] : snap["counters"].entries()) {
    out[name] += value.as_int();
  }
}

// --- builder ----------------------------------------------------------------

ExperimentSpecBuilder& ExperimentSpecBuilder::topology(TopologyModel model,
                                                       std::size_t size) {
  if (size < 2) {
    bad("topology size must be >= 2, got " + std::to_string(size));
  }
  spec_.topology = model;
  spec_.topology_size = size;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::sdn_count(std::size_t count) {
  spec_.sdn_count = count;
  spec_.sdn_fraction.reset();
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::sdn_fraction(double fraction) {
  if (!(fraction >= 0.0 && fraction <= 1.0)) {
    bad("sdn fraction must be in [0, 1], got " + std::to_string(fraction));
  }
  spec_.sdn_fraction = fraction;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::event(EventKind kind) {
  spec_.event = kind;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::flap_cycles(std::size_t cycles) {
  if (cycles < 1) bad("flap-train needs at least 1 cycle");
  spec_.flap_cycles = cycles;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::faults(FaultPlan plan) {
  spec_.faults = std::move(plan);
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::config(
    const ExperimentConfig& cfg) {
  spec_.config = cfg;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::timers(const bgp::Timers& timers) {
  spec_.config.timers = timers;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::mrai(core::Duration mrai) {
  if (mrai < core::Duration::zero()) bad("mrai must be >= 0");
  spec_.config.timers.mrai = mrai;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::recompute_delay(
    core::Duration delay) {
  if (delay < core::Duration::zero()) bad("recompute delay must be >= 0");
  spec_.config.recompute_delay = delay;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::damping(bool enabled) {
  spec_.config.damping.enabled = enabled;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::controller_style(
    ControllerStyle style) {
  spec_.config.controller_style = style;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::controller_replicas(
    std::size_t replicas) {
  if (replicas < 1 || replicas > 16) {
    bad("controller replicas must be in [1, 16], got " +
        std::to_string(replicas));
  }
  spec_.config.controller_replicas = replicas;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::election_timeout(
    core::Duration timeout) {
  if (timeout <= core::Duration::zero()) bad("election timeout must be > 0");
  spec_.config.ha.election_min = timeout;
  spec_.config.ha.election_max = timeout * 2;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::wait_quiet(core::Duration quiet) {
  if (quiet < core::Duration::zero()) bad("wait quiet must be >= 0");
  spec_.wait_quiet = quiet;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::announce(
    core::AsNumber as, const net::Prefix& prefix) {
  spec_.announcements.emplace_back(as, prefix);
  return *this;
}

ExperimentSpec ExperimentSpecBuilder::build() const {
  ExperimentSpec spec = spec_;
  spec.resolve();
  spec.validate();
  return spec;
}

}  // namespace bgpsdn::framework
