#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>

#include "telemetry/trace.hpp"

namespace perfbench {

namespace fw = bgpsdn::framework;
using bgpsdn::core::Duration;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- workload definitions ----------------------------------------------------

constexpr std::size_t kOrigins = 16;
constexpr std::size_t kPrefixesPerOrigin = 11;

/// The internet-scale load of bench_scale: 16 origins spread over the stub
/// tier (internet_like numbers stubs last) announce 11 /24s each, MRAI
/// 0.3 s, no collector.
fw::ExperimentSpec internet_spec(std::size_t ases, std::size_t sdn) {
  fw::ExperimentConfig cfg;
  cfg.timers.mrai = Duration::millis(300);
  cfg.with_collector = false;
  fw::ExperimentSpecBuilder builder;
  builder.topology(fw::TopologyModel::kInternetLike, ases)
      .sdn_count(sdn)
      .event(fw::EventKind::kWithdrawal)
      .config(cfg);
  const std::size_t step = std::max<std::size_t>(1, ases / (2 * kOrigins));
  for (std::size_t i = 0; i < kOrigins && i * step < ases; ++i) {
    const AsNumber as{static_cast<std::uint32_t>(ases - i * step)};
    for (std::size_t j = 0; j < kPrefixesPerOrigin; ++j) {
      const auto octet = static_cast<std::uint8_t>(i * kPrefixesPerOrigin + j);
      builder.announce(
          as, Prefix{bgpsdn::net::Ipv4Addr{198, 18, octet, 0}, 24});
    }
  }
  return builder.build();
}

std::vector<TrialInput> seed_pool(std::uint64_t base, std::size_t seeds,
                                  std::size_t sdn) {
  std::vector<TrialInput> pool;
  for (std::size_t i = 0; i < seeds; ++i) pool.push_back({base + i, sdn});
  return pool;
}

// --- output check ------------------------------------------------------------

struct RouteState {
  std::map<Prefix, AsNumber> live;  // prefix -> origin AS
  std::set<Prefix> withdrawn;
};

/// Empty when every live prefix is at every legacy Loc-RIB and at every
/// member flow table but its origin's, and no withdrawn prefix survives
/// anywhere. Members are judged by their data rules, not all_know_prefix,
/// which expects an output rule at the origin switch too.
std::string check_routes(fw::Experiment& exp, const RouteState& state) {
  for (const AsNumber as : exp.spec().ases) {
    if (exp.is_member(as)) {
      std::set<Prefix> output, any;
      for (const auto& e : exp.member_switch(as).table().entries()) {
        if (e.priority != bgpsdn::controller::kDataRulePriority) continue;
        any.insert(e.match.dst);
        if (e.action.type == bgpsdn::sdn::ActionType::kOutput) {
          output.insert(e.match.dst);
        }
      }
      for (const auto& [prefix, origin] : state.live) {
        if (origin != as && output.count(prefix) == 0) {
          return prefix.to_string() + " missing at member " + as.to_string();
        }
      }
      for (const auto& prefix : state.withdrawn) {
        if (any.count(prefix) > 0) {
          return prefix.to_string() + " survives at member " + as.to_string();
        }
      }
    } else {
      const auto& rib = exp.router(as).loc_rib();
      for (const auto& [prefix, origin] : state.live) {
        if (rib.find(prefix) == nullptr) {
          return prefix.to_string() + " missing at " + as.to_string();
        }
      }
      for (const auto& prefix : state.withdrawn) {
        if (rib.find(prefix) != nullptr) {
          return prefix.to_string() + " survives at " + as.to_string();
        }
      }
    }
  }
  return {};
}

/// The first transit uplink in link order: a customer-provider link whose
/// customer end has customers of its own. Both ends are legacy ASes.
std::pair<AsNumber, AsNumber> transit_uplink(const fw::Experiment& exp) {
  using bgpsdn::bgp::Relationship;
  std::set<AsNumber> providers;
  for (const auto& link : exp.spec().links) {
    if (link.a_sees_b == Relationship::kCustomer) providers.insert(link.a);
    if (link.a_sees_b == Relationship::kProvider) providers.insert(link.b);
  }
  for (const auto& link : exp.spec().links) {
    if (exp.is_member(link.a) || exp.is_member(link.b)) continue;
    const bool up_from_b = link.a_sees_b == Relationship::kCustomer &&
                           providers.count(link.b) > 0;
    const bool up_from_a = link.a_sees_b == Relationship::kProvider &&
                           providers.count(link.a) > 0;
    if (up_from_a || up_from_b) return {link.a, link.b};
  }
  throw std::runtime_error{"topology has no legacy transit uplink"};
}

// --- tracing -----------------------------------------------------------------

/// Stamps host time at every span and charges the interval since the
/// previous stamp to the layer that emitted the new span.
class LayerProfiler : public bgpsdn::telemetry::TraceSink {
 public:
  explicit LayerProfiler(TrialResult& out) : out_{out} {}

  void begin_phase() {
    active_ = true;
    last_ = Clock::now();
  }
  void end_phase() {
    const auto now = Clock::now();
    out_.layers.other_s += seconds_between(last_, now);
    active_ = false;
  }

  void on_span(const bgpsdn::telemetry::TraceSpan& span) override {
    const auto now = Clock::now();
    ++out_.spans;
    const bool rx = is(span.category, "bgp") && is(span.name, "update_rx");
    if (rx) {
      ++out_.rx_updates;
      for (const auto& [key, value] : span.args) {
        if (key == "nlri" || key == "withdrawn") {
          out_.rx_routes += static_cast<std::uint64_t>(value.as_int());
        }
      }
    }
    if (!active_) return;  // outside a timed phase: the phase clock has it
    bucket(span) += seconds_between(last_, now);
    last_ = now;
  }

 private:
  static bool is(const char* a, const char* b) { return std::strcmp(a, b) == 0; }

  double& bucket(const bgpsdn::telemetry::TraceSpan& span) {
    LayerTimes& t = out_.layers;
    const char* name = span.name;
    if (is(span.category, "bgp")) {
      if (is(name, "update_rx")) return t.bgp_rx_s;
      if (is(name, "fsm")) return t.bgp_fsm_s;
      if (is(name, "decision")) return t.bgp_decision_s;
      return t.bgp_tx_s;  // update_tx, mrai_wait
    }
    if (is(span.category, "ctrl")) {
      if (is(name, "dijkstra")) return t.ctrl_decide_s;
      if (is(name, "flow_install")) return t.ctrl_compile_s;
      return t.ctrl_input_s;
    }
    if (is(span.category, "sdn")) return t.sdn_flow_mod_s;
    if (is(span.category, "speaker")) return t.speaker_s;
    return t.other_s;
  }

  TrialResult& out_;
  bool active_{false};
  Clock::time_point last_{};
};

void append_u64(std::string& out, const char* key, std::uint64_t value) {
  out += key;
  out += '=';
  out += std::to_string(value);
  out += ';';
}

}  // namespace

std::string TrialInput::key() const {
  return std::to_string(sdn_count) + ":" + std::to_string(seed);
}

std::optional<Workload> make_workload(const std::string& name, Scale scale) {
  const bool smoke = scale == Scale::kSmoke;
  Workload w;
  w.name = name;
  if (name == "internet_bgp") {
    const std::size_t ases = smoke ? 100 : 1000;
    w.spec = internet_spec(ases, 0);
    w.steps = {Step::kWithdrawOrigin, Step::kFailUplink, Step::kRestoreUplink};
    w.quiet = w.spec.effective_quiet();
    w.pool = seed_pool(11000, smoke ? 2 : 5, 0);
  } else if (name == "internet_hybrid") {
    const std::size_t ases = smoke ? 60 : 120;
    w.spec = internet_spec(ases, ases / 2);
    w.steps = {Step::kWithdrawOrigin, Step::kFailUplink, Step::kRestoreUplink};
    // Above the 2 s controller recompute delay: with the 1.6 s default a
    // member-origin withdrawal "converges" before the batch fires.
    w.quiet = Duration::seconds(5);
    w.pool = seed_pool(12000, smoke ? 2 : 14, w.spec.sdn_count);
  } else if (name == "fig2_sweep") {
    // The paper's Fig. 2: a 16-AS clique, paper timers (MRAI 30 s,
    // recompute delay 2 s), withdrawal at AS 1, SDN count 0..15.
    const std::size_t size = smoke ? 6 : 16;
    w.spec = fw::ExperimentSpecBuilder{}
                 .topology(fw::TopologyModel::kClique, size)
                 .event(fw::EventKind::kWithdrawal)
                 .build();
    w.steps = {Step::kWithdrawOrigin};
    w.quiet = w.spec.effective_quiet();
    for (std::size_t k = 0; k < size; ++k) {
      for (const auto& input : seed_pool(1000, smoke ? 2 : 10, k)) {
        w.pool.push_back(input);
      }
    }
  } else {
    return std::nullopt;
  }
  return w;
}

std::string TrialResult::fingerprint_text() const {
  std::string out;
  append_u64(out, "events", events);
  out += "virtual_ns=";
  for (std::size_t i = 0; i < virtual_ns.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(virtual_ns[i]);
  }
  out += ';';
  for (const auto& [name, value] : counters) {
    append_u64(out, name.c_str(), static_cast<std::uint64_t>(value));
  }
  append_u64(out, "log_records", log_records);
  append_u64(out, "log_bytes", log_bytes);
  append_u64(out, "mem.rib_total", mem.rib_total());
  append_u64(out, "mem.attr_registry", mem.attr_registry);
  append_u64(out, "mem.flow_tables", mem.flow_tables);
  append_u64(out, "mem.speaker_ribs", mem.speaker_ribs);
  if (!failure.empty()) out += "failure=" + failure + ';';
  return out;
}

std::string TrialResult::fingerprint() const {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : fingerprint_text()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

TrialResult run_trial(const Workload& workload, const TrialInput& input,
                      bool traced) {
  TrialResult r;
  fw::ExperimentSpec spec = workload.spec;
  spec.sdn_count = input.sdn_count;
  fw::ExperimentConfig cfg = spec.config;
  cfg.seed = input.seed;
  const fw::WaitOpts wait{workload.quiet, Duration::seconds(3600)};
  LayerProfiler profiler{r};

  const auto t0 = Clock::now();
  const bgpsdn::topology::TopologySpec topology = spec.make_topology(input.seed);
  const auto t1 = Clock::now();
  auto exp = std::make_unique<fw::Experiment>(topology, spec.make_members(), cfg);
  exp->logger().add_sink([&r](const bgpsdn::core::LogRecord& rec) {
    ++r.log_records;
    r.log_bytes += rec.component.size() + rec.event.size() + rec.detail.size();
  });
  const std::size_t trace_sink =
      traced ? exp->telemetry().add_sink(&profiler) : 0;
  RouteState state;
  for (const auto& [as, prefix] : spec.effective_announcements()) {
    exp->announce_prefix(as, prefix);
    state.live[prefix] = as;
  }
  const auto t2 = Clock::now();
  r.topology_s = seconds_between(t0, t1);
  r.build_s = seconds_between(t1, t2);
  r.ases = topology.ases.size();

  profiler.begin_phase();
  const auto s0 = Clock::now();
  bool ok = exp->start(Duration::seconds(600));
  // start() settles with the default quiet window; a workload that needs a
  // longer one (the controller's batch) finishes bring-up at its own.
  if (ok && workload.quiet > spec.effective_quiet()) {
    ok = !exp->wait_converged(wait).timed_out;
  }
  r.start_s = seconds_between(s0, Clock::now());
  profiler.end_phase();
  r.virtual_ns.push_back(exp->loop().now().nanos_since_origin());
  if (!ok) r.failure = "start() failed";
  if (r.failure.empty()) {
    const std::string bad = check_routes(*exp, state);
    if (!bad.empty()) r.failure = "after bring-up: " + bad;
  }

  const AsNumber origin = spec.effective_announcements().front().first;
  std::pair<AsNumber, AsNumber> uplink{};
  if (std::count(workload.steps.begin(), workload.steps.end(),
                 Step::kFailUplink) > 0) {
    uplink = transit_uplink(*exp);
  }
  for (const Step step : workload.steps) {
    if (!r.failure.empty()) break;
    profiler.begin_phase();
    const auto e0 = Clock::now();
    const auto injected = exp->loop().now();
    const char* what = "";
    switch (step) {
      case Step::kWithdrawOrigin:
        what = "withdrawal";
        for (auto it = state.live.begin(); it != state.live.end();) {
          if (it->second != origin) {
            ++it;
            continue;
          }
          exp->withdraw_prefix(origin, it->first);
          state.withdrawn.insert(it->first);
          it = state.live.erase(it);
        }
        break;
      case Step::kFailUplink:
        what = "uplink failure";
        exp->fail_link(uplink.first, uplink.second);
        break;
      case Step::kRestoreUplink:
        what = "uplink restore";
        exp->restore_link(uplink.first, uplink.second);
        break;
    }
    const fw::ConvergenceResult conv = exp->wait_converged(wait);
    r.events_s += seconds_between(e0, Clock::now());
    profiler.end_phase();
    r.virtual_ns.push_back(conv.since(injected).count_nanos());
    if (conv.timed_out) {
      r.failure = std::string{"wait timed out after "} + what;
    } else if (const std::string bad = check_routes(*exp, state); !bad.empty()) {
      r.failure = std::string{"after "} + what + ": " + bad;
    }
  }

  r.events = exp->loop().events_executed();
  fw::accumulate_counters(*exp, r.counters);
  if (const auto* idr = exp->idr_controller()) r.idr = idr->counters();
  r.mem = exp->memory_stats();
  if (traced) exp->telemetry().remove_sink(trace_sink);

  const auto d0 = Clock::now();
  exp.reset();
  r.teardown_s = seconds_between(d0, Clock::now());
  return r;
}

}  // namespace perfbench
