#include "framework/faults.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "framework/config_text.hpp"
#include "framework/experiment.hpp"
#include "net/network.hpp"
#include "telemetry/trace.hpp"

namespace bgpsdn::framework {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kLinkFlap: return "link_flap";
    case FaultKind::kLinkLoss: return "link_loss";
    case FaultKind::kLossRamp: return "loss_ramp";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kPartitionHeal: return "heal";
    case FaultKind::kControllerCrash: return "controller_crash";
    case FaultKind::kControllerRestart: return "controller_restart";
    case FaultKind::kReplPartition: return "repl_partition";
    case FaultKind::kReplHeal: return "repl_heal";
    case FaultKind::kSpeakerCrash: return "speaker_crash";
    case FaultKind::kSpeakerRestart: return "speaker_restart";
  }
  return "?";
}

namespace {

/// Arm-time diagnostics (FaultInjector::validate).
[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument{"fault plan: " + what};
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream in{text};
  for_each_line(in, [&](const Tokens& t) {
    if (t[0] == "seed") {
      plan.seed = parse_seed_line(t);
    } else if (t[0] == "at") {
      plan.events.push_back(parse_fault_line(t));
    } else {
      throw std::invalid_argument{"expected 'seed' or 'at', got '" + t[0] +
                                  "'"};
    }
  });
  return plan;
}

FaultInjector::FaultInjector(Experiment& experiment, FaultPlan plan)
    : experiment_{experiment}, plan_{std::move(plan)} {
  core::Rng jitter{plan_.seed == 0 ? 1 : plan_.seed};
  std::vector<Action> actions;
  for (const auto& event : plan_.events) {
    validate(event);
    expand(event, jitter, actions);
  }
  arm(std::move(actions));
}

FaultInjector::~FaultInjector() {
  for (const auto id : timers_) experiment_.loop().cancel(id);
}

void FaultInjector::validate(const FaultEvent& event) const {
  const auto check_probability = [](double v, const char* what) {
    if (std::isnan(v) || v < 0.0 || v > 1.0) {
      bad(std::string{what} + " must be in [0, 1]");
    }
  };
  switch (event.kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      experiment_.link_between(event.a, event.b);
      break;
    case FaultKind::kLinkFlap:
      experiment_.link_between(event.a, event.b);
      if (event.count < 1) bad("flap count must be >= 1");
      if (event.period <= core::Duration::zero()) {
        bad("flap period must be > 0");
      }
      break;
    case FaultKind::kLinkLoss:
      experiment_.link_between(event.a, event.b);
      check_probability(event.value, "loss probability");
      break;
    case FaultKind::kLossRamp:
      experiment_.link_between(event.a, event.b);
      check_probability(event.value, "ramp target");
      if (event.count < 1) bad("ramp steps must be >= 1");
      if (event.period <= core::Duration::zero()) {
        bad("ramp interval must be > 0");
      }
      break;
    case FaultKind::kCorrupt:
      experiment_.link_between(event.a, event.b);
      check_probability(event.value, "corruption probability");
      if (event.period <= core::Duration::zero()) {
        bad("corruption window must be > 0");
      }
      break;
    case FaultKind::kPartition:
      if (event.as_set.empty()) bad("partition needs at least one AS");
      for (const auto as : event.as_set) {
        if (!experiment_.spec().has_as(as)) {
          bad("partition AS " + as.to_string() + " not in topology");
        }
      }
      break;
    case FaultKind::kPartitionHeal:
      break;
    case FaultKind::kControllerCrash:
    case FaultKind::kControllerRestart:
      if (experiment_.idr_controller() == nullptr) {
        bad("controller faults require the IDR controller style");
      }
      if (event.count >= 0 &&
          static_cast<std::size_t>(event.count) >=
              std::max<std::size_t>(1, experiment_.config().controller_replicas)) {
        bad("controller replica id " + std::to_string(event.count) +
            " out of range (controller_replicas=" +
            std::to_string(experiment_.config().controller_replicas) + ")");
      }
      break;
    case FaultKind::kReplPartition:
    case FaultKind::kReplHeal:
      if (experiment_.config().controller_replicas < 2) {
        bad("replication faults require controller_replicas >= 2");
      }
      if (event.count < 0 ||
          static_cast<std::size_t>(event.count) >=
              experiment_.config().controller_replicas) {
        bad("controller replica id " + std::to_string(event.count) +
            " out of range (controller_replicas=" +
            std::to_string(experiment_.config().controller_replicas) + ")");
      }
      break;
    case FaultKind::kSpeakerCrash:
    case FaultKind::kSpeakerRestart:
      if (experiment_.cluster_speaker() == nullptr) {
        bad("speaker faults require an SDN cluster");
      }
      break;
  }
}

void FaultInjector::expand(const FaultEvent& event, core::Rng& jitter,
                           std::vector<Action>& out) const {
  const core::TimePoint base = experiment_.loop().now();
  Action proto;
  proto.kind = event.kind;
  proto.a = event.a;
  proto.b = event.b;
  proto.as_set = event.as_set;
  proto.value = event.value;
  switch (event.kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
    case FaultKind::kLinkLoss:
      proto.link = experiment_.link_between(event.a, event.b);
      proto.at = base + event.at;
      out.push_back(proto);
      break;
    case FaultKind::kLinkFlap: {
      // A flap train is count (down, up) cycles. The plan seed jitters the
      // cycle spacing (±10%) so trains do not phase-lock with protocol
      // timers; seed 0 keeps the spacing exact.
      proto.link = experiment_.link_between(event.a, event.b);
      core::Duration t = event.at;
      for (int i = 0; i < event.count; ++i) {
        proto.kind = FaultKind::kLinkDown;
        proto.at = base + t;
        out.push_back(proto);
        proto.kind = FaultKind::kLinkUp;
        proto.at = base + t + event.period / 2;
        out.push_back(proto);
        t += plan_.seed == 0 ? event.period
                             : jitter.jittered(event.period, 0.9, 1.1);
      }
      break;
    }
    case FaultKind::kLossRamp:
      // Steps toward the target; the last step lands exactly on it.
      proto.link = experiment_.link_between(event.a, event.b);
      for (int i = 1; i <= event.count; ++i) {
        proto.at = base + event.at + event.period * (i - 1);
        proto.value = event.value * i / event.count;
        out.push_back(proto);
      }
      break;
    case FaultKind::kCorrupt:
      // A bounded corruption window: set the probability, then clear it.
      proto.link = experiment_.link_between(event.a, event.b);
      proto.at = base + event.at;
      out.push_back(proto);
      proto.at = base + event.at + event.period;
      proto.value = 0.0;
      out.push_back(proto);
      break;
    case FaultKind::kControllerCrash:
    case FaultKind::kControllerRestart:
    case FaultKind::kReplPartition:
    case FaultKind::kReplHeal:
      proto.replica = event.count;
      proto.at = base + event.at;
      out.push_back(proto);
      break;
    case FaultKind::kPartition:
    case FaultKind::kPartitionHeal:
    case FaultKind::kSpeakerCrash:
    case FaultKind::kSpeakerRestart:
      proto.at = base + event.at;
      out.push_back(proto);
      break;
  }
}

void FaultInjector::arm(std::vector<Action> actions) {
  planned_ = actions.size();
  timers_.reserve(actions.size());
  for (auto& action : actions) {
    timers_.push_back(experiment_.loop().schedule_at(
        action.at, [this, act = std::move(action)] { fire(act); }));
  }
}

void FaultInjector::fire(const Action& action) {
  ++fired_;
  ++fired_by_kind_[to_string(action.kind)];
  auto& tel = experiment_.telemetry();
  tel.metrics().counter("faults.injected").inc();
  tel.metrics()
      .counter(std::string{"faults."} + to_string(action.kind))
      .inc();
  if (tel.tracing()) {
    auto span = telemetry::TraceSpan::instant(experiment_.loop().now(),
                                              "faults", to_string(action.kind),
                                              "fault-injector");
    if (action.link.is_valid()) {
      span.arg("a", static_cast<std::int64_t>(action.a.value()));
      span.arg("b", static_cast<std::int64_t>(action.b.value()));
    }
    if (action.kind == FaultKind::kLinkLoss ||
        action.kind == FaultKind::kLossRamp ||
        action.kind == FaultKind::kCorrupt) {
      span.arg("p", action.value);
    }
    tel.emit(span);
  }
  apply(action);
}

void FaultInjector::apply(const Action& action) {
  auto& net = experiment_.network();
  switch (action.kind) {
    case FaultKind::kLinkDown:
      net.set_link_up(action.link, false);
      break;
    case FaultKind::kLinkUp:
      net.set_link_up(action.link, true);
      break;
    case FaultKind::kLinkLoss:
    case FaultKind::kLossRamp:
      net.set_link_loss(action.link, action.value);
      break;
    case FaultKind::kCorrupt:
      net.set_link_corruption(action.link, action.value);
      break;
    case FaultKind::kPartition: {
      // Cut every spec link with exactly one endpoint inside the set. Only
      // links this action itself downed are recorded, so a later heal never
      // resurrects an independently failed link.
      const std::set<core::AsNumber> cut{action.as_set.begin(),
                                         action.as_set.end()};
      for (const auto& link : experiment_.spec().links) {
        if ((cut.count(link.a) > 0) == (cut.count(link.b) > 0)) continue;
        const auto id = experiment_.link_between(link.a, link.b);
        if (!net.link_is_up(id)) continue;
        net.set_link_up(id, false);
        partition_downed_.push_back(id);
      }
      break;
    }
    case FaultKind::kPartitionHeal:
      for (const auto id : partition_downed_) net.set_link_up(id, true);
      partition_downed_.clear();
      break;
    case FaultKind::kControllerCrash:
      experiment_.crash_controller_replica(action.replica);
      break;
    case FaultKind::kControllerRestart:
      experiment_.restart_controller_replica(action.replica);
      break;
    case FaultKind::kReplPartition:
      experiment_.partition_replication(action.replica);
      break;
    case FaultKind::kReplHeal:
      experiment_.heal_replication(action.replica);
      break;
    case FaultKind::kSpeakerCrash:
      experiment_.crash_speaker();
      break;
    case FaultKind::kSpeakerRestart:
      experiment_.restart_speaker();
      break;
    case FaultKind::kLinkFlap:
      // Flap trains are expanded into kLinkDown/kLinkUp cycles at schedule
      // time (see expand()); a flap action never reaches apply().
      break;
  }
}

telemetry::Json FaultInjector::snapshot() const {
  telemetry::Json doc = telemetry::Json::object();
  doc["planned"] = static_cast<std::int64_t>(planned_);
  doc["fired"] = static_cast<std::int64_t>(fired_);
  telemetry::Json by_kind = telemetry::Json::object();
  for (const auto& [kind, n] : fired_by_kind_) {
    by_kind[kind] = static_cast<std::int64_t>(n);
  }
  doc["by_kind"] = std::move(by_kind);
  telemetry::Json events = telemetry::Json::array();
  for (const auto& event : plan_.events) {
    telemetry::Json e = telemetry::Json::object();
    e["at_s"] = event.at.to_seconds();
    e["kind"] = std::string{to_string(event.kind)};
    events.push_back(std::move(e));
  }
  doc["events"] = std::move(events);
  return doc;
}

}  // namespace bgpsdn::framework
