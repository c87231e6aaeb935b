// Fault-injection engine and crash-recovery acceptance tests: plan parsing,
// arm-time validation, deterministic expansion, controller/speaker crash +
// restart semantics (graceful degradation to distributed BGP), corruption
// windows, partitions, and byte-identical chaos trials across job counts.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "framework/experiment.hpp"
#include "framework/faults.hpp"
#include "framework/scenario.hpp"
#include "framework/trial.hpp"
#include "topology/generators.hpp"

namespace bgpsdn::framework {
namespace {

ExperimentConfig fast_config(std::uint64_t seed = 17) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.timers.mrai = core::Duration::millis(300);
  cfg.timers.hold = core::Duration::seconds(6);
  cfg.timers.keepalive = core::Duration::seconds(2);
  cfg.recompute_delay = core::Duration::millis(100);
  return cfg;
}

const net::Prefix kPfx = *net::Prefix::parse("10.0.0.0/16");
const net::Prefix kPfx2 = *net::Prefix::parse("10.50.0.0/16");

/// Every legacy Loc-RIB rendered to one comparable string. Lines are
/// sorted so the comparison survives histories that legitimately diverge
/// between runs even when the routes themselves match.
std::string rib_snapshot(Experiment& exp) {
  std::vector<std::string> lines;
  for (const auto as : exp.spec().ases) {
    if (exp.is_member(as)) continue;
    exp.router(as).loc_rib().for_each([&](const bgp::Route& route) {
      lines.push_back(as.to_string() + " " + route.prefix.to_string() + " [" +
                      route.attributes->as_path.to_string() + "]");
    });
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

/// Every member flow table rendered to one comparable string, sorted so the
/// comparison survives insertion-order differences between runs whose
/// histories legitimately diverge (crash cycles flush and reinstall).
std::string flow_snapshot(Experiment& exp) {
  std::vector<std::string> lines;
  for (const auto as : exp.spec().ases) {
    if (!exp.is_member(as)) continue;
    for (const auto& e : exp.member_switch(as).table().entries()) {
      lines.push_back(as.to_string() + " " + e.to_string());
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

TEST(FaultPlanParse, FullGrammar) {
  const auto plan = FaultPlan::parse(
      "# chaos plan\n"
      "seed 42\n"
      "at 1.5 link-down 1 10\n"
      "at 2 link-up 1 10\n"
      "at 3 flap 1 10 5 0.4\n"
      "at 4 loss 1 10 0.2   # trailing comment\n"
      "at 5 loss-ramp 1 10 0.5 5 1\n"
      "at 6 corrupt 1 10 0.3 2\n"
      "\n"
      "at 8 partition 7 8 9 10\n"
      "at 12 heal\n"
      "at 15 controller-crash\n"
      "at 20 controller-restart\n"
      "at 25 speaker-crash\n"
      "at 30 speaker-restart\n");
  ASSERT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.events.size(), 12u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(plan.events[0].at, core::Duration::seconds_f(1.5));
  EXPECT_EQ(plan.events[0].a, core::AsNumber{1});
  EXPECT_EQ(plan.events[0].b, core::AsNumber{10});
  EXPECT_EQ(plan.events[2].kind, FaultKind::kLinkFlap);
  EXPECT_EQ(plan.events[2].count, 5);
  EXPECT_EQ(plan.events[2].period, core::Duration::seconds_f(0.4));
  EXPECT_DOUBLE_EQ(plan.events[3].value, 0.2);
  EXPECT_EQ(plan.events[4].kind, FaultKind::kLossRamp);
  EXPECT_EQ(plan.events[4].count, 5);
  EXPECT_EQ(plan.events[5].kind, FaultKind::kCorrupt);
  ASSERT_EQ(plan.events[6].as_set.size(), 4u);
  EXPECT_EQ(plan.events[6].as_set[0], core::AsNumber{7});
  EXPECT_EQ(plan.events[7].kind, FaultKind::kPartitionHeal);
  EXPECT_EQ(plan.events[8].kind, FaultKind::kControllerCrash);
  EXPECT_EQ(plan.events[11].kind, FaultKind::kSpeakerRestart);
}

TEST(FaultPlanParse, ControllerReplicaAndReplicationGrammar) {
  const auto plan = FaultPlan::parse(
      "at 1 controller-crash 2\n"
      "at 2 controller-restart 2\n"
      "at 3 controller-crash\n"
      "at 4 repl-partition 1\n"
      "at 5 repl-heal 1\n");
  ASSERT_EQ(plan.events.size(), 5u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kControllerCrash);
  EXPECT_EQ(plan.events[0].count, 2);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kControllerRestart);
  EXPECT_EQ(plan.events[1].count, 2);
  // No id = the whole controller (every replica), the pre-HA meaning.
  EXPECT_EQ(plan.events[2].count, -1);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kReplPartition);
  EXPECT_EQ(plan.events[3].count, 1);
  EXPECT_EQ(plan.events[4].kind, FaultKind::kReplHeal);
  EXPECT_EQ(plan.events[4].count, 1);

  const auto expect_parse_error = [](const char* text, const char* needle) {
    try {
      FaultPlan::parse(text);
      FAIL() << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
          << text << " -> " << e.what();
    }
  };
  expect_parse_error("at 1 controller-crash x",
                     "bad replica id 'x' (want 0..15)");
  expect_parse_error("at 1 controller-crash -1",
                     "bad replica id '-1' (want 0..15)");
  expect_parse_error("at 1 controller-crash 1 2",
                     "'controller-crash' takes at most one replica id, got 2");
  expect_parse_error("at 1 repl-partition", "repl-partition");
  expect_parse_error("at 1 repl-heal 1 2", "repl-heal");
}

TEST(FaultInjector, ValidatesReplicaIdsAtArmTime) {
  // Single-controller cluster: replica ids beyond 0 and replication faults
  // have nothing to act on.
  Experiment exp{topology::clique(4), {core::AsNumber{4}}, fast_config()};
  const auto expect_arm_error = [&exp](const char* text, const char* needle) {
    try {
      exp.attach_monitor<FaultInjector>(FaultPlan::parse(text));
      FAIL() << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
          << text << " -> " << e.what();
    }
  };
  expect_arm_error("at 1 controller-crash 2",
                   "controller replica id 2 out of range (controller_replicas=1)");
  expect_arm_error("at 1 repl-partition 0",
                   "replication faults require controller_replicas >= 2");

  auto cfg = fast_config();
  cfg.controller_replicas = 2;
  Experiment ha{topology::clique(4), {core::AsNumber{4}}, cfg};
  EXPECT_THROW(ha.attach_monitor<FaultInjector>(
                   FaultPlan::parse("at 1 repl-partition 5")),
               std::invalid_argument);
  // In range: id 0 and 1 both arm fine.
  ha.attach_monitor<FaultInjector>(
      FaultPlan::parse("at 1 controller-crash 0\nat 3 controller-restart 0\n"
                       "at 5 repl-partition 1\nat 6 repl-heal 1"));
}

TEST(FaultInjector, ReplicaFaultPlanDrivesFailover) {
  auto cfg = fast_config(19);
  cfg.controller_replicas = 2;
  Experiment exp{topology::clique(5),
                 {core::AsNumber{4}, core::AsNumber{5}}, cfg};
  exp.announce_prefix(core::AsNumber{1}, kPfx);
  ASSERT_TRUE(exp.start());
  exp.attach_monitor<FaultInjector>(FaultPlan::parse(
      "at 0.5 controller-crash 0\n"
      "at 4 controller-restart 0\n"));
  exp.run_for(core::Duration::seconds(8));
  exp.wait_converged();
  auto* rs = exp.replica_set();
  ASSERT_NE(rs, nullptr);
  EXPECT_EQ(rs->counters().replica_crashes, 1u);
  EXPECT_EQ(rs->counters().replica_restarts, 1u);
  EXPECT_GE(rs->counters().takeovers, 1u);
  EXPECT_FALSE(rs->degraded());
  EXPECT_TRUE(exp.all_know_prefix(kPfx));
}

TEST(FaultPlanParse, RejectsMalformedInput) {
  EXPECT_THROW(FaultPlan::parse("at 1 melt-down 1 2"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("at 1 link-down 1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("at 1 link-down 1 2 3"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("at x link-down 1 2"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("at -1 link-down 1 2"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("at 1 flap 1 2 0 0.4"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("at 1 loss 1 2 oops"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("at 1 partition"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("at 1 heal now"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("launch 1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("at 1 link-down 0 2"), std::invalid_argument);
  // Errors carry the offending line number.
  try {
    FaultPlan::parse("seed 1\nat 1 nonsense");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos);
  }
}

TEST(FaultPlanParse, SeedIsAnExactUnsigned64BitInteger) {
  EXPECT_EQ(FaultPlan::parse("seed 0\n").seed, 0u);
  EXPECT_EQ(FaultPlan::parse("seed 9007199254740993\n").seed,
            9007199254740993u);
  EXPECT_EQ(FaultPlan::parse("seed 18446744073709551615\n").seed,
            18446744073709551615u);
  for (const std::string bad :
       {"-1", "1.9", "1e30", "nan", "18446744073709551616"}) {
    try {
      FaultPlan::parse("at 1 link-down 1 2\nseed " + bad + "\n");
      ADD_FAILURE() << "seed " << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string{e.what()},
                "line 2: bad seed '" + bad +
                    "' (want 0..18446744073709551615)");
    }
  }
}

TEST(FaultInjector, ValidatesAtArmTime) {
  Experiment exp{topology::clique(4), {core::AsNumber{4}}, fast_config()};
  const auto arm = [&](const char* text) {
    exp.attach_monitor<FaultInjector>(FaultPlan::parse(text));
  };
  EXPECT_THROW(arm("at 1 link-down 1 9"), std::invalid_argument);
  EXPECT_THROW(arm("at 1 loss 1 2 1.5"), std::invalid_argument);
  EXPECT_THROW(arm("at 1 partition 9"), std::invalid_argument);

  // Controller faults require an IDR-controlled cluster.
  Experiment legacy{topology::clique(4), {}, fast_config()};
  EXPECT_THROW(
      legacy.attach_monitor<FaultInjector>(
          FaultPlan::parse("at 1 controller-crash")),
      std::invalid_argument);
  EXPECT_THROW(
      legacy.attach_monitor<FaultInjector>(
          FaultPlan::parse("at 1 speaker-crash")),
      std::invalid_argument);
}

TEST(FaultInjector, ExpansionIsDeterministicPerPlanSeed) {
  const char* text =
      "seed 5\n"
      "at 1 flap 1 2 3 0.4\n"
      "at 4 loss-ramp 1 2 0.6 4 0.5\n"
      "at 7 corrupt 1 2 0.3 1\n";
  Experiment exp{topology::clique(4), {}, fast_config()};
  auto& inj = exp.attach_monitor<FaultInjector>(FaultPlan::parse(text));
  // 3 flap cycles = 6 actions, 4 ramp steps, corrupt set + clear.
  EXPECT_EQ(inj.planned(), 12u);
  EXPECT_EQ(inj.fired(), 0u);
  exp.run_for(core::Duration::seconds(10));
  EXPECT_EQ(inj.fired(), 12u);
  EXPECT_EQ(exp.telemetry().metrics().counter("faults.injected").value(), 12);
  EXPECT_GT(exp.telemetry().metrics().counter("faults.link_down").value(), 0);

  const auto snap = inj.snapshot();
  EXPECT_EQ(snap.find("planned")->as_int(), 12);
  EXPECT_EQ(snap.find("fired")->as_int(), 12);
  ASSERT_NE(snap.find("by_kind"), nullptr);
  ASSERT_EQ(snap.find("events")->size(), 3u);
}

TEST(CrashRecovery, ControllerCrashDegradesToDistributedBgp) {
  // The acceptance scenario. A never-crashed control run first:
  const auto run_control = [] {
    Experiment exp{topology::clique(8),
                   {core::AsNumber{5}, core::AsNumber{6}, core::AsNumber{7},
                    core::AsNumber{8}},
                   fast_config(17)};
    exp.announce_prefix(core::AsNumber{1}, kPfx);
    EXPECT_TRUE(exp.start());
    exp.announce_prefix(core::AsNumber{1}, kPfx2);
    exp.wait_converged();
    return rib_snapshot(exp);
  };
  const std::string control = run_control();
  ASSERT_FALSE(control.empty());

  Experiment exp{topology::clique(8),
                 {core::AsNumber{5}, core::AsNumber{6}, core::AsNumber{7},
                  core::AsNumber{8}},
                 fast_config(17)};
  exp.announce_prefix(core::AsNumber{1}, kPfx);
  ASSERT_TRUE(exp.start());

  // Crash mid-convergence: the second announcement's wave is still running
  // (MRAI 300 ms) when the controller dies.
  exp.announce_prefix(core::AsNumber{1}, kPfx2);
  exp.run_for(core::Duration::millis(150));
  exp.crash_controller();
  EXPECT_TRUE(exp.controller_crashed());
  ASSERT_NE(exp.fallback(), nullptr);
  EXPECT_TRUE(exp.fallback()->active());
  // Switches observed the control-link loss and went standalone.
  EXPECT_TRUE(exp.member_switch(core::AsNumber{5}).standalone());

  // Degraded mode: the cluster reconverges via distributed BGP — every
  // legacy Loc-RIB and every member flow table knows both prefixes.
  exp.wait_converged();
  EXPECT_TRUE(exp.all_know_prefix(kPfx));
  EXPECT_TRUE(exp.all_know_prefix(kPfx2));
  EXPECT_GT(exp.fallback()->counters().flow_adds, 0u);

  // Restart: fallback stands down, the controller resyncs from the
  // speaker's Adj-RIBs-In, and the Loc-RIBs match the never-crashed run.
  exp.restart_controller();
  EXPECT_FALSE(exp.controller_crashed());
  EXPECT_FALSE(exp.fallback()->active());
  exp.wait_converged();
  EXPECT_FALSE(exp.member_switch(core::AsNumber{5}).standalone());
  EXPECT_TRUE(exp.all_know_prefix(kPfx));
  EXPECT_TRUE(exp.all_know_prefix(kPfx2));
  EXPECT_EQ(rib_snapshot(exp), control);
}

TEST(CrashRecovery, ThreeCrashRestartCyclesResyncByteForByte) {
  // Regression: repeated crash/restart cycles must leave zero residue. The
  // second cycle flaps a cluster link *while degraded*, so the restarted
  // controller's view of switch port state depends on the switches re-
  // announcing their ports on resync — exactly the path that used to rot.
  const auto make = [](std::uint64_t seed) {
    auto exp = std::make_unique<Experiment>(
        topology::clique(6),
        std::set<core::AsNumber>{core::AsNumber{4}, core::AsNumber{5},
                                 core::AsNumber{6}},
        fast_config(seed));
    exp->announce_prefix(core::AsNumber{1}, kPfx);
    exp->announce_prefix(core::AsNumber{2}, kPfx2);
    return exp;
  };

  auto control = make(29);
  ASSERT_TRUE(control->start());
  control->wait_converged();
  const std::string control_ribs = rib_snapshot(*control);
  const std::string control_flows = flow_snapshot(*control);
  ASSERT_FALSE(control_ribs.empty());
  ASSERT_NE(control_flows.find("dst="), std::string::npos);

  auto exp = make(29);
  ASSERT_TRUE(exp->start());
  exp->wait_converged();
  for (int round = 0; round < 3; ++round) {
    exp->crash_controller();
    exp->wait_converged();
    if (round == 1) {
      // Topology churn the dead controller cannot see; restored before the
      // restart so the final topology matches the never-crashed control.
      exp->fail_link(core::AsNumber{4}, core::AsNumber{5});
      exp->wait_converged();
      exp->restore_link(core::AsNumber{4}, core::AsNumber{5});
      exp->wait_converged();
    }
    exp->restart_controller();
    exp->wait_converged();
    EXPECT_FALSE(exp->fallback()->active()) << "round " << round;
  }
  EXPECT_EQ(rib_snapshot(*exp), control_ribs);
  EXPECT_EQ(flow_snapshot(*exp), control_flows);
}

TEST(CrashRecovery, ControllerCrashRequiresIdrStyle) {
  auto cfg = fast_config();
  cfg.controller_style = ControllerStyle::kRouteFlowMirror;
  Experiment exp{topology::clique(4), {core::AsNumber{4}}, cfg};
  EXPECT_THROW(exp.crash_controller(), std::logic_error);
  Experiment legacy{topology::clique(4), {}, fast_config()};
  EXPECT_THROW(legacy.crash_controller(), std::logic_error);
  EXPECT_THROW(legacy.crash_speaker(), std::logic_error);
}

TEST(CrashRecovery, SpeakerCrashDropsSessionsSilentlyAndRecovers) {
  Experiment exp{topology::clique(5),
                 {core::AsNumber{4}, core::AsNumber{5}}, fast_config(23)};
  exp.announce_prefix(core::AsNumber{1}, kPfx);
  ASSERT_TRUE(exp.start());
  ASSERT_TRUE(exp.all_know_prefix(kPfx));

  exp.crash_speaker();
  EXPECT_TRUE(exp.speaker_crashed());
  // Silent death: peers only notice once their hold timers (6 s) expire.
  exp.run_for(core::Duration::seconds(8));
  bool any_established = false;
  for (const auto* p : exp.cluster_speaker()->peerings()) {
    any_established =
        any_established || exp.cluster_speaker()->peering_established(p->id);
  }
  EXPECT_FALSE(any_established);

  exp.restart_speaker();
  EXPECT_FALSE(exp.speaker_crashed());
  exp.run_for(core::Duration::seconds(10));
  exp.wait_converged();
  // Peers re-sent their tables; cluster state is whole again.
  EXPECT_TRUE(exp.all_know_prefix(kPfx));
}

TEST(FaultInjector, CorruptionWindowNotifiesAndRecovers) {
  // Wire corruption across a session's link: decode failures must answer
  // with NOTIFICATION + auto-restart (never a crash), and the session heals
  // once the window closes.
  Experiment exp{topology::clique(4), {}, fast_config(31)};
  exp.announce_prefix(core::AsNumber{1}, kPfx);
  ASSERT_TRUE(exp.start());
  exp.attach_monitor<FaultInjector>(
      FaultPlan::parse("at 0 corrupt 1 2 0.8 4"));
  // Route churn keeps UPDATEs flowing through the corrupted link.
  for (int i = 0; i < 4; ++i) {
    exp.announce_prefix(core::AsNumber{2}, kPfx2);
    exp.run_for(core::Duration::seconds(1));
    exp.withdraw_prefix(core::AsNumber{2}, kPfx2);
    exp.run_for(core::Duration::seconds(1));
  }
  EXPECT_GT(exp.network().stats().corrupted, 0u);
  std::uint64_t decode_errors = 0;
  for (const auto as : exp.spec().ases) {
    for (const auto* s : exp.router(as).sessions()) {
      decode_errors += s->counters().decode_errors;
    }
  }
  EXPECT_GT(decode_errors, 0u);

  exp.wait_converged();
  EXPECT_TRUE(exp.all_know_prefix(kPfx));
  // Every session re-established after the window.
  for (const auto as : exp.spec().ases) {
    for (const auto* s : exp.router(as).sessions()) {
      EXPECT_TRUE(s->established()) << as.to_string();
    }
  }
}

TEST(FaultInjector, PartitionIsolatesAndHealRestores) {
  Experiment exp{topology::clique(6), {}, fast_config(41)};
  exp.announce_prefix(core::AsNumber{1}, kPfx);
  ASSERT_TRUE(exp.start());
  exp.attach_monitor<FaultInjector>(
      FaultPlan::parse("at 0 partition 5 6\nat 10 heal"));
  exp.run_for(core::Duration::seconds(5));
  // The cut-off island lost the prefix (origin is outside) but keeps its
  // internal link 5<->6.
  EXPECT_EQ(exp.router(core::AsNumber{5}).loc_rib().find(kPfx), nullptr);
  EXPECT_NE(exp.router(core::AsNumber{1}).loc_rib().find(kPfx), nullptr);
  EXPECT_TRUE(exp.network().link_is_up(exp.link_between(
      core::AsNumber{5}, core::AsNumber{6})));

  exp.run_for(core::Duration::seconds(6));  // heal fires at t=10
  exp.wait_converged();
  EXPECT_TRUE(exp.all_know_prefix(kPfx));
}

TEST(FaultDsl, ScenarioCommandsDriveFaults) {
  ScenarioRunner runner;
  const auto result = runner.run(
      "seed 7\n"
      "mrai 0.3\n"
      "recompute-delay 0.1\n"
      "topology clique 6\n"
      "sdn 5 6\n"
      "announce 1 10.0.0.0/16\n"
      "fault-seed 3\n"
      "fault 0.5 flap 1 2 2 0.4\n"
      "start\n"
      "run 4\n"
      "crash controller\n"
      "run 2\n"
      "expect-route 2 10.0.0.0/16\n"
      "restart controller\n"
      "wait-converged\n"
      "expect-route 2 10.0.0.0/16\n"
      "expect-route 6 10.0.0.0/16\n");
  EXPECT_TRUE(result.ok) << result.error;
  ASSERT_NE(runner.experiment(), nullptr);
  EXPECT_GT(runner.experiment()
                ->telemetry()
                .metrics()
                .counter("faults.injected")
                .value(),
            0);
}

struct ChaosCapture {
  std::string metrics;
  std::string ribs;
  std::string monitors;
};

/// One injector-driven chaos trial: flap + controller crash/restart.
ChaosCapture run_chaos_trial(std::uint64_t seed) {
  Experiment exp{topology::clique(6),
                 {core::AsNumber{5}, core::AsNumber{6}}, fast_config(seed)};
  exp.announce_prefix(core::AsNumber{1}, kPfx);
  EXPECT_TRUE(exp.start());
  exp.attach_monitor<FaultInjector>(FaultPlan::parse(
      "seed 9\n"
      "at 0.2 flap 1 2 2 0.5\n"
      "at 1 controller-crash\n"
      "at 4 controller-restart\n"));
  exp.run_for(core::Duration::seconds(8));
  exp.wait_converged();
  ChaosCapture cap;
  cap.metrics = exp.telemetry().metrics().snapshot().dump();
  cap.ribs = rib_snapshot(exp);
  cap.monitors = exp.monitors_snapshot().dump();
  return cap;
}

TEST(FaultDeterminism, ChaosTrialsByteIdenticalAcrossJobCounts) {
  // The tentpole invariant: a fault-plan trial is byte-identical whether
  // trials run serially or on 4 workers.
  const auto run_with_jobs = [](std::size_t jobs) {
    std::vector<ChaosCapture> caps(4);
    parallel_for_index(4, jobs, [&](std::size_t i) {
      caps[i] = run_chaos_trial(100 + i);
    });
    return caps;
  };
  const auto serial = run_with_jobs(1);
  const auto parallel = run_with_jobs(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].metrics, parallel[i].metrics) << "seed " << 100 + i;
    EXPECT_EQ(serial[i].ribs, parallel[i].ribs) << "seed " << 100 + i;
    EXPECT_EQ(serial[i].monitors, parallel[i].monitors) << "seed " << 100 + i;
  }
}

}  // namespace
}  // namespace bgpsdn::framework
