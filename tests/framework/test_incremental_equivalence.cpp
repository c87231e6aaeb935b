// The recomputation engine's behaviour, pinned against golden captures
// recorded from the retired from-scratch engine (`spt reference`) on the
// same seeded scenarios: legacy Loc-RIBs, member flow tables, convergence
// instants, and the telemetry snapshot minus the counters that measure the
// engine itself. The captures must not depend on the worker-thread count.
// A final test pins the point of the delta engine: it must do far less
// recomputation work under topology churn than the retired engine did.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "framework/experiment.hpp"
#include "framework/golden.hpp"
#include "framework/trial.hpp"
#include "telemetry/json.hpp"
#include "topology/generators.hpp"

namespace bgpsdn::framework {
namespace {

using core::AsNumber;

// Counters/histograms that *measure the recomputation engine*: the retired
// engine recorded different values for them by design. Everything else
// must match its capture.
bool engine_internal(const std::string& name) {
  return name == "ctrl.idr.prefix_recomputes" ||
         name == "ctrl.idr.prefixes_dirty" ||
         name == "ctrl.idr.spt_vertices_replayed" ||
         name == "ctrl.idr.batch_prefixes";
}

std::string filtered_metrics(const telemetry::Json& snapshot) {
  std::string out;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    if (const auto* s = snapshot.find(section)) {
      for (const auto& [name, value] : s->entries()) {
        if (!engine_internal(name)) {
          golden::flatten(value, std::string{section} + "." + name, out);
        }
      }
    }
  }
  return out;
}

struct EquivCapture {
  std::vector<std::int64_t> checkpoints;  // loop clock (ns) per wait
  std::string ribs;
  std::string flows;
  std::string metrics;

  std::string render() const {
    std::string out = "== checkpoints_ns\n";
    for (const auto ns : checkpoints) out += std::to_string(ns) + "\n";
    return out + "== ribs\n" + ribs + "== flows\n" + flows + "== metrics\n" +
           metrics;
  }
};

ExperimentConfig scenario_config(std::uint64_t seed, bool bridging) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.subcluster_bridging = bridging;
  cfg.timers.mrai = core::Duration::millis(500);
  cfg.recompute_delay = core::Duration::millis(200);
  return cfg;
}

void capture_state(Experiment& exp, EquivCapture& cap) {
  // Legacy Loc-RIBs, sorted AS-then-prefix so the dump is canonical.
  std::map<std::string, std::string> ribs;
  for (const auto as : exp.spec().ases) {
    if (exp.is_member(as)) continue;
    const auto& rib = exp.router(as).loc_rib();
    for (const auto& prefix : rib.prefixes()) {
      const auto* route = rib.find(prefix);
      ribs[as.to_string() + " " + prefix.to_string()] =
          route->attributes->to_string();
    }
  }
  for (const auto& [key, value] : ribs) {
    cap.ribs += key + " -> " + value + "\n";
  }
  // Member flow tables, in table order (which is itself part of the
  // contract: priority ties break on insertion order).
  for (const auto as : exp.spec().ases) {
    if (!exp.is_member(as)) continue;
    cap.flows += "== " + as.to_string() + "\n";
    for (const auto& e : exp.member_switch(as).table().entries()) {
      cap.flows += e.to_string() + "\n";
    }
  }
}

// One seeded churn scenario on an 8-AS ring with a 4-member cluster chain
// (3-4-5-6). The ring makes intra-cluster distance matter, and failing the
// middle cluster link splits the members into two sub-clusters, exercising
// the bridging fallback (or the pruning path with bridging off).
EquivCapture run_ring_churn(std::uint64_t seed, bool bridging) {
  const auto spec = topology::ring(8);
  Experiment exp{spec,
                 {AsNumber{3}, AsNumber{4}, AsNumber{5}, AsNumber{6}},
                 scenario_config(seed, bridging)};
  const auto pfx = *net::Prefix::parse("10.99.0.0/16");
  exp.announce_prefix(AsNumber{1}, pfx);

  EquivCapture cap;
  const auto checkpoint = [&] {
    exp.wait_converged();
    cap.checkpoints.push_back(exp.loop().now().nanos_since_origin());
  };

  EXPECT_TRUE(exp.start());
  checkpoint();

  // Route churn with no topology change.
  exp.withdraw_prefix(AsNumber{1}, pfx);
  checkpoint();
  exp.announce_prefix(AsNumber{1}, pfx);
  checkpoint();

  // Cluster-link churn: the edge-delta changelog path.
  exp.fail_link(AsNumber{4}, AsNumber{5});  // splits {3,4} | {5,6}
  checkpoint();
  exp.restore_link(AsNumber{4}, AsNumber{5});
  checkpoint();
  exp.fail_link(AsNumber{5}, AsNumber{6});
  checkpoint();
  exp.restore_link(AsNumber{5}, AsNumber{6});
  checkpoint();

  // Legacy-link churn: route updates through the speaker.
  exp.fail_link(AsNumber{1}, AsNumber{2});
  checkpoint();
  exp.restore_link(AsNumber{1}, AsNumber{2});
  checkpoint();

  capture_state(exp, cap);
  cap.metrics = filtered_metrics(exp.telemetry().metrics().snapshot());
  return cap;
}

void expect_golden(const EquivCapture& cap, const std::string& name) {
  // Guard against vacuous equality: the scenario must actually produce
  // routes and flow rules.
  EXPECT_FALSE(cap.ribs.empty()) << name;
  EXPECT_NE(cap.flows.find("dst="), std::string::npos) << name;
  golden::expect_equal(cap.render(), name);
}

TEST(IncrementalEquivalence, RingChurnWithBridging) {
  expect_golden(run_ring_churn(11, true), "spt_ring_churn_11.txt");
  expect_golden(run_ring_churn(12, true), "spt_ring_churn_12.txt");
}

TEST(IncrementalEquivalence, RingChurnWithoutBridging) {
  expect_golden(run_ring_churn(13, false), "spt_ring_churn_13_nobridge.txt");
}

TEST(IncrementalEquivalence, ByteIdenticalAcrossJobCounts) {
  // Two seeds, each run twice, raced across worker threads: the captures
  // must not depend on the job count, and the two runs of one seed must
  // agree (the determinism invariant extended to the delta engine).
  const auto run_with_jobs = [](std::size_t jobs) {
    std::vector<std::string> caps(4);
    parallel_for_index(4, jobs, [&](std::size_t i) {
      caps[i] = run_ring_churn(31 + i / 2, true).render();
    });
    return caps;
  };
  const auto serial = run_with_jobs(1);
  const auto threaded = run_with_jobs(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << i;
  }
  EXPECT_EQ(serial[0], serial[1]);
  EXPECT_EQ(serial[2], serial[3]);
}

TEST(IncrementalEquivalence, ChurnRecomputeCostReduction) {
  // The cost criterion: under a cluster-link flap train, the engine's settle
  // work (spt_vertices_replayed) must be at least 5x below what the retired
  // from-scratch engine paid on the same train: one settle per tree vertex
  // per recomputed prefix, 48 prefix recomputes x 7 vertices (6 member
  // switches + the destination node) when it was last run. Measured over
  // the churn phase only; the initial tree builds are not counted.
  constexpr std::uint64_t kReferenceSettles = 48 * 7;
  const auto spec = topology::clique(8);
  std::set<AsNumber> members;
  for (std::uint32_t a = 3; a <= 8; ++a) members.insert(AsNumber{a});
  Experiment exp{spec, members, scenario_config(5, true)};
  exp.announce_prefix(AsNumber{1}, *net::Prefix::parse("10.91.0.0/16"));
  exp.announce_prefix(AsNumber{1}, *net::Prefix::parse("10.92.0.0/16"));
  exp.announce_prefix(AsNumber{2}, *net::Prefix::parse("10.93.0.0/16"));
  exp.announce_prefix(AsNumber{2}, *net::Prefix::parse("10.94.0.0/16"));
  ASSERT_TRUE(exp.start());
  exp.wait_converged();
  const auto& m = exp.telemetry().metrics();
  const auto replayed = [&m]() -> std::uint64_t {
    const auto* c = m.find_counter("ctrl.idr.spt_vertices_replayed");
    return c == nullptr ? 0 : static_cast<std::uint64_t>(c->value());
  };
  const std::uint64_t replayed0 = replayed();
  for (int i = 0; i < 6; ++i) {
    exp.fail_link(AsNumber{3}, AsNumber{4});
    exp.wait_converged();
    exp.restore_link(AsNumber{3}, AsNumber{4});
    exp.wait_converged();
  }
  const std::uint64_t churn_replayed = replayed() - replayed0;
  EXPECT_LE(churn_replayed * 5, kReferenceSettles)
      << "replayed " << churn_replayed << " vs retired-engine settles "
      << kReferenceSettles;
}

}  // namespace
}  // namespace bgpsdn::framework
