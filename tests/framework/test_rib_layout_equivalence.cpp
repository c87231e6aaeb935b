// Golden captures of everything the RIB layout can influence. The fixtures in
// tests/framework/golden/ were recorded from the node-based reference RIB
// (std::map / std::unordered_map containers) before it was retired from src/;
// the slab RIB must reproduce them byte for byte: legacy Loc-RIBs with their
// tiebreak identity, member flow tables, the virtual clock after every
// convergence wait, the full telemetry snapshot, and the deterministic
// memory model. Memory lines were recorded from the slab layout itself (the
// reference layout charged its own node model); they leave out the
// attribute pool (mem.attr_pool). The captures must also not depend on the
// worker-thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "framework/experiment.hpp"
#include "framework/golden.hpp"
#include "framework/trial.hpp"
#include "topology/generators.hpp"

namespace bgpsdn::framework {
namespace {

using core::AsNumber;

struct LayoutCapture {
  std::vector<std::int64_t> checkpoints;  // loop clock (ns) per wait
  std::string ribs;
  std::string flows;
  std::string metrics;
  std::string memory;

  std::string render() const {
    std::string out = "== checkpoints_ns\n";
    for (const auto ns : checkpoints) out += std::to_string(ns) + "\n";
    out += "== ribs\n" + ribs + "== flows\n" + flows + "== metrics\n" +
           metrics + "== memory\n" + memory;
    return out;
  }
};

ExperimentConfig layout_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.timers.mrai = core::Duration::millis(500);
  return cfg;
}

std::string memory_lines(const core::MemStats& mem) {
  return "rib_in " + std::to_string(mem.rib_in) + "\nloc_rib " +
         std::to_string(mem.loc_rib) + "\nrib_out " +
         std::to_string(mem.rib_out) + "\nattr_registry " +
         std::to_string(mem.attr_registry) + "\nflow_tables " +
         std::to_string(mem.flow_tables) + "\nspeaker_ribs " +
         std::to_string(mem.speaker_ribs) + "\n";
}

void capture_state(Experiment& exp, LayoutCapture& cap) {
  // Legacy Loc-RIBs, sorted AS-then-prefix so the dump is canonical. The
  // dump includes the tiebreak identity fields, not just the attributes:
  // the slab layout stores them out-of-line and must reproduce them.
  std::map<std::string, std::string> ribs;
  for (const auto as : exp.spec().ases) {
    if (exp.is_member(as)) continue;
    const auto& rib = exp.router(as).loc_rib();
    for (const auto& prefix : rib.prefixes()) {
      const auto* route = rib.find(prefix);
      ribs[as.to_string() + " " + prefix.to_string()] =
          route->attributes->to_string() + " from=" +
          std::to_string(route->learned_from.value()) + " id=" +
          std::to_string(route->peer_bgp_id.bits()) + " addr=" +
          std::to_string(route->peer_address.bits()) + " at=" +
          std::to_string(route->installed_at.nanos_since_origin());
    }
  }
  for (const auto& [key, value] : ribs) {
    cap.ribs += key + " -> " + value + "\n";
  }
  // Member flow tables, in table order (priority ties break on insertion
  // order, so the order itself is part of the contract).
  for (const auto as : exp.spec().ases) {
    if (!exp.is_member(as)) continue;
    cap.flows += "== " + as.to_string() + "\n";
    for (const auto& e : exp.member_switch(as).table().entries()) {
      cap.flows += e.to_string() + "\n";
    }
  }
  golden::flatten(exp.telemetry().metrics().snapshot(), "", cap.metrics);
  cap.memory = memory_lines(exp.memory_stats());
}

// Seeded churn on an 8-AS ring with a 4-member cluster chain: route churn,
// cluster-link churn and legacy-link churn, checkpointing the virtual clock
// after every convergence wait.
LayoutCapture run_ring_churn(std::uint64_t seed) {
  const auto spec = topology::ring(8);
  Experiment exp{spec,
                 {AsNumber{3}, AsNumber{4}, AsNumber{5}, AsNumber{6}},
                 layout_config(seed)};
  const auto pfx = *net::Prefix::parse("10.99.0.0/16");
  exp.announce_prefix(AsNumber{1}, pfx);
  exp.announce_prefix(AsNumber{2}, *net::Prefix::parse("10.98.0.0/16"));

  LayoutCapture cap;
  const auto checkpoint = [&] {
    exp.wait_converged();
    cap.checkpoints.push_back(exp.loop().now().nanos_since_origin());
  };

  EXPECT_TRUE(exp.start());
  checkpoint();
  exp.withdraw_prefix(AsNumber{1}, pfx);
  checkpoint();
  exp.announce_prefix(AsNumber{1}, pfx);
  checkpoint();
  exp.fail_link(AsNumber{4}, AsNumber{5});
  checkpoint();
  exp.restore_link(AsNumber{4}, AsNumber{5});
  checkpoint();
  exp.fail_link(AsNumber{1}, AsNumber{2});
  checkpoint();
  exp.restore_link(AsNumber{1}, AsNumber{2});
  checkpoint();

  capture_state(exp, cap);
  return cap;
}

// Clique churn: dense peering means every router holds a full candidate set
// per prefix, exercising multi-candidate spans and implicit withdraws.
LayoutCapture run_clique_churn(std::uint64_t seed) {
  const auto spec = topology::clique(6);
  Experiment exp{spec, {AsNumber{5}, AsNumber{6}}, layout_config(seed)};
  exp.announce_prefix(AsNumber{1}, *net::Prefix::parse("10.91.0.0/16"));
  exp.announce_prefix(AsNumber{2}, *net::Prefix::parse("10.92.0.0/16"));
  exp.announce_prefix(AsNumber{3}, *net::Prefix::parse("10.93.0.0/16"));

  LayoutCapture cap;
  const auto checkpoint = [&] {
    exp.wait_converged();
    cap.checkpoints.push_back(exp.loop().now().nanos_since_origin());
  };

  EXPECT_TRUE(exp.start());
  checkpoint();
  for (int i = 0; i < 3; ++i) {
    exp.fail_link(AsNumber{1}, AsNumber{2});
    checkpoint();
    exp.restore_link(AsNumber{1}, AsNumber{2});
    checkpoint();
  }
  exp.withdraw_prefix(AsNumber{2}, *net::Prefix::parse("10.92.0.0/16"));
  checkpoint();

  capture_state(exp, cap);
  return cap;
}

// Policy-routed internet-like churn (pure legacy): valley-free export gives
// asymmetric candidate sets, and the session-reset path (link failure drops
// the session entirely) exercises erase_session on populated slabs.
LayoutCapture run_internet_churn(std::uint64_t seed) {
  core::Rng topo_rng{seed};
  topology::InternetLikeParams params;
  params.tier1 = 3;
  params.transit = 6;
  params.stubs = 10;
  const auto spec = topology::internet_like(params, topo_rng);

  Experiment exp{spec, {}, layout_config(seed)};
  const auto origin = spec.ases.back();  // a stub
  const auto pfx = *net::Prefix::parse("10.50.0.0/16");
  exp.announce_prefix(origin, pfx);
  exp.announce_prefix(origin, *net::Prefix::parse("10.51.0.0/16"));
  exp.announce_prefix(spec.ases.front(), *net::Prefix::parse("10.52.0.0/16"));

  LayoutCapture cap;
  const auto checkpoint = [&] {
    exp.wait_converged();
    cap.checkpoints.push_back(exp.loop().now().nanos_since_origin());
  };

  EXPECT_TRUE(exp.start());
  checkpoint();
  exp.withdraw_prefix(origin, pfx);
  checkpoint();
  exp.announce_prefix(origin, pfx);
  checkpoint();
  // Fail one of the origin stub's provider links: its session resets and
  // every prefix learned over it is flushed.
  const auto& provider_link = [&]() -> const topology::LinkSpec& {
    for (const auto& l : spec.links) {
      if (l.a == origin || l.b == origin) return l;
    }
    throw std::logic_error("origin has no links");
  }();
  exp.fail_link(provider_link.a, provider_link.b);
  checkpoint();
  exp.restore_link(provider_link.a, provider_link.b);
  checkpoint();

  capture_state(exp, cap);
  return cap;
}

void expect_golden(const LayoutCapture& cap, const std::string& name) {
  // Guard against vacuous equality: the scenario must actually produce
  // routes (and flow rules, when a cluster is present).
  EXPECT_FALSE(cap.ribs.empty()) << name;
  golden::expect_equal(cap.render(), name);
}

TEST(RibLayoutEquivalence, RingChurn) {
  expect_golden(run_ring_churn(21), "ring_churn_21.txt");
  expect_golden(run_ring_churn(22), "ring_churn_22.txt");
}

TEST(RibLayoutEquivalence, CliqueChurn) {
  expect_golden(run_clique_churn(23), "clique_churn_23.txt");
}

TEST(RibLayoutEquivalence, InternetLikeChurn) {
  expect_golden(run_internet_churn(24), "internet_churn_24.txt");
}

TEST(RibLayoutEquivalence, ByteIdenticalAcrossJobCounts) {
  // Two seeds, each run twice, raced across worker threads: the captures
  // must not depend on the job count, and the two runs of one seed must
  // agree. Each experiment's attribute store (intern pool and handle
  // registry) is the structure under suspicion here.
  const auto run_with_jobs = [](std::size_t jobs) {
    std::vector<std::string> caps(4);
    parallel_for_index(4, jobs, [&](std::size_t i) {
      caps[i] = run_ring_churn(41 + i / 2).render();
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
  EXPECT_NE(serial[0], serial[2]);
}

TEST(RibLayoutEquivalence, CompactMemoryStaysBelowReference) {
  // The memory model of one converged clique, pinned exactly. The node-based
  // reference RIB charged 52,672 bytes of RIB storage for this trial when
  // it was retired; the slab layout must stay below that figure.
  constexpr std::uint64_t kReferenceRibTotal = 52672;
  const auto spec = topology::clique(6);
  Experiment exp{spec, {}, layout_config(31)};
  for (std::uint32_t i = 0; i < 8; ++i) {
    exp.announce_prefix(
        AsNumber{1 + i % 4},
        net::Prefix{net::Ipv4Addr{10, 60, static_cast<std::uint8_t>(i), 0},
                    24});
  }
  ASSERT_TRUE(exp.start());
  exp.wait_converged();
  const auto mem = exp.memory_stats();
  golden::expect_equal(memory_lines(mem), "clique_memory_31.txt");
  EXPECT_LT(mem.rib_total(), kReferenceRibTotal);
}

}  // namespace
}  // namespace bgpsdn::framework
