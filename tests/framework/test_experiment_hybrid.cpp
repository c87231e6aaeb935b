// End-to-end tests of the hybrid BGP/SDN experiment builder: session
// bring-up across relay links, controller route computation, flow
// programming, legacy announcements with cluster-transparent AS paths, and
// data-plane connectivity through the cluster.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "framework/connectivity.hpp"
#include "framework/experiment.hpp"
#include "topology/generators.hpp"

namespace bgpsdn {
namespace {

using framework::Experiment;
using framework::ExperimentConfig;

ExperimentConfig quick_config(std::uint64_t seed = 7) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.timers.mrai = core::Duration::millis(500);
  cfg.recompute_delay = core::Duration::millis(200);
  return cfg;
}

TEST(HybridExperiment, PureBgpCliqueConverges) {
  const auto spec = topology::clique(4);
  Experiment exp{spec, {}, quick_config()};
  exp.announce_prefix(core::AsNumber{1}, *net::Prefix::parse("10.0.0.0/16"));
  ASSERT_TRUE(exp.start());
  EXPECT_TRUE(exp.all_know_prefix(*net::Prefix::parse("10.0.0.0/16")));
}

TEST(HybridExperiment, ClusterSessionsEstablish) {
  const auto spec = topology::clique(4);
  Experiment exp{spec, {core::AsNumber{3}, core::AsNumber{4}}, quick_config()};
  ASSERT_TRUE(exp.start());
  // 2 members x 2 legacy peers = 4 relayed peerings.
  ASSERT_NE(exp.cluster_speaker(), nullptr);
  EXPECT_EQ(exp.cluster_speaker()->peerings().size(), 4u);
  for (const auto* p : exp.cluster_speaker()->peerings()) {
    EXPECT_TRUE(exp.cluster_speaker()->peering_established(p->id))
        << "peering " << p->id;
  }
  // Both switches connected to the controller.
  EXPECT_EQ(exp.idr_controller()->switches().size(), 2u);
}

TEST(HybridExperiment, LegacyPrefixReachesClusterAndBeyond) {
  const auto spec = topology::clique(4);
  const core::AsNumber as1{1}, as2{2}, as3{3}, as4{4};
  Experiment exp{spec, {as3, as4}, quick_config()};
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(as1, pfx);
  ASSERT_TRUE(exp.start());

  // Legacy AS2 sees it via plain BGP.
  ASSERT_NE(exp.router(as2).loc_rib().find(pfx), nullptr);
  // The controller learned it on its border peerings and programmed flows.
  const auto* decision = exp.idr_controller()->decision_for(pfx);
  ASSERT_NE(decision, nullptr);
  EXPECT_TRUE(decision->reachable(exp.member_switch(as3).dpid()));
  EXPECT_TRUE(decision->reachable(exp.member_switch(as4).dpid()));
  EXPECT_GT(exp.member_switch(as3).table().size(), 2u);  // relay rules + data
}

TEST(HybridExperiment, ClusterOriginAnnouncedToLegacyTransparently) {
  const auto spec = topology::clique(4);
  const core::AsNumber as1{1}, as3{3}, as4{4};
  Experiment exp{spec, {as3, as4}, quick_config()};
  const auto pfx = *net::Prefix::parse("10.7.0.0/16");
  exp.announce_prefix(as3, pfx);  // SDN switch originates
  ASSERT_TRUE(exp.start());

  // Legacy AS1 must have a BGP route whose path enters the cluster at a
  // member AS.
  const bgp::Route* at1 = exp.router(as1).loc_rib().find(pfx);
  ASSERT_NE(at1, nullptr);
  const auto first = at1->attributes->as_path.first();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(*first == as3 || *first == as4);
  // Direct peering with AS3 should give the 1-hop path [3].
  EXPECT_EQ(at1->attributes->as_path.to_string(), "3");
}

TEST(HybridExperiment, DataPlaneEndToEndThroughCluster) {
  const auto spec = topology::clique(4);
  const core::AsNumber as1{1}, as3{3}, as4{4};
  Experiment exp{spec, {as3, as4}, quick_config()};
  auto& h1 = exp.add_host(as1);
  auto& h3 = exp.add_host(as3);
  ASSERT_TRUE(exp.start());

  // Control plane settled; trace both directions.
  const auto fwd = exp.trace_route(as1, h3.address());
  ASSERT_FALSE(fwd.empty());
  EXPECT_EQ(fwd.front(), as1);
  EXPECT_EQ(fwd.back(), as3);
  const auto rev = exp.trace_route(as3, h1.address());
  ASSERT_FALSE(rev.empty());

  // Live probes, via the monitor attachment API.
  auto& mon = exp.attach_monitor<framework::ConnectivityMonitor>(
      h1, h3, core::Duration::millis(100));
  mon.start();
  exp.run_for(core::Duration::seconds(2));
  mon.stop();
  exp.run_for(core::Duration::seconds(1));
  const auto rep = mon.report();
  EXPECT_GT(rep.sent, 15u);
  EXPECT_DOUBLE_EQ(rep.delivery_ratio, 1.0);
}

TEST(HybridExperiment, WithdrawalClearsHybridNetwork) {
  const auto spec = topology::clique(5);
  const core::AsNumber as1{1};
  Experiment exp{spec, {core::AsNumber{4}, core::AsNumber{5}}, quick_config()};
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(as1, pfx);
  ASSERT_TRUE(exp.start());
  ASSERT_TRUE(exp.all_know_prefix(pfx));

  exp.withdraw_prefix(as1, pfx);
  exp.wait_converged();
  EXPECT_TRUE(exp.all_know_prefix(pfx, /*expect_present=*/false));
}

TEST(HybridExperiment, MemberOriginatedPrefixIsKnownEverywhere) {
  // AS3 originates without an attached host, so its own switch delivers
  // the prefix through the compiler's local-origin rule (a drop at data
  // priority): that is knowing the prefix, not a missing route.
  const auto spec = topology::clique(4);
  const core::AsNumber as3{3}, as4{4};
  Experiment exp{spec, {as3, as4}, quick_config()};
  const auto pfx = *net::Prefix::parse("10.3.0.0/16");
  exp.announce_prefix(as3, pfx);
  ASSERT_TRUE(exp.start());
  for (const auto as : spec.ases) {
    if (!exp.is_member(as)) {
      EXPECT_NE(exp.router(as).loc_rib().find(pfx), nullptr) << as.to_string();
    }
  }
  EXPECT_TRUE(exp.all_know_prefix(pfx));

  // Withdrawn, the prefix is known nowhere, the origin included.
  exp.withdraw_prefix(as3, pfx);
  exp.wait_converged();
  EXPECT_TRUE(exp.all_know_prefix(pfx, /*expect_present=*/false));
  EXPECT_FALSE(exp.all_know_prefix(pfx));
}

TEST(HybridExperiment, BorderLinkFailureReroutes) {
  // Clique of 4: AS1 legacy origin, AS3+AS4 in the cluster. Failing the
  // AS1-AS3 border link forces AS3's traffic to egress via AS4 or AS2.
  const auto spec = topology::clique(4);
  const core::AsNumber as1{1}, as3{3}, as4{4};
  Experiment exp{spec, {as3, as4}, quick_config()};
  auto& h1 = exp.add_host(as1);
  exp.add_host(as3);
  ASSERT_TRUE(exp.start());
  ASSERT_FALSE(exp.trace_route(as3, h1.address()).empty());

  exp.fail_link(as1, as3);
  exp.wait_converged();
  const auto path = exp.trace_route(as3, h1.address());
  ASSERT_FALSE(path.empty());
  EXPECT_GT(path.size(), 1u);  // no longer the direct egress
  EXPECT_EQ(path.back(), as1);
}

TEST(HybridExperiment, IntraClusterLinkFailureUsesOtherEgress) {
  // Line: 1-2-3-4, members {3,4}: AS4 reaches AS1 only through AS3's
  // border egress to AS2.
  auto spec = topology::line(4);
  const core::AsNumber as1{1}, as3{3}, as4{4};
  Experiment exp{spec, {as3, as4}, quick_config()};
  auto& h1 = exp.add_host(as1);
  exp.add_host(as4);
  ASSERT_TRUE(exp.start());
  const auto path = exp.trace_route(as4, h1.address());
  ASSERT_FALSE(path.empty());

  // Failing the intra-cluster 3-4 link isolates AS4 (no other egress).
  exp.fail_link(as3, as4);
  exp.wait_converged();
  EXPECT_TRUE(exp.trace_route(as4, h1.address()).empty());

  exp.restore_link(as3, as4);
  exp.wait_converged();
  EXPECT_FALSE(exp.trace_route(as4, h1.address()).empty());
}

TEST(HybridExperiment, RuntimeLinkAdditionShortensPaths) {
  // Line 1-2-3-4; after convergence a direct 1-4 link appears and AS4's
  // path to AS1's prefix collapses from [3 2 1] to [1].
  const auto spec = topology::line(4);
  const core::AsNumber as1{1}, as4{4};
  Experiment exp{spec, {}, quick_config()};
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(as1, pfx);
  ASSERT_TRUE(exp.start());
  ASSERT_EQ(exp.router(as4).loc_rib().find(pfx)->attributes->as_path.to_string(),
            "3 2 1");

  exp.add_link(as1, as4);
  exp.wait_converged();
  EXPECT_EQ(exp.router(as4).loc_rib().find(pfx)->attributes->as_path.to_string(),
            "1");

  // Duplicates and member endpoints are rejected.
  EXPECT_THROW(exp.add_link(as1, as4), std::invalid_argument);
  Experiment hybrid{topology::line(3), {core::AsNumber{3}}, quick_config()};
  ASSERT_TRUE(hybrid.start());
  EXPECT_THROW(hybrid.add_link(core::AsNumber{1}, core::AsNumber{3}),
               std::invalid_argument);
}

TEST(HybridExperiment, DisjointSubClustersBridgeOverLegacy) {
  // Line 1-2-3-4-5 with members {3,5}: two disjoint sub-clusters under one
  // controller. Switch 5's only route to AS1's prefix crosses cluster
  // member AS3 ([4 3 2 1]) — the paper's explicit design goal: the legacy
  // path through AS4 must still connect the sub-clusters.
  const auto spec = topology::line(5);
  const core::AsNumber as1{1}, as3{3}, as5{5};
  Experiment exp{spec, {as3, as5}, quick_config()};
  auto& h1 = exp.add_host(as1);
  exp.add_host(as5);
  ASSERT_TRUE(exp.start());

  ASSERT_FALSE(exp.idr_controller()->switch_graph().is_connected());
  EXPECT_EQ(exp.idr_controller()->switch_graph().components().size(), 2u);

  const auto pfx = exp.as_prefix(as1);
  const auto* decision = exp.idr_controller()->decision_for(pfx);
  ASSERT_NE(decision, nullptr);
  EXPECT_TRUE(decision->reachable(exp.member_switch(as3).dpid()));
  EXPECT_TRUE(decision->reachable(exp.member_switch(as5).dpid()));
  // Switch 5's AS-level path runs through the other sub-cluster.
  EXPECT_EQ(decision->as_paths.at(exp.member_switch(as5).dpid()).to_string(),
            "5 4 3 2 1");

  // And the data plane delivers end to end: 5 -> 4 -> 3 -> 2 -> 1.
  const auto path = exp.trace_route(as5, h1.address());
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path.front(), as5);
  EXPECT_EQ(path.back(), as1);
  const auto rev = exp.trace_route(as1, exp.allocator().host_address(as5, 0));
  EXPECT_EQ(rev.size(), 5u);
}

TEST(HybridExperiment, BridgedPrefixReroutesAfterClusterLinkFailure) {
  // Links 1-2, 2-3, 2-4, 4-3 with AS4 the provider of AS3; members {2,3}.
  // Switch 3 hears AS1's prefix over its border to AS4 as [4 2 1], which
  // crosses member AS2, so the decision takes the bridging fixpoint. When
  // the 2-3 cluster link fails, that decision must move onto the legacy
  // bridge through AS4, and back when the link returns.
  topology::TopologySpec spec;
  const core::AsNumber as1{1}, as2{2}, as3{3}, as4{4};
  for (const auto as : {as1, as2, as3, as4}) spec.add_as(as);
  spec.add_link(as1, as2);
  spec.add_link(as2, as3);
  spec.add_link(as2, as4);
  spec.add_link(as4, as3, bgp::Relationship::kCustomer);
  Experiment exp{spec, {as2, as3}, quick_config(3)};
  auto& h1 = exp.add_host(as1);
  ASSERT_TRUE(exp.start());

  const auto pfx = exp.as_prefix(as1);
  const auto dpid3 = exp.member_switch(as3).dpid();
  const auto decided_path = [&] {
    const auto* decision = exp.idr_controller()->decision_for(pfx);
    if (decision == nullptr || decision->as_paths.count(dpid3) == 0) {
      return std::string{};
    }
    return decision->as_paths.at(dpid3).to_string();
  };
  const auto traced_path = [&] {
    std::string out;
    for (const auto as : exp.trace_route(as3, h1.address())) {
      if (!out.empty()) out += ' ';
      out += std::to_string(as.value());
    }
    return out;
  };
  EXPECT_EQ(decided_path(), "3 2 1");
  EXPECT_EQ(traced_path(), "3 2 1");

  exp.fail_link(as2, as3);
  exp.wait_converged();
  EXPECT_EQ(decided_path(), "3 4 2 1");
  EXPECT_EQ(traced_path(), "3 4 2 1");

  exp.restore_link(as2, as3);
  exp.wait_converged();
  EXPECT_EQ(decided_path(), "3 2 1");
  EXPECT_EQ(traced_path(), "3 2 1");
}

// Each experiment owns its attribute store: a second experiment alive on
// the same thread neither moves the first one's mem.attr_pool nor counts
// the first one's bundles in its own.
TEST(HybridExperiment, AttrPoolBelongsToItsExperiment) {
  const core::AsNumber as1{1}, as2{2}, as4{4}, as5{5};
  const auto converged_a = [&] {
    auto exp = std::make_unique<Experiment>(topology::clique(5),
                                            std::set{as4, as5}, quick_config());
    const auto legacy = *net::Prefix::parse("10.0.0.0/16");
    exp->announce_prefix(as1, legacy);
    exp->announce_prefix(as4, *net::Prefix::parse("10.4.0.0/16"));
    EXPECT_TRUE(exp->start());
    exp->withdraw_prefix(as1, legacy);
    exp->wait_converged();
    return exp;
  };
  const auto converged_b = [&] {
    auto exp = std::make_unique<Experiment>(topology::clique(4),
                                            std::set<core::AsNumber>{},
                                            quick_config(11));
    exp->announce_prefix(as2, *net::Prefix::parse("10.9.0.0/16"));
    EXPECT_TRUE(exp->start());
    return exp;
  };
  const std::uint64_t b_alone = converged_b()->memory_stats().attr_pool;

  const auto a = converged_a();
  const std::uint64_t a_pool = a->memory_stats().attr_pool;
  EXPECT_GT(a_pool, 0u);
  const auto b = converged_b();
  EXPECT_EQ(a->memory_stats().attr_pool, a_pool);
  EXPECT_EQ(b->memory_stats().attr_pool, b_alone);
  EXPECT_GT(b_alone, 0u);
}

}  // namespace
}  // namespace bgpsdn
