// SwitchGraph, Dijkstra and the per-prefix AS-topology transformation.
#include <gtest/gtest.h>

#include "controller/as_topology.hpp"
#include "controller/dijkstra.hpp"
#include "controller/route_compiler.hpp"
#include "controller/switch_graph.hpp"
#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "core/random.hpp"
#include "net/network.hpp"

namespace bgpsdn::controller {
using sdn::Dpid;
namespace {

TEST(Dijkstra, SimpleChain) {
  AdjacencyList g;
  g.add_edge(1, 2, 1);
  g.add_edge(2, 1, 1);
  g.add_edge(2, 3, 4);
  g.add_edge(3, 2, 4);
  const auto res = shortest_paths(g, 1);
  EXPECT_EQ(res.dist.at(1), 0u);
  EXPECT_EQ(res.dist.at(2), 1u);
  EXPECT_EQ(res.dist.at(3), 5u);
  EXPECT_EQ(path_to(res, 1, 3), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Dijkstra, PrefersCheaperLongerHopPath) {
  AdjacencyList g;
  g.add_edge(1, 2, 10);
  g.add_edge(1, 3, 1);
  g.add_edge(3, 2, 1);
  const auto res = shortest_paths(g, 1);
  EXPECT_EQ(res.dist.at(2), 2u);
  EXPECT_EQ(path_to(res, 1, 2), (std::vector<std::uint64_t>{1, 3, 2}));
}

TEST(Dijkstra, UnreachableNodeAbsent) {
  AdjacencyList g;
  g.intern(1);
  g.intern(2);
  const auto res = shortest_paths(g, 1);
  EXPECT_EQ(res.dist.count(2), 0u);
  EXPECT_TRUE(path_to(res, 1, 2).empty());
}

TEST(Dijkstra, DeterministicTieBreakTowardsLowerVia) {
  // Two equal-cost paths to 4: via 2 and via 3. The lower node id wins.
  AdjacencyList g;
  g.add_edge(1, 2, 1);
  g.add_edge(1, 3, 1);
  g.add_edge(2, 4, 1);
  g.add_edge(3, 4, 1);
  const auto res = shortest_paths(g, 1);
  EXPECT_EQ(res.dist.at(4), 2u);
  EXPECT_EQ(res.prev.at(4), 2u);
}

TEST(AdjacencyListTest, InternAndEdgeBookkeeping) {
  AdjacencyList g;
  EXPECT_EQ(g.index_of(7), AdjacencyList::kNoIndex);
  const auto a = g.intern(7);
  EXPECT_EQ(g.intern(7), a);  // idempotent
  EXPECT_EQ(g.node_id(a), 7u);
  g.add_edge(7, 9, 3);
  g.add_edge(7, 9, 3);  // parallel edges kept distinct
  EXPECT_EQ(g.arc_count(), 2u);
  EXPECT_TRUE(g.remove_edge(7, 9, 3));
  EXPECT_EQ(g.arc_count(), 1u);
  EXPECT_FALSE(g.remove_edge(7, 9, 5));  // no arc with that weight
  EXPECT_FALSE(g.remove_edge(7, 11, 3));  // unknown target
  g.clear_edges_from(7);
  EXPECT_EQ(g.arc_count(), 0u);
  EXPECT_EQ(g.node_count(), 2u);  // nodes survive edge removal
}

TEST(SwitchGraph, NeighborsRespectLinkState) {
  SwitchGraph g;
  g.add_switch(1, core::AsNumber{10});
  g.add_switch(2, core::AsNumber{20});
  g.add_link(1, core::PortId{0}, 2, core::PortId{3});
  EXPECT_EQ(g.neighbors(1).size(), 1u);
  EXPECT_EQ(g.neighbors(1)[0].peer, 2u);
  EXPECT_EQ(g.neighbors(2)[0].local_port.value(), 3u);

  EXPECT_TRUE(g.set_port_state(1, core::PortId{0}, false));
  EXPECT_TRUE(g.neighbors(1).empty());
  EXPECT_TRUE(g.neighbors(2).empty());  // both directions down
  EXPECT_EQ(g.neighbors(1, /*include_down=*/true).size(), 1u);

  EXPECT_FALSE(g.set_port_state(1, core::PortId{9}, false));  // unknown port
  EXPECT_FALSE(g.set_port_state(99, core::PortId{0}, false));  // unknown switch
}

TEST(SwitchGraph, OwnerLookupBothWays) {
  SwitchGraph g;
  g.add_switch(5, core::AsNumber{50});
  EXPECT_EQ(g.owner_of(5)->value(), 50u);
  EXPECT_EQ(g.switch_of(core::AsNumber{50}).value(), 5u);
  EXPECT_FALSE(g.owner_of(6).has_value());
  EXPECT_FALSE(g.switch_of(core::AsNumber{51}).has_value());
}

TEST(SwitchGraph, ComponentsAndConnectivity) {
  SwitchGraph g;
  for (int i = 1; i <= 4; ++i) {
    g.add_switch(static_cast<Dpid>(i), core::AsNumber{static_cast<std::uint32_t>(i * 10)});
  }
  g.add_link(1, core::PortId{0}, 2, core::PortId{0});
  g.add_link(3, core::PortId{0}, 4, core::PortId{0});
  EXPECT_FALSE(g.is_connected());
  const auto comps = g.components();
  ASSERT_EQ(comps.size(), 2u);  // disjoint sub-clusters (paper objective)
  EXPECT_EQ(comps[0], (std::vector<Dpid>{1, 2}));
  EXPECT_EQ(comps[1], (std::vector<Dpid>{3, 4}));

  g.add_link(2, core::PortId{1}, 3, core::PortId{1});
  EXPECT_TRUE(g.is_connected());
}

// --- AS topology transformation ------------------------------------------

/// A cluster switch graph and its speaker. The speaker serves only as a
/// peering registry and attribute store; like every node it lives in a
/// network, which is never started.
class ClusterFixture : public ::testing::Test {
 protected:
  ExternalRoute route(speaker::PeeringId id, std::vector<std::uint32_t> path) {
    ExternalRoute r;
    r.peering = id;
    std::vector<core::AsNumber> hops;
    for (const auto as : path) hops.emplace_back(as);
    bgp::PathAttributes attrs;
    attrs.as_path = bgp::AsPath{std::move(hops)};
    r.attributes = speaker.attr_registry().intern(std::move(attrs));
    return r;
  }

  SwitchGraph graph;
  core::EventLoop loop;
  core::Logger logger;
  core::Rng rng{1};
  net::Network net{loop, logger, rng};
  speaker::ClusterBgpSpeaker& speaker = net.add<speaker::ClusterBgpSpeaker>(
      "speaker", bgp::Timers{}, std::make_shared<bgp::AttrRegistry>());
};

class AsTopologyTest : public ClusterFixture {
 protected:
  void SetUp() override {
    // Cluster: 1 - 2 - 3 in a line; owner ASes 10, 20, 30.
    graph.add_switch(1, core::AsNumber{10});
    graph.add_switch(2, core::AsNumber{20});
    graph.add_switch(3, core::AsNumber{30});
    graph.add_link(1, core::PortId{1}, 2, core::PortId{1});
    graph.add_link(2, core::PortId{2}, 3, core::PortId{1});
    // Border peerings: one on switch 1 (peer AS 100), one on switch 3
    // (peer AS 200).
    speaker::Peering p0;
    p0.cluster_as = core::AsNumber{10};
    p0.border_dpid = 1;
    p0.switch_external_port = core::PortId{2};
    p0.expected_peer_as = core::AsNumber{100};
    speaker.add_peering(core::PortId{0}, p0);
    speaker::Peering p1;
    p1.cluster_as = core::AsNumber{30};
    p1.border_dpid = 3;
    p1.switch_external_port = core::PortId{2};
    p1.expected_peer_as = core::AsNumber{200};
    speaker.add_peering(core::PortId{1}, p1);
  }
};

TEST_F(AsTopologyTest, SingleEgressAllSwitchesRoute) {
  AsTopologyGraph topo{graph, speaker};
  const auto d = topo.decide({route(0, {100, 99})}, std::nullopt);
  ASSERT_TRUE(d.reachable(1));
  ASSERT_TRUE(d.reachable(2));
  ASSERT_TRUE(d.reachable(3));
  EXPECT_EQ(d.hops.at(1).kind, PrefixDecision::HopKind::kEgress);
  EXPECT_EQ(d.hops.at(1).egress, 0u);
  EXPECT_EQ(d.hops.at(2).kind, PrefixDecision::HopKind::kNextSwitch);
  EXPECT_EQ(d.hops.at(2).next_switch, 1u);
  EXPECT_EQ(d.hops.at(3).next_switch, 2u);
  // AS paths: from switch 3 the cluster segment is 30 20 10 then 100 99.
  EXPECT_EQ(d.as_paths.at(3).to_string(), "30 20 10 100 99");
  EXPECT_EQ(d.as_paths.at(1).to_string(), "10 100 99");
}

TEST_F(AsTopologyTest, NearestEgressWinsPerSwitch) {
  AsTopologyGraph topo{graph, speaker};
  const auto d =
      topo.decide({route(0, {100, 99}), route(1, {200, 99})}, std::nullopt);
  EXPECT_EQ(d.hops.at(1).kind, PrefixDecision::HopKind::kEgress);
  EXPECT_EQ(d.hops.at(1).egress, 0u);
  EXPECT_EQ(d.hops.at(3).kind, PrefixDecision::HopKind::kEgress);
  EXPECT_EQ(d.hops.at(3).egress, 1u);
  // The middle switch tie-breaks deterministically (lower dpid side).
  EXPECT_EQ(d.hops.at(2).kind, PrefixDecision::HopKind::kNextSwitch);
  EXPECT_EQ(d.hops.at(2).next_switch, 1u);
}

TEST_F(AsTopologyTest, ShorterExternalPathPreferred) {
  AsTopologyGraph topo{graph, speaker};
  // Egress at switch 1 has a much longer external path; switch 2 should
  // prefer crossing the cluster to switch 3.
  const auto d = topo.decide(
      {route(0, {100, 99, 98, 97, 96}), route(1, {200})}, std::nullopt);
  EXPECT_EQ(d.hops.at(2).next_switch, 3u);
  EXPECT_EQ(d.as_paths.at(2).to_string(), "20 30 200");
}

TEST_F(AsTopologyTest, LoopAvoidancePrunesClusterCrossingRoutes) {
  AsTopologyGraph topo{graph, speaker};
  // The external route's path re-enters the cluster (contains AS 20):
  // using it could loop traffic back into the cluster. Must be pruned.
  const auto d = topo.decide({route(0, {100, 20, 99})}, std::nullopt);
  EXPECT_EQ(d.pruned_routes, 1u);
  EXPECT_FALSE(d.reachable(1));
  EXPECT_FALSE(d.reachable(2));
}

TEST_F(AsTopologyTest, ClusterOriginWinsOverExternal) {
  AsTopologyGraph topo{graph, speaker};
  const auto d = topo.decide({route(0, {100, 99})}, /*origin_switch=*/2);
  EXPECT_EQ(d.hops.at(2).kind, PrefixDecision::HopKind::kLocalOrigin);
  EXPECT_EQ(d.hops.at(1).kind, PrefixDecision::HopKind::kNextSwitch);
  EXPECT_EQ(d.hops.at(1).next_switch, 2u);
  EXPECT_EQ(d.hops.at(3).next_switch, 2u);
  EXPECT_EQ(d.as_paths.at(1).to_string(), "10 20");
  EXPECT_EQ(d.as_paths.at(2).to_string(), "20");
}

TEST_F(AsTopologyTest, PartitionedClusterUsesOwnEgress) {
  // Cut the 1-2 link: switch 1 is alone, switches 2-3 together.
  graph.set_port_state(1, core::PortId{1}, false);
  AsTopologyGraph topo{graph, speaker};
  const auto d =
      topo.decide({route(0, {100, 99}), route(1, {200, 99})}, std::nullopt);
  // Sub-cluster A egresses via peering 0, sub-cluster B via peering 1 —
  // the paper's disjoint sub-cluster support.
  EXPECT_EQ(d.hops.at(1).egress, 0u);
  EXPECT_EQ(d.hops.at(3).egress, 1u);
  EXPECT_EQ(d.hops.at(2).next_switch, 3u);
}

TEST_F(AsTopologyTest, NoRoutesNoReachability) {
  AsTopologyGraph topo{graph, speaker};
  const auto d = topo.decide({}, std::nullopt);
  EXPECT_TRUE(d.hops.empty());
  EXPECT_TRUE(d.as_paths.empty());
}

TEST_F(AsTopologyTest, CompileFlowsMapsHopsToPorts) {
  AsTopologyGraph topo{graph, speaker};
  const auto d = topo.decide({route(0, {100, 99})}, std::nullopt);
  const auto flows = compile_flows(d, graph, speaker, {});
  ASSERT_EQ(flows.actions.size(), 3u);
  // Switch 1 egresses out its external port 2.
  EXPECT_EQ(flows.actions.at(1),
            sdn::FlowAction::output(core::PortId{2}));
  // Switch 2 forwards towards switch 1 (its port 1).
  EXPECT_EQ(flows.actions.at(2), sdn::FlowAction::output(core::PortId{1}));
  EXPECT_EQ(flows.actions.at(3), sdn::FlowAction::output(core::PortId{1}));
}

TEST_F(AsTopologyTest, CompileFlowsLocalOriginWithHost) {
  AsTopologyGraph topo{graph, speaker};
  const auto d = topo.decide({}, /*origin_switch=*/2);
  std::map<sdn::Dpid, core::PortId> host_ports{{2, core::PortId{7}}};
  const auto flows = compile_flows(d, graph, speaker, host_ports);
  EXPECT_EQ(flows.actions.at(2), sdn::FlowAction::output(core::PortId{7}));
  // Without a host the origin drops.
  const auto flows2 = compile_flows(d, graph, speaker, {});
  EXPECT_EQ(flows2.actions.at(2).type, sdn::ActionType::kDrop);
}

// --- sub-cluster rule (pass 2 of the transformation) ----------------------

class SubClusterTest : public ClusterFixture {
 protected:
  void SetUp() override {
    // Two disjoint sub-clusters under one controller: {1} and {2}
    // (no intra-cluster link at all). Border peerings on both.
    graph.add_switch(1, core::AsNumber{10});
    graph.add_switch(2, core::AsNumber{20});
    speaker::Peering p0;
    p0.cluster_as = core::AsNumber{10};
    p0.border_dpid = 1;
    p0.switch_external_port = core::PortId{1};
    p0.expected_peer_as = core::AsNumber{100};
    speaker.add_peering(core::PortId{0}, p0);
    speaker::Peering p1;
    p1.cluster_as = core::AsNumber{20};
    p1.border_dpid = 2;
    p1.switch_external_port = core::PortId{1};
    p1.expected_peer_as = core::AsNumber{200};
    speaker.add_peering(core::PortId{1}, p1);
  }
};

TEST_F(SubClusterTest, LegacyBridgeConnectsSubClusters) {
  AsTopologyGraph topo{graph, speaker};
  // Sub-cluster {2} has a clean egress; sub-cluster {1} only hears a route
  // whose legacy path crosses member AS 20 — admissible, because {2} is
  // reachable without crossing the cluster.
  const auto d = topo.decide(
      {route(1, {200, 99}), route(0, {100, 20, 200, 99})}, std::nullopt);
  EXPECT_EQ(d.pruned_routes, 0u);
  ASSERT_TRUE(d.reachable(1));
  ASSERT_TRUE(d.reachable(2));
  EXPECT_EQ(d.hops.at(1).kind, PrefixDecision::HopKind::kEgress);
  EXPECT_EQ(d.hops.at(1).egress, 0u);
  EXPECT_EQ(d.as_paths.at(1).to_string(), "10 100 20 200 99");
}

TEST_F(SubClusterTest, CrossingRouteIntoUnreachableSubClusterPruned) {
  AsTopologyGraph topo{graph, speaker};
  // Only the crossing route exists; the crossed sub-cluster {2} has no
  // clean egress of its own, so the bridge is unsafe and must be pruned.
  const auto d = topo.decide({route(0, {100, 20, 99})}, std::nullopt);
  EXPECT_EQ(d.pruned_routes, 1u);
  EXPECT_FALSE(d.reachable(1));
}

TEST_F(SubClusterTest, CrossingRouteIgnoredWhenOwnEgressExists) {
  AsTopologyGraph topo{graph, speaker};
  // Sub-cluster {1} has its own clean egress; the crossing alternative is
  // pruned (counted), and the clean route wins.
  const auto d = topo.decide(
      {route(0, {100, 99}), route(0, {100, 20, 200, 99}), route(1, {200, 99})},
      std::nullopt);
  EXPECT_EQ(d.pruned_routes, 1u);
  EXPECT_EQ(d.as_paths.at(1).to_string(), "10 100 99");
}

TEST_F(SubClusterTest, BridgingDisabledPrunesEverything) {
  AsTopologyGraph topo{graph, speaker, /*allow_subcluster_bridging=*/false};
  const auto d = topo.decide(
      {route(1, {200, 99}), route(0, {100, 20, 200, 99})}, std::nullopt);
  EXPECT_EQ(d.pruned_routes, 1u);
  EXPECT_FALSE(d.reachable(1));  // the naive rule isolates sub-cluster {1}
  EXPECT_TRUE(d.reachable(2));
}

TEST_F(SubClusterTest, FixpointBridgesChainsOfSubClusters) {
  // Third singleton sub-cluster {3}; its only route crosses member AS 10,
  // whose sub-cluster is itself bridged (crossing AS 20). Requires two
  // bridging passes: {2} settles in pass 1, {1} in pass 2, {3} in pass 3.
  graph.add_switch(3, core::AsNumber{30});
  speaker::Peering p2;
  p2.cluster_as = core::AsNumber{30};
  p2.border_dpid = 3;
  p2.switch_external_port = core::PortId{1};
  p2.expected_peer_as = core::AsNumber{300};
  speaker.add_peering(core::PortId{2}, p2);

  AsTopologyGraph topo{graph, speaker};
  const auto d = topo.decide({route(1, {200, 99}),
                              route(0, {100, 20, 200, 99}),
                              route(2, {300, 10, 100, 20, 200, 99})},
                             std::nullopt);
  EXPECT_EQ(d.pruned_routes, 0u);
  EXPECT_TRUE(d.reachable(1));
  EXPECT_TRUE(d.reachable(2));
  EXPECT_TRUE(d.reachable(3));
  EXPECT_EQ(d.as_paths.at(3).to_string(), "30 300 10 100 20 200 99");
}

TEST_F(SubClusterTest, SameComponentCrossingAlwaysPruned) {
  // Join the two switches into one component: now a route through AS 20
  // arriving at switch 1 is an intra-component loop risk, never admitted.
  graph.add_link(1, core::PortId{2}, 2, core::PortId{2});
  AsTopologyGraph topo{graph, speaker};
  const auto d = topo.decide({route(0, {100, 20, 99})}, std::nullopt);
  EXPECT_EQ(d.pruned_routes, 1u);
  EXPECT_FALSE(d.reachable(1));
  EXPECT_FALSE(d.reachable(2));
}

}  // namespace
}  // namespace bgpsdn::controller
