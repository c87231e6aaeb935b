// RouteFlowController (related-work baseline): the mirrored virtual
// network must reproduce legacy BGP behaviour end to end — routes in both
// directions, flow programming from virtual Loc-RIBs, withdrawal cleanup —
// and, crucially, show NO centralization gain compared to the IDR
// controller (that contrast is the paper's positioning claim).
#include <gtest/gtest.h>

#include "framework/connectivity.hpp"
#include "framework/experiment.hpp"
#include "topology/generators.hpp"

namespace bgpsdn::controller {
namespace {

framework::ExperimentConfig rf_config(std::uint64_t seed = 5) {
  framework::ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.controller_style = framework::ControllerStyle::kRouteFlowMirror;
  cfg.timers.mrai = core::Duration::millis(400);
  return cfg;
}

TEST(RouteFlow, LegacyPrefixProgramsFlowsViaMirror) {
  const auto spec = topology::clique(4);
  const core::AsNumber as1{1}, as3{3}, as4{4};
  framework::Experiment exp{spec, {as3, as4}, rf_config()};
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(as1, pfx);
  ASSERT_TRUE(exp.start());
  exp.wait_converged();

  ASSERT_EQ(exp.idr_controller(), nullptr);
  auto* rf = exp.routeflow_controller();
  ASSERT_NE(rf, nullptr);
  // The virtual routers learned the prefix through their ghosts.
  const auto* v3 = rf->virtual_router(exp.member_switch(as3).dpid());
  ASSERT_NE(v3, nullptr);
  ASSERT_NE(v3->loc_rib().find(pfx), nullptr);
  EXPECT_EQ(v3->loc_rib().find(pfx)->attributes->as_path.to_string(), "1");
  // And the sync loop compiled it into the real switch tables.
  EXPECT_TRUE(exp.all_know_prefix(pfx));
  EXPECT_GT(rf->counters().flow_adds, 0u);
  EXPECT_GT(rf->counters().relayed_in, 0u);
}

TEST(RouteFlow, ClusterOriginReachesLegacyWorld) {
  const auto spec = topology::clique(4);
  const core::AsNumber as1{1}, as3{3}, as4{4};
  framework::Experiment exp{spec, {as3, as4}, rf_config()};
  const auto pfx = *net::Prefix::parse("10.77.0.0/16");
  exp.announce_prefix(as3, pfx);
  ASSERT_TRUE(exp.start());
  exp.wait_converged();

  const bgp::Route* at1 = exp.router(as1).loc_rib().find(pfx);
  ASSERT_NE(at1, nullptr);
  // The virtual AS3 router announced it; the ghost relayed it out.
  EXPECT_EQ(at1->attributes->as_path.first()->value(), 3u);
  EXPECT_GT(exp.routeflow_controller()->counters().relayed_out, 0u);
}

TEST(RouteFlow, DataPlaneEndToEnd) {
  const auto spec = topology::clique(4);
  const core::AsNumber as1{1}, as3{3}, as4{4};
  framework::Experiment exp{spec, {as3, as4}, rf_config()};
  auto& h1 = exp.add_host(as1);
  auto& h3 = exp.add_host(as3);
  ASSERT_TRUE(exp.start());
  exp.wait_converged();

  const auto path = exp.trace_route(as3, h1.address());
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.back(), as1);

  auto& mon = exp.attach_monitor<framework::ConnectivityMonitor>(
      h1, h3, core::Duration::millis(100));
  mon.start();
  exp.run_for(core::Duration::seconds(2));
  mon.stop();
  exp.run_for(core::Duration::seconds(1));
  EXPECT_DOUBLE_EQ(mon.report().delivery_ratio, 1.0);
}

TEST(RouteFlow, WithdrawalCleansEverything) {
  const auto spec = topology::clique(5);
  const core::AsNumber as1{1};
  framework::Experiment exp{spec, {core::AsNumber{4}, core::AsNumber{5}},
                            rf_config()};
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(as1, pfx);
  ASSERT_TRUE(exp.start());
  exp.wait_converged();
  ASSERT_TRUE(exp.all_know_prefix(pfx));

  exp.withdraw_prefix(as1, pfx);
  exp.wait_converged();
  // Give the sync poll one more period to mirror the final RIB state.
  exp.run_for(core::Duration::millis(300));
  EXPECT_TRUE(exp.all_know_prefix(pfx, /*expect_present=*/false));
  EXPECT_GT(exp.routeflow_controller()->counters().flow_deletes, 0u);
}

TEST(RouteFlow, IntraClusterFailureMirrorsIntoVirtualNetwork) {
  // Line 1-2-3-4, members {3,4}: failing 3-4 must drop the virtual session
  // too, leaving virtual AS4 (and so switch 4) without routes.
  const auto spec = topology::line(4);
  const core::AsNumber as1{1}, as3{3}, as4{4};
  framework::Experiment exp{spec, {as3, as4}, rf_config()};
  auto& h1 = exp.add_host(as1);
  exp.add_host(as4);
  ASSERT_TRUE(exp.start());
  exp.wait_converged();
  ASSERT_FALSE(exp.trace_route(as4, h1.address()).empty());

  exp.fail_link(as3, as4);
  exp.wait_converged();
  exp.run_for(core::Duration::seconds(1));
  const auto* v4 =
      exp.routeflow_controller()->virtual_router(exp.member_switch(as4).dpid());
  EXPECT_EQ(v4->loc_rib().find(exp.as_prefix(as1)), nullptr);
  EXPECT_TRUE(exp.trace_route(as4, h1.address()).empty());

  exp.restore_link(as3, as4);
  exp.wait_converged();
  exp.run_for(core::Duration::seconds(1));
  EXPECT_FALSE(exp.trace_route(as4, h1.address()).empty());
}

TEST(RouteFlow, NoCentralizationGainVersusIdr) {
  // The headline contrast: on the same withdrawal scenario, the IDR
  // controller converges the cluster in one recomputation while RouteFlow
  // hunts at (virtual) BGP speed. Quantified properly in
  // bench_routeflow_comparison; here we assert the ordering.
  const auto run_style = [](framework::ControllerStyle style) {
    framework::ExperimentConfig cfg;
    cfg.seed = 11;
    cfg.controller_style = style;
    cfg.timers.mrai = core::Duration::seconds(2);
    cfg.recompute_delay = core::Duration::millis(200);
    const auto spec = topology::clique(8);
    std::set<core::AsNumber> members;
    for (std::uint32_t as = 4; as <= 8; ++as) members.insert(core::AsNumber{as});
    framework::Experiment exp{spec, members, cfg};
    const auto pfx = *net::Prefix::parse("10.0.0.0/16");
    exp.announce_prefix(core::AsNumber{1}, pfx);
    EXPECT_TRUE(exp.start(core::Duration::seconds(600)));
    exp.wait_converged(framework::WaitOpts{core::Duration::seconds(5),
                                           core::Duration::seconds(600)});
    const auto t0 = exp.loop().now();
    exp.withdraw_prefix(core::AsNumber{1}, pfx);
    const auto conv = exp.wait_converged(framework::WaitOpts{
        core::Duration::seconds(5), core::Duration::seconds(1200)});
    return conv.since(t0).to_seconds();
  };
  const double idr = run_style(framework::ControllerStyle::kIdrCentralized);
  const double rf = run_style(framework::ControllerStyle::kRouteFlowMirror);
  EXPECT_LT(idr, rf) << "centralized computation must beat mirrored BGP";
}

}  // namespace
}  // namespace bgpsdn::controller
