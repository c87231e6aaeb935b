// Route-flap damping: decay math, suppression thresholds, ceiling, and the
// live-router integration (a flapping origin gets suppressed at its
// neighbor and recovers after the quiet period).
#include <gtest/gtest.h>

#include "bgp/damping.hpp"
#include "test_helpers.hpp"

namespace bgpsdn::bgp {
namespace {

DampingConfig quick_damping() {
  DampingConfig cfg;
  cfg.enabled = true;
  cfg.half_life = core::Duration::seconds(10);
  cfg.max_suppress = core::Duration::seconds(40);
  return cfg;
}

core::TimePoint at(double seconds) {
  return core::TimePoint::origin() + core::Duration::seconds_f(seconds);
}

const net::Prefix kPfx = *net::Prefix::parse("10.0.0.0/16");
const core::SessionId kSid{1};

TEST(FlapDampener, DisabledNeverSuppresses) {
  FlapDampener d{DampingConfig{}};
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(d.record_flap(kSid, kPfx, true, at(i)).suppressed);
  }
  EXPECT_FALSE(d.is_suppressed(kSid, kPfx, at(21)));
}

TEST(FlapDampener, SingleFlapBelowThreshold) {
  FlapDampener d{quick_damping()};
  const auto v = d.record_flap(kSid, kPfx, true, at(0));
  EXPECT_DOUBLE_EQ(v.penalty, 1000.0);
  EXPECT_FALSE(v.suppressed);
  EXPECT_FALSE(d.is_suppressed(kSid, kPfx, at(1)));
}

TEST(FlapDampener, RepeatedFlapsSuppress) {
  FlapDampener d{quick_damping()};
  d.record_flap(kSid, kPfx, true, at(0));   // 1000
  d.record_flap(kSid, kPfx, false, at(1));  // ~1933
  const auto v = d.record_flap(kSid, kPfx, true, at(2));  // > 2000
  EXPECT_TRUE(v.suppressed);
  EXPECT_TRUE(d.is_suppressed(kSid, kPfx, at(3)));
  EXPECT_EQ(d.total_suppressions(), 1u);
  EXPECT_GT(v.reuse_after, core::Duration::zero());
}

TEST(FlapDampener, PenaltyDecaysWithHalfLife) {
  FlapDampener d{quick_damping()};
  d.record_flap(kSid, kPfx, true, at(0));  // 1000
  EXPECT_NEAR(d.penalty(kSid, kPfx, at(10)), 500.0, 1.0);   // one half-life
  EXPECT_NEAR(d.penalty(kSid, kPfx, at(20)), 250.0, 1.0);   // two
  EXPECT_NEAR(d.penalty(kSid, kPfx, at(0)), 1000.0, 1e-9);  // no time passed
}

TEST(FlapDampener, SuppressionLapsesAtReuseThreshold) {
  FlapDampener d{quick_damping()};
  d.record_flap(kSid, kPfx, true, at(0));
  d.record_flap(kSid, kPfx, true, at(1));
  const auto v = d.record_flap(kSid, kPfx, true, at(2));
  ASSERT_TRUE(v.suppressed);
  // After reuse_after, the route must be usable again.
  const auto reuse_at = at(2) + v.reuse_after + core::Duration::seconds(1);
  EXPECT_FALSE(d.is_suppressed(kSid, kPfx, reuse_at));
  // And a single new flap does not immediately re-suppress (penalty from
  // the reuse level + 1000 < 2000... reuse 750 + 1000 = 1750 < 2000).
  const auto v2 = d.record_flap(kSid, kPfx, true, reuse_at);
  EXPECT_FALSE(v2.suppressed);
}

TEST(FlapDampener, CeilingBoundsSuppressionTime) {
  FlapDampener d{quick_damping()};
  // Hammer the route: penalty must saturate at the ceiling implied by
  // max_suppress (reuse * 2^(40/10) = 750 * 16 = 12000).

  double last = 0;
  for (int i = 0; i < 100; ++i) {
    last = d.record_flap(kSid, kPfx, true, at(0.01 * i)).penalty;
  }
  EXPECT_LE(last, 12000.0 + 1.0);
  // reuse_after bounded by max_suppress.
  const auto v = d.record_flap(kSid, kPfx, true, at(2));
  EXPECT_LE(v.reuse_after, core::Duration::seconds(41));
}

TEST(FlapDampener, SessionsIndependentAndClearable) {
  FlapDampener d{quick_damping()};
  const core::SessionId other{2};
  d.record_flap(kSid, kPfx, true, at(0));
  d.record_flap(kSid, kPfx, true, at(0));
  d.record_flap(kSid, kPfx, true, at(0));
  EXPECT_TRUE(d.is_suppressed(kSid, kPfx, at(1)));
  EXPECT_FALSE(d.is_suppressed(other, kPfx, at(1)));
  EXPECT_TRUE(d.has_history(kSid, kPfx));
  d.clear_session(kSid);
  EXPECT_FALSE(d.has_history(kSid, kPfx));
  EXPECT_FALSE(d.is_suppressed(kSid, kPfx, at(1)));
}

// --- live-router integration ------------------------------------------------

TEST(DampingIntegration, FlappingOriginGetsSuppressedAndRecovers) {
  testing::MiniTopo topo;
  bgp::Timers timers = testing::MiniTopo::quick_timers();
  timers.mrai = core::Duration::millis(50);

  auto& a = topo.add_router(1, timers);
  // Damping enabled on B with a short half-life so the test stays quick.
  RouterConfig rc;
  rc.asn = core::AsNumber{2};
  rc.router_id = topo.alloc().router_id(rc.asn);
  rc.timers = timers;
  rc.damping = quick_damping();
  rc.attr_registry = topo.attr_registry();
  auto& b = topo.net().add<BgpRouter>("AS2", rc);
  topo.routers().push_back(&b);
  topo.peer(a, b);

  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  a.originate(pfx);
  topo.start();
  topo.run_for(core::Duration::seconds(2));
  ASSERT_NE(b.loc_rib().find(pfx), nullptr);

  // Flap hard: withdraw/announce cycles faster than the half-life.
  for (int i = 0; i < 4; ++i) {
    a.withdraw_origin(pfx);
    topo.run_for(core::Duration::millis(400));
    a.originate(pfx);
    topo.run_for(core::Duration::millis(400));
  }
  // B has suppressed the route: announced by A, but not selected.
  EXPECT_GT(b.counters().routes_suppressed, 0u);
  EXPECT_EQ(b.loc_rib().find(pfx), nullptr);
  EXPECT_EQ(testing::candidate_count(b, pfx), 1u);  // stored, unused

  // After the penalty decays the route returns without any new update.
  topo.run_for(core::Duration::seconds(60));
  EXPECT_NE(b.loc_rib().find(pfx), nullptr);
}

TEST(DampingIntegration, StableRouteNeverDamped) {
  testing::MiniTopo topo;
  RouterConfig rc;
  rc.asn = core::AsNumber{2};
  rc.router_id = topo.alloc().router_id(rc.asn);
  rc.timers = testing::MiniTopo::quick_timers();
  rc.damping = quick_damping();
  rc.attr_registry = topo.attr_registry();
  auto& b = topo.net().add<BgpRouter>("AS2", rc);
  topo.routers().push_back(&b);
  auto& a = topo.add_router(1);
  topo.peer(a, b);
  a.originate(*net::Prefix::parse("10.0.0.0/16"));
  topo.start();
  topo.run_for(core::Duration::seconds(30));
  EXPECT_EQ(b.counters().routes_suppressed, 0u);
  EXPECT_NE(b.loc_rib().find(*net::Prefix::parse("10.0.0.0/16")), nullptr);
}

}  // namespace
}  // namespace bgpsdn::bgp
