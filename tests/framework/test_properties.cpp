// Property-based tests: invariants that must hold across randomized
// topologies, seeds and SDN membership choices.
#include <gtest/gtest.h>

#include <tuple>

#include "framework/experiment.hpp"
#include "topology/generators.hpp"

namespace bgpsdn {
namespace {

framework::ExperimentConfig fast_config(std::uint64_t seed) {
  framework::ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.timers.mrai = core::Duration::millis(300);
  cfg.recompute_delay = core::Duration::millis(100);
  return cfg;
}

// --- determinism -----------------------------------------------------------

TEST(Properties, SameSeedSameTrace) {
  const auto run_once = [](std::uint64_t seed) {
    const auto spec = topology::clique(8);
    framework::Experiment exp{spec,
                              {core::AsNumber{7}, core::AsNumber{8}},
                              fast_config(seed)};
    const auto pfx = *net::Prefix::parse("10.0.0.0/16");
    exp.announce_prefix(core::AsNumber{1}, pfx);
    EXPECT_TRUE(exp.start());
    const auto t0 = exp.loop().now();
    exp.withdraw_prefix(core::AsNumber{1}, pfx);
    const auto conv = exp.wait_converged();
    return std::tuple{conv.since(t0).count_nanos(),
                      exp.router(core::AsNumber{2}).counters().updates_rx,
                      exp.network().stats().delivered};
  };
  EXPECT_EQ(run_once(123), run_once(123));
  EXPECT_NE(std::get<0>(run_once(123)), std::get<0>(run_once(456)));
}

// --- forwarding soundness over random topologies --------------------------

/// After convergence, every AS must reach an announced host: FIB/flow walks
/// terminate at the host with no loop and no blackhole.
class ForwardingSoundness
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(ForwardingSoundness, AllPairsReachOriginHost) {
  const auto [seed, sdn_count] = GetParam();
  core::Rng topo_rng{seed};
  const auto spec = topology::erdos_renyi(10, 0.3, topo_rng);

  // Pick members deterministically from the seed: highest-degree ASes
  // excluding AS 1 (the origin).
  std::set<core::AsNumber> members;
  for (auto it = spec.ases.rbegin();
       it != spec.ases.rend() && members.size() < sdn_count; ++it) {
    if (it->value() != 1) members.insert(*it);
  }

  framework::Experiment exp{spec, members, fast_config(seed)};
  auto& host = exp.add_host(core::AsNumber{1});
  ASSERT_TRUE(exp.start());

  for (const auto as : spec.ases) {
    if (as == core::AsNumber{1}) continue;
    const auto path = exp.trace_route(as, host.address());
    ASSERT_FALSE(path.empty())
        << as.to_string() << " cannot reach the origin host (seed " << seed
        << ", sdn " << sdn_count << ")";
    EXPECT_EQ(path.back().value(), 1u);
    // trace_route already rejects loops; also bound the path length.
    EXPECT_LE(path.size(), spec.ases.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTopologies, ForwardingSoundness,
    ::testing::Combine(::testing::Values(11, 22, 33, 44, 55),
                       ::testing::Values(0, 2, 4)));

// --- valley-free invariant under Gao-Rexford -------------------------------

/// In a policy-routed internet, every selected AS path must be valley-free:
/// after the path (read from origin outward) stops climbing
/// customer->provider edges, it may cross at most one peer link and then
/// only descend provider->customer.
TEST(Properties, GaoRexfordPathsAreValleyFree) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    core::Rng topo_rng{seed};
    topology::InternetLikeParams params;
    params.tier1 = 3;
    params.transit = 6;
    params.stubs = 10;
    const auto spec = topology::internet_like(params, topo_rng);

    framework::Experiment exp{spec, {}, fast_config(seed)};
    const auto origin = spec.ases.back();  // a stub
    const auto pfx = *net::Prefix::parse("10.0.0.0/16");
    exp.announce_prefix(origin, pfx);
    ASSERT_TRUE(exp.start());

    // Edge-kind lookup from the spec.
    const auto rel = [&](core::AsNumber from,
                         core::AsNumber to) -> std::optional<bgp::Relationship> {
      for (const auto& l : spec.links) {
        if (l.a == from && l.b == to) return l.a_sees_b;
        if (l.a == to && l.b == from) return bgp::reverse(l.a_sees_b);
      }
      return std::nullopt;
    };

    for (const auto as : spec.ases) {
      if (as == origin) continue;
      const auto* route = exp.router(as).loc_rib().find(pfx);
      if (route == nullptr) continue;  // policy may legitimately hide it
      // Walk the path from the origin towards `as` and classify each edge
      // as seen by the *receiver* of the advertisement.
      std::vector<core::AsNumber> chain = route->attributes->as_path.hops();
      chain.insert(chain.begin(), as);  // as, ..., origin (traffic direction)
      // Walking from the origin end (advertisement direction), a valley-free
      // path is: customer steps (traffic downhill), then at most one peer
      // step, then provider steps (traffic uphill) — the phase only climbs.
      int phase = 0;  // 0 = downhill segment, 1 = after the peer edge, 2 = uphill
      for (std::size_t i = chain.size() - 1; i > 0; --i) {
        const auto advertiser = chain[i];
        const auto receiver = chain[i - 1];
        const auto r = rel(receiver, advertiser);
        ASSERT_TRUE(r.has_value()) << "path uses a non-existent link";
        // receiver sees advertiser as:
        if (*r == bgp::Relationship::kCustomer) {
          EXPECT_EQ(phase, 0) << "valley: customer edge after peak/peer ("
                              << route->attributes->as_path.to_string() << ")";
        } else if (*r == bgp::Relationship::kPeer) {
          EXPECT_EQ(phase, 0) << "valley: second peer edge or peer after uphill ("
                              << route->attributes->as_path.to_string() << ")";
          phase = 1;
        } else {
          phase = 2;  // uphill tail; anything after must also be uphill
        }
      }
    }
  }
}

// --- withdrawal leaves no residue -------------------------------------------

class WithdrawalCleanup
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(WithdrawalCleanup, NoRouteSurvivesAnywhere) {
  const auto [n, sdn_count] = GetParam();
  const auto spec = topology::clique(n);
  std::set<core::AsNumber> members;
  for (std::size_t i = 0; i < sdn_count; ++i) {
    members.insert(core::AsNumber{static_cast<std::uint32_t>(n - i)});
  }
  framework::Experiment exp{spec, members, fast_config(n * 100 + sdn_count)};
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(core::AsNumber{1}, pfx);
  ASSERT_TRUE(exp.start());
  ASSERT_TRUE(exp.all_know_prefix(pfx));

  exp.withdraw_prefix(core::AsNumber{1}, pfx);
  const auto conv = exp.wait_converged(
      framework::WaitOpts{core::Duration::zero(), core::Duration::seconds(600)});
  ASSERT_FALSE(conv.timed_out);
  EXPECT_TRUE(exp.all_know_prefix(pfx, /*expect_present=*/false));
  // Stronger: Adj-RIB-Ins are clean too (no stale candidates), and the
  // switches hold no data rule for the prefix.
  for (const auto as : spec.ases) {
    if (exp.is_member(as)) {
      for (const auto& e : exp.member_switch(as).table().entries()) {
        EXPECT_NE(e.match.dst, pfx) << as.to_string();
      }
    } else {
      std::size_t candidates = 0;
      exp.router(as).adj_rib_in().for_each_candidate(
          pfx, [&](const bgp::RouteView&) { ++candidates; });
      EXPECT_EQ(candidates, 0u) << as.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CliqueSweep, WithdrawalCleanup,
                         ::testing::Values(std::tuple{4u, 0u}, std::tuple{4u, 2u},
                                           std::tuple{6u, 0u}, std::tuple{6u, 3u},
                                           std::tuple{8u, 5u}, std::tuple{10u, 4u}));

// --- burst coalescing (delayed recomputation) -------------------------------

TEST(Properties, RecomputeBatchesBursts) {
  // With a large recompute delay, the withdrawal burst from many legacy
  // peers must coalesce into very few controller passes.
  auto cfg = fast_config(9);
  cfg.recompute_delay = core::Duration::seconds(5);
  cfg.timers.mrai = core::Duration::millis(200);
  const auto spec = topology::clique(8);
  std::set<core::AsNumber> members{core::AsNumber{7}, core::AsNumber{8}};
  framework::Experiment exp{spec, members, cfg};
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(core::AsNumber{1}, pfx);
  ASSERT_TRUE(exp.start());

  const auto passes0 = exp.idr_controller()->counters().recompute_passes;
  const auto updates0 = exp.cluster_speaker()->counters().updates_rx;
  exp.withdraw_prefix(core::AsNumber{1}, pfx);
  exp.wait_converged(framework::WaitOpts{core::Duration::seconds(11),
                                         core::Duration::seconds(600)});
  const auto passes = exp.idr_controller()->counters().recompute_passes - passes0;
  const auto updates = exp.cluster_speaker()->counters().updates_rx - updates0;
  EXPECT_GT(updates, passes * 2) << "batching should amortize many updates "
                                    "per recompute pass";
}

}  // namespace
}  // namespace bgpsdn
