// IncrementalDecider against the from-scratch AsTopologyGraph::decide() as
// its oracle. Seeded random clusters (chains, rings, cliques) with border
// peerings carry per-prefix route sets, cluster-crossing routes and member
// originations included. Each pass applies a few random route-set changes
// and cluster-link flips, then re-decides exactly the prefixes IdrController
// would: those whose inputs changed plus those apply_topology_deltas()
// returns. After every pass the decision held for *every* prefix must equal
// a from-scratch decision on the live graph.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "controller/as_topology.hpp"
#include "controller/switch_graph.hpp"
#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "core/random.hpp"
#include "net/network.hpp"

namespace bgpsdn::controller {
namespace {

constexpr std::uint32_t kPrefixes = 4;
constexpr int kPasses = 150;

/// Every field of a decision, one line per map entry.
std::string dump(const PrefixDecision& d) {
  std::string out;
  for (const auto& [dpid, hop] : d.hops) {
    out += "hop " + std::to_string(dpid) + " kind=" +
           std::to_string(static_cast<int>(hop.kind)) +
           " next=" + std::to_string(hop.next_switch) +
           " egress=" + std::to_string(hop.egress) +
           " dist=" + std::to_string(hop.distance) + "\n";
  }
  for (const auto& [dpid, path] : d.as_paths) {
    out += "path " + std::to_string(dpid) + " " + path.to_string() + "\n";
  }
  for (const auto& [dpid, origin] : d.origins) {
    out += "origin " + std::to_string(dpid) + " " + bgp::to_string(origin) + "\n";
  }
  return out + "pruned " + std::to_string(d.pruned_routes) + "\n";
}

/// One end of an intra-cluster link: enough to flip it by PortStatus.
struct LinkEnd {
  sdn::Dpid dpid{0};
  core::PortId port;
  bool up{true};
};

/// What the controller holds for one prefix.
struct PrefixInputs {
  std::map<speaker::PeeringId, bgp::AttrSetRef> routes;
  std::optional<sdn::Dpid> origin;
};

class OracleRun {
 public:
  OracleRun(std::uint64_t seed, bool bridging)
      : rng_{seed}, bridging_{bridging}, decider_{graph_, speaker_, bridging} {
    build_cluster();
  }

  /// Run every pass, stopping at the first mismatch.
  void run() {
    for (int pass = 0; pass < kPasses; ++pass) {
      std::set<net::Prefix> dirty;
      bool topology = false;
      const auto changes = rng_.uniform_int(1, 3);
      for (std::int64_t c = 0; c < changes; ++c) {
        if (rng_.chance(0.3)) {
          flip_link();
          topology = true;
        } else {
          dirty.insert(change_inputs());
        }
      }
      if (topology) {
        for (const auto& prefix : decider_.apply_topology_deltas()) {
          dirty.insert(prefix);
        }
      }
      for (const auto& prefix : dirty) redecide(prefix);
      for (std::uint32_t i = 0; i < kPrefixes; ++i) {
        const auto prefix = prefix_at(i);
        const auto held = decisions_.find(prefix);
        const std::string got =
            held == decisions_.end() ? dump(PrefixDecision{}) : dump(held->second);
        const auto& in = inputs_[prefix];
        const AsTopologyGraph oracle{graph_, speaker_, bridging_};
        ASSERT_EQ(got, dump(oracle.decide(routes_of(in), in.origin)))
            << "pass " << pass << " prefix " << prefix.to_string();
      }
    }
  }

  std::uint64_t fallbacks() const { return decider_.reference_fallbacks(); }
  std::uint64_t flips() const { return flips_; }

 private:
  static net::Prefix prefix_at(std::uint32_t i) {
    return net::Prefix{net::Ipv4Addr{10, static_cast<std::uint8_t>(i), 0, 0}, 16};
  }

  static core::AsNumber member_as(sdn::Dpid dpid) {
    return core::AsNumber{static_cast<std::uint32_t>(10 * dpid)};
  }

  /// A chain, ring or clique of 2..6 switches, each with 0..2 border
  /// peerings (at least one overall).
  void build_cluster() {
    const auto n = static_cast<sdn::Dpid>(rng_.uniform_int(2, 6));
    std::map<sdn::Dpid, std::uint32_t> next_port;
    const auto port_of = [&](sdn::Dpid dpid) {
      return core::PortId{next_port[dpid]++};
    };
    const auto link = [&](sdn::Dpid a, sdn::Dpid b) {
      const auto a_port = port_of(a);
      graph_.add_link(a, a_port, b, port_of(b));
      links_.push_back({a, a_port, true});
    };
    for (sdn::Dpid d = 1; d <= n; ++d) graph_.add_switch(d, member_as(d));
    switch (rng_.uniform_int(0, 2)) {
      case 0:  // chain
        for (sdn::Dpid d = 1; d < n; ++d) link(d, d + 1);
        break;
      case 1:  // ring
        for (sdn::Dpid d = 1; d < n; ++d) link(d, d + 1);
        if (n > 2) link(n, 1);
        break;
      default:  // clique
        for (sdn::Dpid a = 1; a <= n; ++a) {
          for (sdn::Dpid b = a + 1; b <= n; ++b) link(a, b);
        }
        break;
    }
    std::uint32_t peer_as = 100;
    for (sdn::Dpid d = 1; d <= n; ++d) {
      auto count = rng_.uniform_int(0, 2);
      if (d == n && peerings_.empty()) count = 1;
      for (std::int64_t k = 0; k < count; ++k) {
        speaker::Peering p;
        p.cluster_as = member_as(d);
        p.border_dpid = d;
        p.switch_external_port = port_of(d);
        p.expected_peer_as = core::AsNumber{peer_as++};
        peerings_.push_back(p);
        peerings_.back().id = speaker_.add_peering(
            core::PortId{static_cast<std::uint32_t>(peerings_.size())}, p);
      }
    }
    switch_count_ = n;
  }

  /// The external path a peering hears: its neighbor, up to three legacy
  /// hops, and sometimes a member AS (a cluster-crossing route).
  bgp::AttrSetRef random_route(const speaker::Peering& peering) {
    std::vector<core::AsNumber> hops{peering.expected_peer_as};
    const auto extra = rng_.uniform_int(0, 3);
    for (std::int64_t i = 0; i < extra; ++i) {
      hops.emplace_back(static_cast<std::uint32_t>(rng_.uniform_int(200, 204)));
    }
    if (rng_.chance(0.4)) {
      const auto member = static_cast<sdn::Dpid>(
          rng_.uniform_int(1, static_cast<std::int64_t>(switch_count_)));
      const auto at = rng_.uniform_int(1, static_cast<std::int64_t>(hops.size()));
      hops.insert(hops.begin() + at, member_as(member));
    }
    bgp::PathAttributes attrs;
    attrs.as_path = bgp::AsPath{std::move(hops)};
    attrs.origin = static_cast<bgp::Origin>(rng_.uniform_int(0, 2));
    return speaker_.attr_registry().intern(std::move(attrs));
  }

  /// Announce, replace or withdraw one route, or move a member origin.
  net::Prefix change_inputs() {
    const auto prefix = prefix_at(
        static_cast<std::uint32_t>(rng_.uniform_int(0, kPrefixes - 1)));
    auto& in = inputs_[prefix];
    if (rng_.chance(0.15)) {
      if (in.origin || rng_.chance(0.5)) {
        in.origin.reset();
      } else {
        in.origin = static_cast<sdn::Dpid>(
            rng_.uniform_int(1, static_cast<std::int64_t>(switch_count_)));
      }
      return prefix;
    }
    const auto& peering = peerings_[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(peerings_.size()) - 1))];
    if (in.routes.count(peering.id) > 0 && rng_.chance(0.4)) {
      in.routes.erase(peering.id);
    } else {
      in.routes[peering.id] = random_route(peering);
    }
    return prefix;
  }

  /// A PortStatus from one side of a random cluster link.
  void flip_link() {
    auto& end = links_[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(links_.size()) - 1))];
    end.up = !end.up;
    ASSERT_TRUE(graph_.set_port_state(end.dpid, end.port, end.up));
    ++flips_;
  }

  static std::vector<ExternalRoute> routes_of(const PrefixInputs& in) {
    std::vector<ExternalRoute> routes;
    for (const auto& [id, attrs] : in.routes) routes.push_back({id, attrs});
    return routes;
  }

  /// IdrController::recompute_prefix's use of the decider.
  void redecide(const net::Prefix& prefix) {
    const auto& in = inputs_[prefix];
    const auto routes = routes_of(in);
    decisions_[prefix] = decider_.decide(prefix, routes, in.origin);
    if (routes.empty() && !in.origin) decider_.drop(prefix);
  }

  core::Rng rng_;
  bool bridging_;
  SwitchGraph graph_;
  // The speaker serves only as a peering registry and attribute store; like
  // every node it lives in a network, which is never started.
  core::EventLoop loop_;
  core::Logger logger_;
  net::Network net_{loop_, logger_, rng_};
  speaker::ClusterBgpSpeaker& speaker_ = net_.add<speaker::ClusterBgpSpeaker>(
      "speaker", bgp::Timers{}, std::make_shared<bgp::AttrRegistry>());
  IncrementalDecider decider_;
  std::vector<LinkEnd> links_;
  std::vector<speaker::Peering> peerings_;
  sdn::Dpid switch_count_{0};
  std::map<net::Prefix, PrefixInputs> inputs_;
  std::map<net::Prefix, PrefixDecision> decisions_;
  std::uint64_t flips_{0};
};

void run_seeds(bool bridging) {
  std::uint64_t fallbacks = 0;
  std::uint64_t flips = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    OracleRun run{seed, bridging};
    run.run();
    if (::testing::Test::HasFatalFailure()) return;
    fallbacks += run.fallbacks();
    flips += run.flips();
  }
  // Guard against a vacuous sweep: links must flip, and with bridging on
  // the fixpoint fallback must have carried decisions.
  EXPECT_GT(flips, 0u);
  if (bridging) {
    EXPECT_GT(fallbacks, 0u);
  }
}

TEST(IncrementalDeciderOracle, HeldDecisionsMatchFromScratchWithBridging) {
  run_seeds(/*bridging=*/true);
}

TEST(IncrementalDeciderOracle, HeldDecisionsMatchFromScratchWithoutBridging) {
  run_seeds(/*bridging=*/false);
}

}  // namespace
}  // namespace bgpsdn::controller
