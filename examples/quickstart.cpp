// Quickstart: the smallest complete hybrid BGP/SDN experiment.
//
// Builds a 4-AS clique where two ASes join the SDN cluster, announces a
// prefix from a legacy AS, waits for convergence, and prints what every
// routing table ended up with — the "hello world" of the framework.
//
//   $ ./quickstart
#include <cstdio>

#include "framework/experiment.hpp"
#include "topology/generators.hpp"

using namespace bgpsdn;

int main() {
  // 1. Describe the AS-level topology: a 4-AS full mesh.
  const auto spec = topology::clique(4);

  // 2. Pick the SDN cluster members; the rest stay legacy BGP routers.
  const std::set<core::AsNumber> members{core::AsNumber{3}, core::AsNumber{4}};

  // 3. Configure the experiment. Timers are scaled down from the
  //    paper-faithful Quagga defaults so the demo finishes instantly.
  framework::ExperimentConfig cfg;
  cfg.seed = 42;
  cfg.timers.mrai = core::Duration::seconds(2);
  cfg.recompute_delay = core::Duration::millis(500);

  framework::Experiment exp{spec, members, cfg};
  std::printf("topology: %s; SDN members: AS3, AS4\n", spec.summary().c_str());

  // 4. AS1 (legacy) originates a prefix before the network boots.
  const auto pfx = *net::Prefix::parse("10.0.0.0/16");
  exp.announce_prefix(core::AsNumber{1}, pfx);

  // 5. Boot everything: BGP sessions (including the relayed cluster
  //    peerings) come up, routes propagate, the controller programs flows.
  if (!exp.start()) {
    std::fprintf(stderr, "sessions failed to establish\n");
    return 1;
  }
  std::printf("converged at virtual time %s\n",
              exp.loop().now().to_string().c_str());

  // 6. Inspect the outcome: the legacy router's view...
  const bgp::BgpRouter& as2 = exp.router(core::AsNumber{2});
  const bgp::Route* route = as2.loc_rib().find(pfx);
  std::size_t candidates = 0;
  as2.adj_rib_in().for_each_candidate(
      pfx, [&](const bgp::RouteView&) { ++candidates; });
  std::printf("\nAS2 (legacy BGP) best route for %s:\n", pfx.to_string().c_str());
  std::printf("  AS path [%s], next hop %s, %zu candidate(s) in Adj-RIB-In\n",
              route->attributes->as_path.to_string().c_str(),
              route->attributes->next_hop.to_string().c_str(), candidates);

  // ...the controller's decision for the cluster...
  const auto* decision = exp.idr_controller()->decision_for(pfx);
  std::printf("\nIDR controller decision for %s:\n", pfx.to_string().c_str());
  for (const auto& [dpid, hop] : decision->hops) {
    std::printf("  switch dpid %llu (AS%u): distance %u, AS path [%s]\n",
                static_cast<unsigned long long>(dpid),
                exp.idr_controller()->switch_graph().owner_of(dpid)->value(),
                hop.distance, decision->as_paths.at(dpid).to_string().c_str());
  }

  // ...and the switches' flow tables.
  for (const auto as : members) {
    std::printf("\nAS%u switch flow table:\n", as.value());
    for (const auto& e : exp.member_switch(as).table().entries()) {
      std::printf("  %s\n", e.to_string().c_str());
    }
  }

  // 7. Live experiment control: withdraw and watch it disappear.
  exp.withdraw_prefix(core::AsNumber{1}, pfx);
  exp.wait_converged();
  std::printf("\nafter withdrawal: AS2 has %s, cluster reachable=%s\n",
              as2.loc_rib().find(pfx) == nullptr ? "no route" : "a route!?",
              exp.idr_controller()->decision_for(pfx)->hops.empty() ? "no"
                                                                    : "yes");
  std::printf("\ncollector observed %zu routing events\n",
              exp.collector()->observations().size());
  return 0;
}
