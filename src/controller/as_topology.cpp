#include "controller/as_topology.hpp"

#include <algorithm>
#include <set>

namespace bgpsdn::controller {

namespace {
/// Short local alias; the canonical constant lives in the header so the
/// incremental decider can root its trees at the same node.
constexpr std::uint64_t kDestNode = kAsTopologyDestNode;

bool path_crosses_cluster(const SwitchGraph& switches, const bgp::AsPath& path) {
  for (const auto as : path.hops()) {
    if (switches.switch_of(as).has_value()) return true;
  }
  return false;
}

/// Egress bookkeeping: best (weight, peering) per border switch.
struct EgressChoice {
  std::uint32_t weight{0};
  speaker::PeeringId peering{0};
  const ExternalRoute* route{nullptr};
};
using EgressMap = std::map<sdn::Dpid, EgressChoice>;

void consider_egress(EgressMap& egress,
                     const speaker::ClusterBgpSpeaker& speaker,
                     const ExternalRoute& r) {
  const speaker::Peering* info = speaker.peering(r.peering);
  if (info == nullptr) return;
  const auto weight =
      static_cast<std::uint32_t>(1 + r.attributes->as_path.length());
  const auto it = egress.find(info->border_dpid);
  // Deterministic preference: lower weight, then lower peering id.
  if (it == egress.end() || weight < it->second.weight ||
      (weight == it->second.weight && r.peering < it->second.peering)) {
    egress[info->border_dpid] = EgressChoice{weight, r.peering, &r};
  }
}

/// Translate a Dijkstra result over the transformed graph into per-switch
/// hops and composed AS-level paths. Shared by AsTopologyGraph and the
/// incremental decider — the translation is where the output bytes are
/// made, so sharing it keeps the two trivially aligned there.
PrefixDecision translate(const SwitchGraph& switches, const DijkstraResult& res,
                         const EgressMap& egress,
                         std::optional<sdn::Dpid> origin_switch,
                         std::size_t pruned_routes) {
  PrefixDecision decision;
  decision.pruned_routes = pruned_routes;

  // prev[s] is the node after s on the path s -> destination (the Dijkstra
  // ran on reversed edges).
  for (const auto& sw : switches.all_switches()) {
    const auto dit = res.dist.find(sw.dpid);
    if (dit == res.dist.end()) continue;  // unreachable
    PrefixDecision::Hop hop;
    hop.distance = dit->second;
    const std::uint64_t next = res.prev.at(sw.dpid);
    if (next == kDestNode) {
      if (origin_switch && *origin_switch == sw.dpid &&
          (egress.count(sw.dpid) == 0 || dit->second == 0)) {
        hop.kind = PrefixDecision::HopKind::kLocalOrigin;
      } else {
        hop.kind = PrefixDecision::HopKind::kEgress;
        hop.egress = egress.at(sw.dpid).peering;
      }
    } else {
      hop.kind = PrefixDecision::HopKind::kNextSwitch;
      hop.next_switch = next;
    }
    decision.hops[sw.dpid] = hop;
  }

  // Compose AS-level paths: walk the hop chain, then append the external
  // route's path at the egress (or stop at the origin switch).
  for (const auto& [dpid, hop] : decision.hops) {
    std::vector<core::AsNumber> hops_out;
    bgp::Origin origin = bgp::Origin::kIgp;
    sdn::Dpid cur = dpid;
    bool ok = true;
    while (true) {
      const auto owner = switches.owner_of(cur);
      if (!owner) {
        ok = false;
        break;
      }
      hops_out.push_back(*owner);
      const auto& h = decision.hops.at(cur);
      if (h.kind == PrefixDecision::HopKind::kLocalOrigin) break;
      if (h.kind == PrefixDecision::HopKind::kEgress) {
        const auto& choice = egress.at(cur);
        for (const auto as : choice.route->attributes->as_path.hops()) {
          hops_out.push_back(as);
        }
        origin = choice.route->attributes->origin;
        break;
      }
      cur = h.next_switch;
    }
    if (!ok) continue;
    decision.as_paths[dpid] = bgp::AsPath{std::move(hops_out)};
    decision.origins[dpid] = origin;
  }

  return decision;
}
}  // namespace

bool AsTopologyGraph::crosses_cluster(const bgp::AsPath& path) const {
  return path_crosses_cluster(switches_, path);
}

PrefixDecision AsTopologyGraph::decide(const std::vector<ExternalRoute>& routes,
                                       std::optional<sdn::Dpid> origin_switch) const {
  // Component index per switch: needed by the sub-cluster rule below.
  std::map<sdn::Dpid, std::size_t> component_of;
  {
    const auto comps = switches_.components();
    for (std::size_t i = 0; i < comps.size(); ++i) {
      for (const auto dpid : comps[i]) component_of[dpid] = i;
    }
  }

  // Base reversed graph: Dijkstra runs from the virtual destination, so
  // every edge points *away* from it. Intra-cluster links are symmetric.
  AdjacencyList graph;
  graph.intern(kDestNode);
  for (const auto& sw : switches_.all_switches()) {
    graph.intern(sw.dpid);
    for (const auto& adj : switches_.neighbors(sw.dpid)) {
      graph.add_edge(sw.dpid, adj.peer, 1);
    }
  }

  EgressMap egress;

  // --- Pass 1: routes that never re-enter the cluster -------------------
  std::vector<const ExternalRoute*> crossing;
  for (const auto& r : routes) {
    if (crosses_cluster(r.attributes->as_path)) {
      crossing.push_back(&r);
    } else {
      consider_egress(egress, speaker_, r);
    }
  }
  const auto build_dest_edges = [&] {
    graph.clear_edges_from(kDestNode);
    for (const auto& [dpid, choice] : egress) {
      graph.add_edge(kDestNode, dpid, choice.weight);
    }
    if (origin_switch) graph.add_edge(kDestNode, *origin_switch, 0);
  };
  build_dest_edges();
  DijkstraResult res = shortest_paths(graph, kDestNode);

  // --- Pass 2: the sub-cluster rule --------------------------------------
  // "We want to support disjoint AS sub-clusters controlled by the same
  // controller, so that an intra-cluster link failure does not isolate the
  // controlled ASes: paths over the legacy Internet could still connect
  // the sub-clusters."
  //
  // A route whose AS_PATH contains cluster members is admissible only for
  // a border switch that pass 1 left unreachable, and only when every
  // crossed member (a) sits in a *different* component than that border
  // switch and (b) was itself reached in pass 1 without crossing the
  // cluster. Such traffic exits to the legacy world and re-enters a
  // sub-cluster whose forwarding never points back at the unreached one —
  // loop-free by construction. Everything else is pruned (the paper's
  // "naive BGP loop avoidance is not enough" insight).
  // Iterate to a fixpoint: each pass may admit routes whose crossed
  // members were all settled by *earlier* passes. A pass-k component only
  // forwards through components of pass < k, so the pass order is a
  // topological order and no forwarding cycle can form.
  std::vector<const ExternalRoute*> pending(crossing.begin(), crossing.end());
  std::size_t admitted_total = 0;
  bool progress = allow_bridging_;
  while (progress && !pending.empty()) {
    progress = false;
    std::vector<const ExternalRoute*> still_pending;
    std::vector<const ExternalRoute*> admitted;
    for (const ExternalRoute* r : pending) {
      const speaker::Peering* info = speaker_.peering(r->peering);
      if (info == nullptr) continue;
      const sdn::Dpid border = info->border_dpid;
      if (res.dist.count(border) > 0) continue;  // already safely routed
      bool safe = true;
      for (const auto as : r->attributes->as_path.hops()) {
        const auto crossed = switches_.switch_of(as);
        if (!crossed) continue;
        if (component_of.at(*crossed) == component_of.at(border) ||
            res.dist.count(*crossed) == 0) {
          safe = false;
          break;
        }
      }
      if (safe) {
        admitted.push_back(r);
      } else {
        still_pending.push_back(r);
      }
    }
    if (!admitted.empty()) {
      for (const ExternalRoute* r : admitted) consider_egress(egress, speaker_, *r);
      admitted_total += admitted.size();
      build_dest_edges();
      res = shortest_paths(graph, kDestNode);
      progress = true;
    }
    pending = std::move(still_pending);
  }

  return translate(switches_, res, egress, origin_switch,
                   crossing.size() - admitted_total);
}

// --- IncrementalDecider -----------------------------------------------------

IncrementalDecider::PrefixState& IncrementalDecider::get_state(
    const net::Prefix& prefix) {
  const auto it = states_.find(prefix);
  if (it != states_.end()) return it->second;
  auto& state = states_[prefix];
  // Seed the tree from the live switch graph; subsequent changes arrive
  // through the changelog suffix past this point.
  state.changelog_pos = switches_.changelog_size();
  for (const auto& sw : switches_.all_switches()) {
    for (const auto& adj : switches_.neighbors(sw.dpid)) {
      state.spt.edge_added(sw.dpid, adj.peer, 1);
    }
  }
  sync_replayed(state);
  return state;
}

void IncrementalDecider::catch_up(PrefixState& state) {
  const auto& log = switches_.changelog();
  for (; state.changelog_pos < log.size(); ++state.changelog_pos) {
    const auto& d = log[state.changelog_pos];
    if (d.kind == EdgeDelta::Kind::kAdded) {
      state.spt.edge_added(d.from, d.to, 1);
    } else {
      state.spt.edge_removed(d.from, d.to, 1);
    }
  }
  sync_replayed(state);
}

void IncrementalDecider::sync_replayed(PrefixState& state) {
  replayed_total_ += state.spt.vertices_replayed() - state.counted_replays;
  state.counted_replays = state.spt.vertices_replayed();
}

std::vector<net::Prefix> IncrementalDecider::apply_topology_deltas() {
  std::vector<net::Prefix> affected;
  for (auto& [prefix, state] : states_) {
    const auto revision = state.spt.revision();
    catch_up(state);
    if (state.spt.revision() != revision) affected.push_back(prefix);
  }
  // Bridged prefixes hold no tree: any cluster-link change since their
  // decision can move the fixpoint's components, so all of them re-decide.
  for (const auto& [prefix, decided_at] : bridged_) {
    if (decided_at != switches_.changelog_size()) affected.push_back(prefix);
  }
  std::sort(affected.begin(), affected.end());
  return affected;
}

PrefixDecision IncrementalDecider::decide(const net::Prefix& prefix,
                                          const std::vector<ExternalRoute>& routes,
                                          std::optional<sdn::Dpid> origin_switch) {
  // Split off cluster-crossing routes. With bridging enabled they engage
  // the admission fixpoint, which is not incrementalized: decide from
  // scratch with AsTopologyGraph. With bridging disabled the fixpoint
  // simply prunes them all, which the incremental path reproduces.
  std::size_t crossing = 0;
  std::vector<const ExternalRoute*> clean;
  clean.reserve(routes.size());
  for (const auto& r : routes) {
    if (path_crosses_cluster(switches_, r.attributes->as_path)) {
      ++crossing;
    } else {
      clean.push_back(&r);
    }
  }
  if (crossing > 0 && allow_bridging_) {
    ++fallbacks_;
    states_.erase(prefix);  // the tree would go stale while we bypass it
    bridged_[prefix] = switches_.changelog_size();
    const AsTopologyGraph fixpoint{switches_, speaker_, allow_bridging_};
    return fixpoint.decide(routes, origin_switch);
  }

  bridged_.erase(prefix);
  auto& state = get_state(prefix);
  catch_up(state);

  // Desired egress set from the clean routes.
  EgressMap egress;
  for (const ExternalRoute* r : clean) consider_egress(egress, speaker_, *r);

  // Diff the destination's egress edges into the tree. Both maps are
  // dpid-sorted, so a parallel walk yields removed/changed/added.
  {
    auto old_it = state.egress_weights.begin();
    auto new_it = egress.begin();
    while (old_it != state.egress_weights.end() || new_it != egress.end()) {
      if (new_it == egress.end() ||
          (old_it != state.egress_weights.end() && old_it->first < new_it->first)) {
        state.spt.edge_removed(kDestNode, old_it->first, old_it->second);
        ++old_it;
      } else if (old_it == state.egress_weights.end() ||
                 new_it->first < old_it->first) {
        state.spt.edge_added(kDestNode, new_it->first, new_it->second.weight);
        ++new_it;
      } else {
        if (old_it->second != new_it->second.weight) {
          state.spt.weight_changed(kDestNode, old_it->first, old_it->second,
                                   new_it->second.weight);
        }
        ++old_it;
        ++new_it;
      }
    }
  }
  {
    std::map<sdn::Dpid, std::uint32_t> weights;
    for (const auto& [dpid, choice] : egress) weights[dpid] = choice.weight;
    state.egress_weights = std::move(weights);
  }

  // Origin edge (the single weight-0 edge of the transformation).
  if (state.origin != origin_switch) {
    if (state.origin) state.spt.edge_removed(kDestNode, *state.origin, 0);
    if (origin_switch) state.spt.edge_added(kDestNode, *origin_switch, 0);
    state.origin = origin_switch;
  }
  sync_replayed(state);

  // Cached-decision fast path: identical tree, identical egress inputs
  // (weight, peering and attributes feed the translation), same origin and
  // prune count — the translation is a pure function of these.
  std::map<sdn::Dpid,
           std::tuple<std::uint32_t, speaker::PeeringId, bgp::AttrSetRef>>
      identity;
  for (const auto& [dpid, choice] : egress) {
    identity[dpid] =
        std::make_tuple(choice.weight, choice.peering, choice.route->attributes);
  }
  if (state.has_decision && state.decided_revision == state.spt.revision() &&
      state.egress_identity == identity && state.pruned == crossing) {
    return state.decision;
  }

  const DijkstraResult res = state.spt.snapshot();
  PrefixDecision decision =
      translate(switches_, res, egress, origin_switch, crossing);
  state.decision = decision;
  state.has_decision = true;
  state.decided_revision = state.spt.revision();
  state.egress_identity = std::move(identity);
  state.pruned = crossing;
  return decision;
}

}  // namespace bgpsdn::controller
