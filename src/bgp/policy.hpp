// Import/export policy: the "BGP policy templates" the framework configures.
//
// Two modes cover the paper's topologies:
//  * kFullTransit — every AS re-exports its best route to every peer
//    (the clique experiments: all ASes provide transit).
//  * kGaoRexford  — valley-free routing from CAIDA-style relationships:
//    customer routes go to everyone; peer/provider routes only to customers.
#pragma once

#include <optional>

#include "bgp/path_attributes.hpp"
#include "bgp/types.hpp"

namespace bgpsdn::bgp {

enum class PolicyMode { kFullTransit, kGaoRexford };

/// Per-peer policy configuration.
struct PeerPolicy {
  PolicyMode mode{PolicyMode::kFullTransit};
  Relationship relationship{Relationship::kPeer};
};

class PolicyEngine {
 public:
  /// Rewrite `attrs` on import from a peer with `policy`: LOCAL_PREF from
  /// the relationship in Gao-Rexford mode, 100 in full-transit mode.
  static void rewrite_import(const PeerPolicy& policy, PathAttributes& attrs);

  /// Whether a route (best in Loc-RIB, learned via a session whose
  /// relationship is `learned_rel`, or locally originated when nullopt)
  /// may be exported to a peer with `policy`: the valley-free rule. Reads
  /// no attributes and allocates nothing, so it can run for every peer on
  /// every best-path change.
  static bool export_allowed(const PeerPolicy& policy,
                             std::optional<Relationship> learned_rel);

  /// Rewrite `attrs` for eBGP export: strip LOCAL_PREF and MED.
  static void rewrite_export(PathAttributes& attrs);
};

}  // namespace bgpsdn::bgp
