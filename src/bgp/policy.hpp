// Import/export policy: the "BGP policy templates" the framework configures.
//
// Two modes cover the paper's topologies:
//  * kFullTransit — every AS re-exports its best route to every peer
//    (the clique experiments: all ASes provide transit).
//  * kGaoRexford  — valley-free routing from CAIDA-style relationships:
//    customer routes go to everyone; peer/provider routes only to customers.
// Prefix filters and a route-map hook cover bespoke experiment policies.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "bgp/rib.hpp"
#include "bgp/types.hpp"
#include "net/ip.hpp"

namespace bgpsdn::bgp {

enum class PolicyMode { kFullTransit, kGaoRexford };

/// Per-peer policy configuration.
struct PeerPolicy {
  PolicyMode mode{PolicyMode::kFullTransit};
  Relationship relationship{Relationship::kPeer};
  /// Import LOCAL_PREF override; defaults from the relationship in
  /// Gao-Rexford mode, 100 in full-transit mode.
  std::optional<std::uint32_t> local_pref;
  /// Prefixes rejected on import / never exported.
  std::vector<net::Prefix> import_deny;
  std::vector<net::Prefix> export_deny;
  /// Extra copies of the local AS prepended on export towards this peer —
  /// the standard way to de-prefer a backup link. 0 = no prepending (the
  /// router's single mandatory prepend happens regardless).
  std::uint8_t prepend{0};
  /// Route-map hooks: may rewrite attributes; return false to reject. The
  /// router runs the import map once per UPDATE, on the shared bundle.
  std::function<bool(PathAttributes&)> import_map;
  std::function<bool(PathAttributes&)> export_map;
};

class PolicyEngine {
 public:
  /// The import filter alone: whether a route for `prefix` from a peer with
  /// `policy` passes `import_deny`. Reads no attributes, so it can run per
  /// NLRI while the bundle is rewritten once per UPDATE.
  static bool import_allowed(const PeerPolicy& policy, const net::Prefix& prefix);

  /// Rewrite `attrs` on import from a peer with `policy`: set LOCAL_PREF,
  /// then run the import map. Returns false when the import map rejects
  /// the route (never without one).
  static bool rewrite_import(const PeerPolicy& policy, PathAttributes& attrs);

  /// import_allowed() then rewrite_import(): apply import policy to a route
  /// received from a peer with `policy`. Returns false if the route is
  /// rejected.
  static bool apply_import(const PeerPolicy& policy, const net::Prefix& prefix,
                           PathAttributes& attrs);

  /// The export filters alone: whether a route for `prefix` (best in
  /// Loc-RIB, learned via a session whose relationship is `learned_rel`,
  /// or locally originated when nullopt) passes `export_deny` and the
  /// valley-free rule towards a peer with `policy`. Reads no attributes
  /// and allocates nothing, so it can run for every peer on every
  /// best-path change; the export map is not consulted.
  static bool export_allowed(const PeerPolicy& policy,
                             std::optional<Relationship> learned_rel,
                             const net::Prefix& prefix);

  /// Rewrite `attrs` for export to a peer with `policy`: strip
  /// LOCAL_PREF/MED, apply prepending with `local_as`, run the export
  /// map. Returns false when the export map rejects the route.
  static bool rewrite_export(const PeerPolicy& policy, PathAttributes& attrs,
                             core::AsNumber local_as = core::AsNumber{0});

  /// export_allowed() then rewrite_export(): decide whether the route may
  /// be exported and, if so, rewrite `attrs` for export. Returns false to
  /// suppress.
  static bool apply_export(const PeerPolicy& policy,
                           std::optional<Relationship> learned_rel,
                           const net::Prefix& prefix, PathAttributes& attrs,
                           core::AsNumber local_as = core::AsNumber{0});

 private:
  static bool denied(const std::vector<net::Prefix>& deny, const net::Prefix& p);
};

}  // namespace bgpsdn::bgp
