#include "bgp/policy.hpp"

namespace bgpsdn::bgp {

void PolicyEngine::rewrite_import(const PeerPolicy& policy, PathAttributes& attrs) {
  attrs.local_pref = policy.mode == PolicyMode::kGaoRexford
                         ? default_local_pref(policy.relationship)
                         : 100;
}

// lint: hotpath(the export filter runs for every peer on every best-path
// change, ahead of any attribute copy)
bool PolicyEngine::export_allowed(const PeerPolicy& policy,
                                  std::optional<Relationship> learned_rel) {
  if (policy.mode == PolicyMode::kGaoRexford && learned_rel.has_value()) {
    // Valley-free rule: a route learned from a peer or provider is only
    // exported to customers. Customer routes and local routes go everywhere.
    const bool from_customer = *learned_rel == Relationship::kCustomer;
    const bool to_customer = policy.relationship == Relationship::kCustomer;
    if (!from_customer && !to_customer) return false;
  }
  return true;
}

void PolicyEngine::rewrite_export(PathAttributes& attrs) {
  // eBGP export: LOCAL_PREF is not sent; MED is not propagated to third
  // parties (we simply drop it, as all our sessions are eBGP).
  attrs.local_pref.reset();
  attrs.med.reset();
}

}  // namespace bgpsdn::bgp
