#include "bgp/policy.hpp"

namespace bgpsdn::bgp {

bool PolicyEngine::denied(const std::vector<net::Prefix>& deny,
                          const net::Prefix& p) {
  for (const auto& d : deny) {
    if (d.contains(p)) return true;
  }
  return false;
}

bool PolicyEngine::import_allowed(const PeerPolicy& policy,
                                  const net::Prefix& prefix) {
  return !denied(policy.import_deny, prefix);
}

bool PolicyEngine::rewrite_import(const PeerPolicy& policy, PathAttributes& attrs) {
  if (policy.local_pref) {
    attrs.local_pref = *policy.local_pref;
  } else if (policy.mode == PolicyMode::kGaoRexford) {
    attrs.local_pref = default_local_pref(policy.relationship);
  } else {
    attrs.local_pref = 100;
  }
  return !policy.import_map || policy.import_map(attrs);
}

bool PolicyEngine::apply_import(const PeerPolicy& policy, const net::Prefix& prefix,
                                PathAttributes& attrs) {
  return import_allowed(policy, prefix) && rewrite_import(policy, attrs);
}

// lint: hotpath(the export filters run for every peer on every best-path
// change, ahead of any attribute copy)
bool PolicyEngine::export_allowed(const PeerPolicy& policy,
                                  std::optional<Relationship> learned_rel,
                                  const net::Prefix& prefix) {
  if (denied(policy.export_deny, prefix)) return false;
  if (policy.mode == PolicyMode::kGaoRexford && learned_rel.has_value()) {
    // Valley-free rule: a route learned from a peer or provider is only
    // exported to customers. Customer routes and local routes go everywhere.
    const bool from_customer = *learned_rel == Relationship::kCustomer;
    const bool to_customer = policy.relationship == Relationship::kCustomer;
    if (!from_customer && !to_customer) return false;
  }
  return true;
}

bool PolicyEngine::rewrite_export(const PeerPolicy& policy, PathAttributes& attrs,
                                  core::AsNumber local_as) {
  // eBGP export: LOCAL_PREF is not sent; MED is not propagated to third
  // parties (we simply drop it, as all our sessions are eBGP).
  attrs.local_pref.reset();
  attrs.med.reset();
  // Backup-link de-preference: extra prepends beyond the router's own
  // mandatory one (which the caller adds after this returns).
  if (local_as.value() != 0) {
    for (std::uint8_t i = 0; i < policy.prepend; ++i) {
      attrs.as_path = attrs.as_path.prepend(local_as);
    }
  }
  return !policy.export_map || policy.export_map(attrs);
}

bool PolicyEngine::apply_export(const PeerPolicy& policy,
                                std::optional<Relationship> learned_rel,
                                const net::Prefix& prefix, PathAttributes& attrs,
                                core::AsNumber local_as) {
  return export_allowed(policy, learned_rel, prefix) &&
         rewrite_export(policy, attrs, local_as);
}

}  // namespace bgpsdn::bgp
