// The BGP decision process (RFC 4271 §9.1.2, eBGP subset).
//
// Every AS is one router and all sessions are eBGP, so the IGP-cost and
// iBGP steps are vacuous; the remaining ladder matches Quagga:
//   1. highest LOCAL_PREF (import policy sets it from the relationship)
//   2. shortest AS_PATH
//   3. lowest ORIGIN (IGP < EGP < INCOMPLETE)
//   4. lowest MED (compared across all candidates — "always-compare-med")
//   5. oldest route (stability preference, like Quagga's best-path aging)
//   6. lowest peer BGP identifier
//   7. lowest peer address
#pragma once

#include "bgp/rib.hpp"

namespace bgpsdn::bgp {

/// Three-way comparison: negative if `a` is preferred, positive if `b` is,
/// zero only for fully tied candidates (which cannot happen for distinct
/// peers thanks to the address tiebreak).
int compare_routes(const RouteView& a, const RouteView& b);

}  // namespace bgpsdn::bgp
