#include "bgp/decision.hpp"

namespace bgpsdn::bgp {

namespace {

constexpr std::uint32_t kDefaultLocalPref = 100;

std::uint32_t local_pref_of(const PathAttributes& a) {
  return a.local_pref.value_or(kDefaultLocalPref);
}

std::uint32_t med_of(const PathAttributes& a) {
  // Missing MED is treated as the best (0), Quagga's default.
  return a.med.value_or(0);
}

template <typename T>
int cmp(T a, T b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

}  // namespace

int compare_routes(const RouteView& a, const RouteView& b) {
  const PathAttributes& x = a.attributes->get();
  const PathAttributes& y = b.attributes->get();
  // 1. LOCAL_PREF, higher wins.
  if (const int c = cmp(local_pref_of(y), local_pref_of(x))) return c;
  // 2. AS_PATH length, shorter wins.
  if (const int c = cmp(x.as_path.length(), y.as_path.length())) return c;
  // 3. ORIGIN, lower wins.
  if (const int c = cmp(static_cast<int>(x.origin), static_cast<int>(y.origin)))
    return c;
  // 4. MED, lower wins.
  if (const int c = cmp(med_of(x), med_of(y))) return c;
  // 5. Older route wins (stability).
  if (const int c = cmp(a.installed_at, b.installed_at)) return c;
  // 6. Lower peer BGP id wins.
  if (const int c = cmp(a.peer_bgp_id, b.peer_bgp_id)) return c;
  // 7. Lower peer address wins.
  return cmp(a.peer_address, b.peer_address);
}

}  // namespace bgpsdn::bgp
