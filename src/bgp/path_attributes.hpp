// BGP path attributes: AS_PATH and the attribute bundle carried by routes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/ids.hpp"
#include "bgp/types.hpp"
#include "net/ip.hpp"

namespace bgpsdn::bgp {

/// AS_PATH as a flat AS_SEQUENCE (sufficient for non-aggregated routing;
/// AS_SET only arises from aggregation, which the emulated ASes do not do).
class AsPath {
 public:
  AsPath() = default;
  explicit AsPath(std::vector<core::AsNumber> hops) : hops_{std::move(hops)} {}

  /// New path with `as` prepended (what an AS does when propagating).
  AsPath prepend(core::AsNumber as) const;

  bool contains(core::AsNumber as) const;
  std::size_t length() const { return hops_.size(); }
  bool empty() const { return hops_.empty(); }

  /// The neighbor that sent us the route (first hop), if any.
  std::optional<core::AsNumber> first() const;
  /// The origin AS (last hop), if any.
  std::optional<core::AsNumber> origin_as() const;

  const std::vector<core::AsNumber>& hops() const { return hops_; }

  bool operator==(const AsPath&) const = default;

  /// e.g. "3 2 1" (left = most recent hop).
  void append_to(std::string& out) const;
  std::string to_string() const;

 private:
  std::vector<core::AsNumber> hops_;
};

/// The attribute bundle of one route. LOCAL_PREF is kept here even on eBGP
/// routes because the emulation assigns it at import time and the decision
/// process reads it (matching how Quagga stores imported routes).
struct PathAttributes {
  Origin origin{Origin::kIgp};
  AsPath as_path;
  net::Ipv4Addr next_hop;
  std::optional<std::uint32_t> med;
  std::optional<std::uint32_t> local_pref;
  std::vector<std::uint32_t> communities;

  bool operator==(const PathAttributes&) const = default;

  /// e.g. "path=[3 2 1] nh=10.0.0.1 origin=IGP lp=100".
  void append_to(std::string& out) const;
  std::string to_string() const;
};

}  // namespace bgpsdn::bgp
