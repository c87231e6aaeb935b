// Node-based model of the RIB API, the oracle the slab RIB (bgp/rib.hpp) is
// diffed against. Plain std::map containers hold whole Route values and
// AttrSetRef handles, so iteration order and change semantics are obvious
// by inspection. No memory model, no attribute registry, and only the
// calls the tests make.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "bgp/rib.hpp"

namespace bgpsdn::bgp::oracle {

/// Adj-RIB-In: prefix -> session -> route. A re-announcement of the stored
/// bundle keeps the route's installed-at; put() reports the case as the
/// slab's does.
class AdjRibIn {
 public:
  using PutResult = bgp::AdjRibIn::PutResult;

  PutResult put(const net::Prefix& prefix, const RouteView& offered) {
    Route route{prefix, *offered.attributes, offered.learned_from,
                offered.peer_bgp_id, offered.peer_address, offered.installed_at};
    auto& slot = by_prefix_[prefix];
    const auto it = slot.find(route.learned_from);
    if (it == slot.end()) {
      slot.emplace(route.learned_from, route);
      ++count_;
      return PutResult::kAdded;
    }
    Route& stored = it->second;
    if (stored.attributes == route.attributes) {
      if (stored.peer_bgp_id == route.peer_bgp_id &&
          stored.peer_address == route.peer_address) {
        return PutResult::kUnchanged;
      }
      route.installed_at = stored.installed_at;
      stored = route;
      return PutResult::kNewIdentity;
    }
    stored = route;
    return PutResult::kReplaced;
  }

  bool erase(const net::Prefix& prefix, core::SessionId session) {
    const auto it = by_prefix_.find(prefix);
    if (it == by_prefix_.end() || it->second.erase(session) == 0) {
      return false;
    }
    --count_;
    if (it->second.empty()) by_prefix_.erase(it);
    return true;
  }

  std::vector<net::Prefix> erase_session(core::SessionId session) {
    std::vector<net::Prefix> affected;
    for (const auto& prefix : prefixes()) {
      if (erase(prefix, session)) affected.push_back(prefix);
    }
    return affected;
  }

  std::vector<const Route*> candidates(const net::Prefix& prefix) const {
    std::vector<const Route*> out;
    const auto it = by_prefix_.find(prefix);
    if (it == by_prefix_.end()) return out;
    for (const auto& [session, route] : it->second) out.push_back(&route);
    return out;
  }

  std::vector<net::Prefix> prefixes() const {
    std::vector<net::Prefix> out;
    for (const auto& [prefix, slot] : by_prefix_) out.push_back(prefix);
    return out;
  }

  std::size_t route_count() const { return count_; }

 private:
  std::map<net::Prefix, std::map<core::SessionId, Route>> by_prefix_;
  std::size_t count_{0};
};

/// Loc-RIB: prefix -> winner. A reinstall with the same attributes from the
/// same session is not a change; a change returns the installed bundle.
class LocRib {
 public:
  const PathAttributes* install(const net::Prefix& prefix,
                                const RouteView& best) {
    const auto it = routes_.find(prefix);
    if (it != routes_.end() && it->second.attributes == *best.attributes &&
        it->second.learned_from == best.learned_from) {
      return nullptr;
    }
    Route& route = routes_[prefix];
    route = Route{prefix, *best.attributes, best.learned_from,
                  best.peer_bgp_id, best.peer_address, best.installed_at};
    ++generation_;
    return &route.attributes.get();
  }

  bool remove(const net::Prefix& prefix) {
    if (routes_.erase(prefix) == 0) return false;
    ++generation_;
    return true;
  }

  const Route* find(const net::Prefix& prefix) const {
    const auto it = routes_.find(prefix);
    return it == routes_.end() ? nullptr : &it->second;
  }

  std::size_t size() const { return routes_.size(); }

  std::vector<net::Prefix> prefixes() const {
    std::vector<net::Prefix> out;
    for (const auto& [prefix, route] : routes_) out.push_back(prefix);
    return out;
  }

  std::uint64_t generation() const { return generation_; }

 private:
  std::map<net::Prefix, Route> routes_;
  std::uint64_t generation_{0};
};

/// Adj-RIB-Out of every peer of one router: one prefix -> bundle map per
/// column, addressed like RibOutStore.
class RibOutStore {
 public:
  std::uint16_t add_column() {
    columns_.emplace_back();
    return static_cast<std::uint16_t>(columns_.size() - 1);
  }

  bool advertise(std::uint16_t col, const net::Prefix& prefix,
                 const AttrSetRef& attrs) {
    auto& advertised = columns_[col];
    const auto it = advertised.find(prefix);
    if (it != advertised.end() && it->second == attrs) return false;
    advertised[prefix] = attrs;
    return true;
  }

  bool withdraw(std::uint16_t col, const net::Prefix& prefix) {
    return columns_[col].erase(prefix) > 0;
  }

  const AttrSetRef* advertised(std::uint16_t col,
                               const net::Prefix& prefix) const {
    const auto it = columns_[col].find(prefix);
    return it == columns_[col].end() ? nullptr : &it->second;
  }

  std::size_t size(std::uint16_t col) const { return columns_[col].size(); }

  void clear(std::uint16_t col) { columns_[col].clear(); }

  std::vector<net::Prefix> prefixes(std::uint16_t col) const {
    std::vector<net::Prefix> out;
    for (const auto& [prefix, attrs] : columns_[col]) out.push_back(prefix);
    return out;
  }

 private:
  std::vector<std::map<net::Prefix, AttrSetRef>> columns_;
};

}  // namespace bgpsdn::bgp::oracle
