// PrefixSet — a sorted flat set of prefixes for per-peer dirty tracking.
//
// The router's per-peer queues (MRAI-pending and batch-dirty prefixes) are
// filled during a burst and drained whole at the next flush. A node-based
// std::set pays one heap node per insert and frees them all at the flush;
// this set keeps one sorted vector whose capacity survives clear(), so a
// steady-state burst allocates nothing. Iteration is ascending and
// membership exact, exactly as std::set<net::Prefix> would give.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "net/ip.hpp"

namespace bgpsdn::bgp {

class PrefixSet {
 public:
  using const_iterator = std::vector<net::Prefix>::const_iterator;

  /// Adds `prefix`; false when already present. Ascending inserts (the
  /// common case: Loc-RIB walks and sorted dirty sets) append in O(1).
  bool insert(const net::Prefix& prefix) {
    if (items_.empty() || items_.back() < prefix) {
      items_.push_back(prefix);
      return true;
    }
    const auto it = std::lower_bound(items_.begin(), items_.end(), prefix);
    if (*it == prefix) return false;
    items_.insert(it, prefix);
    return true;
  }

  /// Removes `prefix`; false when absent.
  bool erase(const net::Prefix& prefix) {
    const auto it = std::lower_bound(items_.begin(), items_.end(), prefix);
    if (it == items_.end() || *it != prefix) return false;
    items_.erase(it);
    return true;
  }

  /// Empties the set and keeps the buffer for the next burst.
  void clear() { items_.clear(); }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }

 private:
  std::vector<net::Prefix> items_;
};

}  // namespace bgpsdn::bgp
