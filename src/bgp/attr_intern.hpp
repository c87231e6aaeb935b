// Path-attribute interning (the Quagga `attrhash` idea).
//
// A converged emulation carries the same attribute bundle in many places at
// once: every NLRI of an UPDATE, every Adj-RIB-In entry it produced, the
// Loc-RIB winner, per-peer Adj-RIBs-Out, the speaker's relay RIBs, and the
// IDR controller's external RIB. Storing `PathAttributes` by value copies
// the AS-path and community vectors at each of those hops. AttrSetRef
// replaces the copies with one immutable, refcounted canonical bundle per
// distinct attribute set, interned in a per-thread pool:
//
//  - Lifetime: the pool holds weak references. A bundle lives exactly as
//    long as some RIB/message still points at it; intern() revives the
//    canonical instance while any holder survives, and expired pool entries
//    are swept lazily (amortized O(1) per intern).
//  - The pool is thread_local: parallel trials each run an independent
//    simulation on one worker thread, so no locks and no cross-trial
//    canonical sharing (determinism does not depend on pool state either
//    way — equality falls back to value comparison).
//  - Mutation is copy-on-write by construction: to change attributes, copy
//    the bundle out (`PathAttributes a = *ref`), edit, re-intern.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "bgp/path_attributes.hpp"

namespace bgpsdn::bgp {

/// Hash of a full attribute bundle (all fields that participate in
/// PathAttributes::operator==).
std::size_t hash_value(const PathAttributes& attrs);

/// Shared, immutable handle to a canonical PathAttributes. Never null:
/// default-constructed refs point at the shared default bundle.
class AttrSetRef {
 public:
  AttrSetRef();

  /// The canonical handle for `attrs`: returns the pooled instance when one
  /// is alive, otherwise adopts `attrs` as the new canonical bundle.
  static AttrSetRef intern(PathAttributes attrs);

  const PathAttributes& operator*() const { return *ptr_; }
  const PathAttributes* operator->() const { return ptr_.get(); }
  const PathAttributes& get() const { return *ptr_; }

  /// True when both handles share one canonical bundle (pointer identity).
  bool same_set(const AttrSetRef& other) const { return ptr_ == other.ptr_; }

  /// Value equality with a pointer-identity fast path. Correctness never
  /// depends on interning: two refs with equal bundles compare equal even
  /// if they were interned on different threads.
  bool operator==(const AttrSetRef& other) const {
    return ptr_ == other.ptr_ || *ptr_ == *other.ptr_;
  }
  bool operator==(const PathAttributes& value) const { return *ptr_ == value; }

 private:
  explicit AttrSetRef(std::shared_ptr<const PathAttributes> ptr)
      : ptr_{std::move(ptr)} {}

  std::shared_ptr<const PathAttributes> ptr_;
};

/// Introspection for tests and diagnostics (this thread's pool).
struct AttrPoolStats {
  /// Pool entries, including not-yet-swept expired ones.
  std::size_t entries{0};
  /// Entries whose bundle is still referenced somewhere.
  std::size_t live{0};
  std::uint64_t interns{0};
  /// intern() calls resolved to an existing canonical bundle.
  std::uint64_t hits{0};
  std::uint64_t purges{0};
};
AttrPoolStats attr_pool_stats();

/// Deterministic bytes held by this thread's live canonical bundles
/// (core/mem_stats.hpp allocation model; element counts, not capacities, so
/// the figure depends only on the simulated workload).
std::uint64_t attr_pool_live_bytes();

/// Sweep expired entries now. framework::Experiment calls this when it is
/// destroyed, so one experiment's dead bundles do not outlive it; within a
/// run the amortized lazy sweep applies.
void attr_pool_purge();

}  // namespace bgpsdn::bgp
