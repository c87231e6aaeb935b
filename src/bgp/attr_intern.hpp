// Path-attribute interning (the Quagga `attrhash` idea) and the attribute
// store that owns it.
//
// A converged emulation carries the same attribute bundle in many places at
// once: every NLRI of an UPDATE, every Adj-RIB-In entry it produced, the
// Loc-RIB winner, per-peer Adj-RIBs-Out, the speaker's relay RIBs, and the
// IDR controller's external RIB. Storing `PathAttributes` by value copies
// the AS-path and community vectors at each of those hops. AttrSetRef
// replaces the copies with one immutable, refcounted canonical bundle per
// distinct attribute set, interned in the simulation's AttrRegistry:
//
//  - Lifetime: the registry's pool holds weak references. A bundle lives
//    exactly as long as some RIB/message still points at it; intern()
//    revives the canonical instance while any holder survives, and expired
//    pool entries are swept lazily (amortized O(1) per intern).
//  - Ownership: each simulation owns one store, so the pool dies with its
//    simulation and parallel trials share nothing. Determinism does not
//    depend on pool state either way: equality falls back to value
//    comparison.
//  - Mutation is copy-on-write by construction: to change attributes, copy
//    the bundle out (`PathAttributes a = *ref`), edit, re-intern.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bgp/path_attributes.hpp"

namespace bgpsdn::bgp {

/// Hash of a full attribute bundle (all fields that participate in
/// PathAttributes::operator==).
std::size_t hash_value(const PathAttributes& attrs);

/// Shared, immutable handle to a canonical PathAttributes. Never null:
/// default-constructed refs point at one immutable process-wide default
/// bundle without a control block, so copying them touches no counter.
class AttrSetRef {
 public:
  AttrSetRef();

  const PathAttributes& operator*() const { return *ptr_; }
  const PathAttributes* operator->() const { return ptr_.get(); }
  const PathAttributes& get() const { return *ptr_; }

  /// True when both handles share one canonical bundle (pointer identity).
  bool same_set(const AttrSetRef& other) const { return ptr_ == other.ptr_; }

  /// Value equality with a pointer-identity fast path. Correctness never
  /// depends on interning: two refs with equal bundles compare equal even
  /// if they were interned in different stores.
  bool operator==(const AttrSetRef& other) const {
    return ptr_ == other.ptr_ || *ptr_ == *other.ptr_;
  }
  bool operator==(const PathAttributes& value) const {
    return ptr_.get() == &value || *ptr_ == value;
  }

 private:
  friend class AttrRegistry;
  explicit AttrSetRef(std::shared_ptr<const PathAttributes> ptr)
      : ptr_{std::move(ptr)} {}

  std::shared_ptr<const PathAttributes> ptr_;
};

/// Introspection of a registry's intern pool, for tests and diagnostics.
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

/// The simulation's one attribute store: the intern pool of canonical
/// bundles, plus a refcounted handle registry the RIBs store 4-byte indices
/// into instead of 16-byte AttrSetRef handles per entry. Registry entries
/// are deduplicated by canonical-bundle address, which interning makes a
/// value key within the store.
///
/// One store is shared by every RIB of a simulation, so a bundle referenced
/// from thousands of RIB entries pays one handle entry network-wide. The
/// index footprint therefore scales with distinct bundles, not with
/// (prefix x peer) entries, and is accounted by its owner as
/// mem.attr_registry, never inside RIB peak bytes; the live bundles are
/// mem.attr_pool.
///
/// The dedup index is open addressing over entry ids: a pointer-keyed
/// unordered_map node costs ~7x the 4-byte slot. Pointer values hash the
/// probe order, which is invisible to callers; slot counts depend only on
/// the acquire/release sequence, so bytes() stays deterministic.
class AttrRegistry {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// The canonical handle for `attrs`: returns the pooled instance when one
  /// is alive, otherwise adopts `attrs` as the new canonical bundle.
  AttrSetRef intern(PathAttributes attrs);

  /// Index for `ref`, refcount +1.
  std::uint32_t acquire(const AttrSetRef& ref);
  /// Refcount +1 on an index already held.
  void retain(std::uint32_t index) { ++entries_[index].refs; }
  /// Refcount -1; frees the slot (and the bundle reference) at zero.
  void release(std::uint32_t index);

  const AttrSetRef& at(std::uint32_t index) const {
    return entries_[index].ref;
  }

  /// Live (referenced) entries.
  std::size_t size() const { return live_; }
  /// Deterministic footprint (core/mem_stats.hpp model) of the handle
  /// index: the entry slab plus the open-addressing id index.
  std::uint64_t bytes() const;

  AttrPoolStats pool_stats() const;
  /// Deterministic bytes held by the pool's live canonical bundles
  /// (core/mem_stats.hpp model; element counts, not capacities, so the
  /// figure depends only on the simulated workload).
  std::uint64_t pool_live_bytes() const;

 private:
  struct Entry {
    AttrSetRef ref{};
    std::uint32_t refs{0};
  };

  void grow();
  void sweep_pool();

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_;
  /// Open-addressing dedup index: slots hold entry ids (kNone = empty),
  /// keyed by the canonical bundle address of the entry's ref. Linear
  /// probing with backshift deletion, 70% max load.
  std::vector<std::uint32_t> slots_;
  std::size_t slot_mask_{0};
  std::size_t live_{0};

  /// Below this many entries the pool is never swept.
  static constexpr std::size_t kPurgeFloor = 64;

  /// The intern pool: weak references keyed by bundle hash.
  std::unordered_multimap<std::size_t, std::weak_ptr<const PathAttributes>>
      pool_;
  /// Sweep the pool when it reaches this size; doubled after each sweep so
  /// the cost amortizes to O(1) per intern.
  std::size_t purge_threshold_{kPurgeFloor};
  std::uint64_t interns_{0};
  std::uint64_t hits_{0};
  std::uint64_t purges_{0};
};

using AttrRegistryRef = std::shared_ptr<AttrRegistry>;

}  // namespace bgpsdn::bgp
