// Routing Information Bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.
//
// Mirrors the Quagga/RFC 4271 structure: per-peer inbound tables feed the
// decision process, the Loc-RIB holds winners, and per-peer outbound tables
// record what was advertised so update generation can be delta-based.
//
// Storage is one slab layout: flat open-addressing tables keyed by prefix
// whose cells index into shared slabs. An Adj-RIB-In candidate costs 16
// bytes (session, attr-registry index, installed-at) because the prefix
// lives in the table key, the peer tiebreak identity in a per-session side
// table and the attribute bundle in the simulation's refcounted
// AttrRegistry (bgp/attr_intern.hpp); Adj-RIB-Out keeps one row per prefix
// with a per-peer column of attr indices shared across all peers of the
// router (RibOutStore).
//
// The decision process reads the Adj-RIB-In in place: for_each_candidate
// hands out RouteViews (bundle and tiebreak inputs, no refcount touched),
// and the one put() per imported NLRI both stores the candidate and says
// what changed. The decision installs its winning view into the Loc-RIB
// with one probe (LocRib::install compares the entry in place); Route is
// the Loc-RIB's read value, which LocRib::find() builds in a scratch slot.
//
// Iteration order and tie-break semantics are those of plain ordered maps:
// candidates visit in session-ascending order, and whole-table walks
// (for_each, prefixes, erase_session) are in sorted-prefix order. The
// std::map model in tests/bgp/rib_oracle.hpp is the oracle the tests diff
// against. Every RIB tracks a deterministic peak-byte figure
// (core/mem_stats.hpp model) without touching OS RSS.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bgp/attr_intern.hpp"
#include "bgp/path_attributes.hpp"
#include "core/ids.hpp"
#include "core/mem_stats.hpp"
#include "core/time.hpp"
#include "net/ip.hpp"

namespace bgpsdn::bgp {

/// What the decision process compares of one candidate: its bundle and
/// tiebreak inputs, without the prefix. A stored Adj-RIB-In candidate, the
/// local route and a Route each yield one without touching a refcount. It
/// reads its source in place, so it is valid only while that source and
/// the attribute store are unchanged.
struct RouteView {
  /// Null only in a view of no route.
  const AttrSetRef* attributes{nullptr};
  core::SessionId learned_from{core::SessionId::invalid()};
  net::Ipv4Addr peer_bgp_id;
  net::Ipv4Addr peer_address;
  core::TimePoint installed_at;
};

/// One candidate route for one prefix. Attributes are an interned handle:
/// every route carrying the same bundle shares one canonical instance.
struct Route {
  net::Prefix prefix;
  AttrSetRef attributes;
  /// Session the route was learned from; invalid for locally-originated.
  core::SessionId learned_from{core::SessionId::invalid()};
  /// Decision-process tiebreak inputs.
  net::Ipv4Addr peer_bgp_id;
  net::Ipv4Addr peer_address;
  core::TimePoint installed_at;

  bool is_local() const { return !learned_from.is_valid(); }
  RouteView view() const {
    return {&attributes, learned_from, peer_bgp_id, peer_address, installed_at};
  }
};

namespace detail {

/// Open-addressing hash table keyed by prefix, the RIBs' index structure.
/// Linear probing with backshift deletion (no tombstones), power-of-two
/// capacity, 70% max load. V supplies the free-slot sentinel via
/// V::empty()/is_empty(); a stored value must never equal the sentinel.
/// Iteration via scan() is in table order — callers that emit must go
/// through sorted_keys() instead.
template <typename V>
class PrefixTable {
 public:
  const V* find(const net::Prefix& key) const {
    if (size_ == 0) return nullptr;
    std::size_t i = slot_hash(key) & mask_;
    while (!cells_[i].value.is_empty()) {
      if (cells_[i].key == key) return &cells_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  V* find(const net::Prefix& key) {
    return const_cast<V*>(std::as_const(*this).find(key));
  }

  /// Insert or overwrite. `value` must not be the empty sentinel.
  void put(const net::Prefix& key, V value) {
    if (cells_.empty() || (size_ + 1) * 10 > cells_.size() * 7) grow();
    std::size_t i = slot_hash(key) & mask_;
    while (!cells_[i].value.is_empty()) {
      if (cells_[i].key == key) {
        cells_[i].value = value;
        return;
      }
      i = (i + 1) & mask_;
    }
    cells_[i].key = key;
    cells_[i].value = value;
    ++size_;
  }

  bool erase(const net::Prefix& key) {
    if (size_ == 0) return false;
    std::size_t i = slot_hash(key) & mask_;
    while (!cells_[i].value.is_empty() && !(cells_[i].key == key)) {
      i = (i + 1) & mask_;
    }
    if (cells_[i].value.is_empty()) return false;
    // Backshift: pull later entries of the probe chain over the hole so
    // lookups never need tombstones.
    std::size_t hole = i;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (cells_[j].value.is_empty()) break;
      const std::size_t ideal = slot_hash(cells_[j].key) & mask_;
      if (((j - ideal) & mask_) >= ((j - hole) & mask_)) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole] = Cell{};
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }

  /// Visit every occupied cell in table order (hash order: internal
  /// bookkeeping only, never for emission).
  template <typename Fn>
  void scan(Fn&& fn) const {
    for (const auto& cell : cells_) {
      if (!cell.value.is_empty()) fn(cell.key, cell.value);
    }
  }

  /// Mutable scan: values by reference, same table order. Values may be
  /// rewritten but must stay non-empty; keys must not change.
  template <typename Fn>
  void scan_mut(Fn&& fn) {
    for (auto& cell : cells_) {
      if (!cell.value.is_empty()) fn(cell.key, cell.value);
    }
  }

  std::vector<net::Prefix> sorted_keys() const {
    std::vector<net::Prefix> keys;
    keys.reserve(size_);
    scan([&](const net::Prefix& key, const V&) { keys.push_back(key); });
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  std::uint64_t slot_bytes() const {
    return static_cast<std::uint64_t>(cells_.size()) * sizeof(Cell);
  }

 private:
  struct Cell {
    net::Prefix key{};
    V value{V::empty()};
  };

  static std::size_t slot_hash(const net::Prefix& p) {
    // splitmix64 finalizer: std::hash<Prefix> is identity-like and the
    // allocator hands out prefixes with zero low network bits, which would
    // cluster catastrophically under power-of-two masking.
    std::uint64_t x = (std::uint64_t{p.network().bits()} << 8) | p.length();
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }

  void grow() {
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(old.empty() ? 16 : old.size() * 2, Cell{});
    mask_ = cells_.size() - 1;
    size_ = 0;
    for (const auto& cell : old) {
      if (cell.value.is_empty()) continue;
      std::size_t i = slot_hash(cell.key) & mask_;
      while (!cells_[i].value.is_empty()) i = (i + 1) & mask_;
      cells_[i] = cell;
      ++size_;
    }
  }

  std::vector<Cell> cells_;
  std::size_t mask_{0};
  std::size_t size_{0};
};

/// Peer identity shared by every stored entry learned from one session,
/// refcounted by the number of entries referencing it.
struct SessionInfo {
  std::uint32_t session;
  std::uint32_t bgp_id;
  std::uint32_t address;
  std::uint32_t routes;
};

/// Session-ascending side table of SessionInfo; linear-scanned via
/// lower_bound (routers have few peers).
class SessionTable {
 public:
  SessionInfo* find(std::uint32_t session) {
    return const_cast<SessionInfo*>(std::as_const(*this).find(session));
  }
  const SessionInfo* find(std::uint32_t session) const;

  /// Count one more entry for `session`, inserting it and refreshing the
  /// identity fields (peer identity is constant per session in practice;
  /// last-writer-wins keeps the table in step with the newest route).
  void add(std::uint32_t session, std::uint32_t bgp_id, std::uint32_t address);
  /// Count one entry less; the session is removed at zero.
  void drop(std::uint32_t session);

  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(infos_.size()) * sizeof(SessionInfo);
  }

 private:
  std::vector<SessionInfo> infos_;
};

}  // namespace detail

/// Inbound routes, indexed prefix-first so the decision process can see all
/// candidates for a prefix at once. Candidates for a prefix are kept in
/// session-ascending order, so iteration (and thus any residual tie
/// behaviour) is deterministic.
class AdjRibIn {
 public:
  /// `attrs` is the simulation's attribute store (never null).
  explicit AdjRibIn(AttrRegistryRef attrs);

  /// What put() did with the offered candidate.
  enum class PutResult : std::uint8_t {
    /// The session's stored bundle from the same peer identity: nothing
    /// changed.
    kUnchanged,
    /// The stored bundle from a changed peer identity: the identity was
    /// updated and the candidate kept its installed-at.
    kNewIdentity,
    /// A different bundle replaced the session's candidate.
    kReplaced,
    /// The session had no candidate for the prefix.
    kAdded,
  };

  /// Offer `route` as its session's candidate for `prefix` (implicit
  /// withdraw semantics); `route.installed_at` is the time of the offer.
  /// A re-announcement of the stored bundle is not a change: the candidate
  /// keeps its installed-at, so the decision process still sees it as the
  /// older route.
  PutResult put(const net::Prefix& prefix, const RouteView& route);

  /// Remove the route for (prefix, session). Returns true if present.
  bool erase(const net::Prefix& prefix, core::SessionId session);

  /// Drop everything learned from a session (session reset). Returns the
  /// affected prefixes in sorted order.
  std::vector<net::Prefix> erase_session(core::SessionId session);

  /// Visit the candidates for one prefix, session-ascending, each as a view
  /// read in place from the slab: the decision process runs per prefix on
  /// every received update and builds no Route. A view is valid until the
  /// next change to this RIB or to the attribute store.
  template <typename Fn>
  void for_each_candidate(const net::Prefix& prefix, Fn&& fn) const {
    const InSpan* span = spans_.find(prefix);
    if (span == nullptr) return;
    for (std::uint16_t i = 0; i < span->size; ++i) {
      fn(view(slab_[span->offset + i]));
    }
  }

  std::size_t route_count() const;
  /// All prefixes with at least one candidate, sorted.
  std::vector<net::Prefix> prefixes() const;

  /// Deterministic high-water footprint (core/mem_stats.hpp model).
  std::uint64_t peak_bytes() const { return peak_bytes_; }

 private:
  /// One candidate: 16 bytes. The prefix is the table key, the peer
  /// tiebreak identity lives in the per-session side table, the attribute
  /// bundle in the refcounted side table.
  struct Candidate {
    std::uint32_t session;
    std::uint32_t attr;
    std::int64_t installed_ns;
  };
  /// Per-prefix slice of the candidate slab; capacity is a power of two.
  struct InSpan {
    std::uint32_t offset{0};
    std::uint16_t size{0};
    std::uint16_t capacity{0};
    static InSpan empty() { return {}; }
    bool is_empty() const { return capacity == 0; }
  };

  bool erase_candidate(const net::Prefix& prefix, std::uint32_t session);
  std::uint32_t alloc_span(std::uint16_t capacity);
  void free_span(std::uint32_t offset, std::uint16_t capacity);
  /// Rebuild the slab tightly (spans packed, free lists emptied) once dead
  /// span slots from the grow-by-doubling churn exceed a third of it.
  void maybe_defrag();
  RouteView view(const Candidate& c) const;
  std::uint64_t current_bytes() const;
  void note_usage();

  detail::PrefixTable<InSpan> spans_;
  std::vector<Candidate> slab_;
  /// Free spans by log2(capacity).
  std::vector<std::vector<std::uint32_t>> free_spans_;
  /// Total slots sitting on free_spans_ (the defrag trigger).
  std::size_t free_slots_{0};
  AttrRegistryRef attrs_;
  detail::SessionTable sessions_;
  std::size_t count_{0};
  std::uint64_t peak_bytes_{0};
};

/// The selected best route per prefix.
class LocRib {
 public:
  explicit LocRib(AttrRegistryRef attrs);

  /// Install `best` as the winner of `prefix`, in one table probe: an entry
  /// that already holds the same bundle from the same session is no
  /// change. Returns the installed canonical bundle (alive while it is the
  /// winner), or nullptr when nothing changed. `best` may read the
  /// attribute store in place; it is not read once the bundle is acquired.
  const PathAttributes* install(const net::Prefix& prefix,
                                const RouteView& best);

  /// Remove the entry. Returns true if present.
  bool remove(const net::Prefix& prefix);

  /// The winner, or nullptr. The pointer refers to a scratch slot valid
  /// until the next LocRib call.
  const Route* find(const net::Prefix& prefix) const;

  /// What export needs of a winner: its canonical attribute bundle (null
  /// when the prefix has none) and the session it was learned from
  /// (invalid for a local route).
  struct WinnerKey {
    const PathAttributes* attrs{nullptr};
    core::SessionId learned_from{core::SessionId::invalid()};
  };
  /// The winner's key, read from the entry without materializing a Route.
  /// The bundle stays alive while it is the winner. Unlike find(), it
  /// leaves the scratch slot alone, so it pins no bundle and touches no
  /// refcount.
  WinnerKey winner(const net::Prefix& prefix) const;
  std::size_t size() const;
  /// Installed prefixes, sorted.
  std::vector<net::Prefix> prefixes() const;

  /// Visit every installed route in sorted-prefix order. The Route& is only
  /// valid for the duration of the call.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& prefix : prefixes()) fn(*find(prefix));
  }

  /// Bumped on every change; convergence checks compare generations.
  std::uint64_t generation() const { return generation_; }

  std::uint64_t peak_bytes() const { return peak_bytes_; }

 private:
  /// One winner: 16 bytes + the 8-byte prefix key in the table cell.
  /// The peer tiebreak identity lives in the per-session side table, the
  /// attribute bundle in the shared registry.
  struct LocEntry {
    std::uint32_t attr{AttrRegistry::kNone};
    std::uint32_t session{0};
    std::int64_t installed_ns{0};
    static LocEntry empty() { return {}; }
    bool is_empty() const { return attr == AttrRegistry::kNone; }
  };

  std::uint64_t current_bytes() const;
  void note_usage();

  detail::PrefixTable<LocEntry> table_;
  AttrRegistryRef attrs_;
  detail::SessionTable sessions_;
  /// find()'s result. It holds a reference to the last bundle found, so
  /// mem.attr_pool counts that bundle while it stays here.
  mutable Route scratch_;
  std::uint64_t generation_{0};
  std::uint64_t peak_bytes_{0};
};

/// Shared advertised-state store for all Adj-RIBs-Out of one router: one
/// row per prefix holding a per-peer column of
/// 4-byte attr-table indices: N peers cost 4N bytes per advertised prefix
/// plus one shared table cell, instead of N hash nodes. Each AdjRibOut
/// facade owns one column.
class RibOutStore {
 public:
  explicit RibOutStore(AttrRegistryRef attrs);

  /// Register one more peer; returns its column ordinal.
  std::uint16_t add_column();
  std::uint16_t columns() const { return columns_; }

  bool advertise(std::uint16_t col, const net::Prefix& prefix,
                 const AttrSetRef& attrs);
  bool withdraw(std::uint16_t col, const net::Prefix& prefix);
  const AttrSetRef* advertised(std::uint16_t col,
                               const net::Prefix& prefix) const;
  std::size_t size(std::uint16_t col) const;
  void clear(std::uint16_t col);
  /// Advertised prefixes of one column, sorted.
  std::vector<net::Prefix> prefixes(std::uint16_t col) const;

  std::uint64_t peak_bytes() const { return peak_bytes_; }

 private:
  static constexpr std::uint32_t kNone = AttrRegistry::kNone;

  /// Row of per-column attr indices in the slab; width is the column count
  /// at allocation (rows are widened lazily when peers are added late).
  struct OutSpan {
    std::uint32_t offset{0};
    std::uint32_t width{0};
    static OutSpan empty() { return {}; }
    bool is_empty() const { return width == 0; }
  };

  std::uint32_t alloc_row(std::uint32_t width);
  OutSpan* widen_row(OutSpan* span);
  void maybe_drop_row(const net::Prefix& prefix);
  std::uint64_t current_bytes() const;
  void note_usage();

  std::uint16_t columns_{0};

  detail::PrefixTable<OutSpan> spans_;
  std::vector<std::uint32_t> slab_;
  /// Free rows by width (widths vary only when peers are added mid-run).
  std::map<std::uint32_t, std::vector<std::uint32_t>> free_rows_;
  AttrRegistryRef attrs_;
  std::vector<std::size_t> col_size_;
  std::uint64_t peak_bytes_{0};
};

/// What has been advertised to one peer, for delta-based update generation.
/// A thin facade over one RibOutStore column: routers hand every peer a
/// column of their shared store; standalone uses (speaker slots, tests) own
/// a single-column store over the simulation's attribute store.
class AdjRibOut {
 public:
  explicit AdjRibOut(AttrRegistryRef attrs)
      : owned_{std::make_unique<RibOutStore>(std::move(attrs))},
        store_{owned_.get()},
        column_{store_->add_column()} {}
  explicit AdjRibOut(RibOutStore& store)
      : store_{&store}, column_{store.add_column()} {}

  AdjRibOut(AdjRibOut&&) = default;
  AdjRibOut& operator=(AdjRibOut&&) = default;

  /// Record an advertisement; returns false if identical attributes were
  /// already advertised (update suppressed).
  bool advertise(const net::Prefix& prefix, const AttrSetRef& attrs) {
    return store_->advertise(column_, prefix, attrs);
  }

  /// Record a withdrawal; returns false if nothing was advertised.
  bool withdraw(const net::Prefix& prefix) {
    return store_->withdraw(column_, prefix);
  }

  /// The advertised bundle, or nullptr. The pointer is valid until the next
  /// mutation of any column of the owning store.
  const AttrSetRef* advertised(const net::Prefix& prefix) const {
    return store_->advertised(column_, prefix);
  }

  std::size_t size() const { return store_->size(column_); }
  void clear() { store_->clear(column_); }
  /// Advertised prefixes, sorted.
  std::vector<net::Prefix> prefixes() const {
    return store_->prefixes(column_);
  }

  /// Peak bytes of the private store; zero for store-backed facades (the
  /// shared store is accounted once by its owner).
  std::uint64_t peak_bytes() const {
    return owned_ != nullptr ? owned_->peak_bytes() : 0;
  }

 private:
  std::unique_ptr<RibOutStore> owned_;
  RibOutStore* store_;
  std::uint16_t column_;
};

}  // namespace bgpsdn::bgp
