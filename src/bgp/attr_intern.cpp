#include "bgp/attr_intern.hpp"

#include <algorithm>
#include <utility>

#include "core/mem_stats.hpp"

namespace bgpsdn::bgp {

namespace {

/// What every default-constructed AttrSetRef points at: immutable, so one
/// instance serves every simulation.
const PathAttributes kDefaultAttributes{};

std::size_t attr_slot_hash(const PathAttributes* key) {
  // splitmix64 finalizer over the canonical bundle address. Heap addresses
  // differ across runs, which only steers the probe order — slot counts and
  // lookup results depend on the acquire/release sequence alone.
  auto x = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(key));
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

}  // namespace

std::size_t hash_value(const PathAttributes& attrs) {
  std::size_t h = static_cast<std::size_t>(attrs.origin);
  const auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const auto as : attrs.as_path.hops()) mix(as.value());
  mix(attrs.next_hop.bits());
  mix(attrs.med ? (std::uint64_t{1} << 32) | *attrs.med : 0);
  mix(attrs.local_pref ? (std::uint64_t{1} << 32) | *attrs.local_pref : 0);
  for (const auto c : attrs.communities) mix(c);
  return h;
}

// The aliasing constructor with an empty owner: a handle to the default
// bundle without a control block.
AttrSetRef::AttrSetRef()
    : ptr_{std::shared_ptr<const PathAttributes>{}, &kDefaultAttributes} {}

// ---------------------------------------------------------------------------
// Intern pool

AttrSetRef AttrRegistry::intern(PathAttributes attrs) {
  ++interns_;
  const std::size_t h = hash_value(attrs);
  const auto [lo, hi] = pool_.equal_range(h);
  for (auto it = lo; it != hi; ++it) {
    if (auto sp = it->second.lock(); sp != nullptr && *sp == attrs) {
      ++hits_;
      return AttrSetRef{std::move(sp)};
    }
  }
  auto sp = std::make_shared<const PathAttributes>(std::move(attrs));
  pool_.emplace(h, sp);
  if (pool_.size() >= purge_threshold_) sweep_pool();
  return AttrSetRef{std::move(sp)};
}

void AttrRegistry::sweep_pool() {
  std::erase_if(pool_, [](const auto& kv) { return kv.second.expired(); });
  purge_threshold_ = std::max(kPurgeFloor, pool_.size() * 2);
  ++purges_;
}

AttrPoolStats AttrRegistry::pool_stats() const {
  AttrPoolStats stats;
  stats.entries = pool_.size();
  for (const auto& [h, wp] : pool_) {
    if (!wp.expired()) ++stats.live;
  }
  stats.interns = interns_;
  stats.hits = hits_;
  stats.purges = purges_;
  return stats;
}

std::uint64_t AttrRegistry::pool_live_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& [h, wp] : pool_) {
    if (const auto sp = wp.lock(); sp != nullptr) {
      // Bundle plus its shared_ptr control block, then the heap arrays
      // behind the AS-path and community vectors.
      bytes += core::alloc_block_bytes(sizeof(PathAttributes) + 32);
      if (!sp->as_path.hops().empty()) {
        bytes += core::alloc_block_bytes(sp->as_path.hops().size() *
                                         sizeof(core::AsNumber));
      }
      if (!sp->communities.empty()) {
        bytes += core::alloc_block_bytes(sp->communities.size() *
                                         sizeof(std::uint32_t));
      }
    }
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Handle registry

std::uint32_t AttrRegistry::acquire(const AttrSetRef& ref) {
  // Interning makes the canonical bundle address a value key within one
  // store, so dedup is a pointer probe.
  const PathAttributes* key = &ref.get();
  if (slots_.empty() || (live_ + 1) * 10 > slots_.size() * 7) grow();
  std::size_t i = attr_slot_hash(key) & slot_mask_;
  while (slots_[i] != kNone) {
    Entry& e = entries_[slots_[i]];
    if (&e.ref.get() == key) {
      ++e.refs;
      return slots_[i];
    }
    i = (i + 1) & slot_mask_;
  }
  std::uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  entries_[index].ref = ref;
  entries_[index].refs = 1;
  slots_[i] = index;
  ++live_;
  return index;
}

void AttrRegistry::release(std::uint32_t index) {
  Entry& e = entries_[index];
  if (--e.refs > 0) return;
  const PathAttributes* key = &e.ref.get();
  std::size_t i = attr_slot_hash(key) & slot_mask_;
  while (slots_[i] != index) i = (i + 1) & slot_mask_;
  // Backshift: pull later entries of the probe chain over the hole so
  // lookups never need tombstones.
  std::size_t hole = i;
  std::size_t j = i;
  for (;;) {
    j = (j + 1) & slot_mask_;
    if (slots_[j] == kNone) break;
    const std::size_t ideal =
        attr_slot_hash(&entries_[slots_[j]].ref.get()) & slot_mask_;
    if (((j - ideal) & slot_mask_) >= ((j - hole) & slot_mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = kNone;
  e.ref = AttrSetRef{};
  free_.push_back(index);
  --live_;
}

void AttrRegistry::grow() {
  std::vector<std::uint32_t> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, kNone);
  slot_mask_ = slots_.size() - 1;
  for (const std::uint32_t id : old) {
    if (id == kNone) continue;
    std::size_t i = attr_slot_hash(&entries_[id].ref.get()) & slot_mask_;
    while (slots_[i] != kNone) i = (i + 1) & slot_mask_;
    slots_[i] = id;
  }
}

std::uint64_t AttrRegistry::bytes() const {
  return static_cast<std::uint64_t>(entries_.size()) * sizeof(Entry) +
         static_cast<std::uint64_t>(free_.size()) * sizeof(std::uint32_t) +
         static_cast<std::uint64_t>(slots_.size()) * sizeof(std::uint32_t);
}

}  // namespace bgpsdn::bgp
