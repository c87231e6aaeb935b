#include "bgp/rib.hpp"

#include <algorithm>
#include <cassert>

namespace bgpsdn::bgp {

namespace detail {

const SessionInfo* SessionTable::find(std::uint32_t session) const {
  const auto it = std::lower_bound(
      infos_.begin(), infos_.end(), session,
      [](const SessionInfo& s, std::uint32_t v) { return s.session < v; });
  if (it == infos_.end() || it->session != session) return nullptr;
  return &*it;
}

void SessionTable::add(std::uint32_t session, std::uint32_t bgp_id,
                       std::uint32_t address) {
  const auto it = std::lower_bound(
      infos_.begin(), infos_.end(), session,
      [](const SessionInfo& s, std::uint32_t v) { return s.session < v; });
  if (it != infos_.end() && it->session == session) {
    it->bgp_id = bgp_id;
    it->address = address;
    ++it->routes;
    return;
  }
  infos_.insert(it, SessionInfo{session, bgp_id, address, 1});
}

void SessionTable::drop(std::uint32_t session) {
  const auto it = std::lower_bound(
      infos_.begin(), infos_.end(), session,
      [](const SessionInfo& s, std::uint32_t v) { return s.session < v; });
  assert(it != infos_.end() && it->session == session);
  if (--it->routes == 0) infos_.erase(it);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// AdjRibIn

AdjRibIn::AdjRibIn(AttrRegistryRef attrs) : attrs_{std::move(attrs)} {}

// lint: hotpath(Adj-RIB-In insert runs once per received route; the slab
// layout exists precisely so this path never touches the heap per call)
AdjRibIn::PutResult AdjRibIn::put(const net::Prefix& prefix,
                                  const RouteView& route) {
  const std::uint32_t sid = route.learned_from.value();
  const std::uint32_t bgp_id = route.peer_bgp_id.bits();
  const std::uint32_t address = route.peer_address.bits();

  InSpan* span = spans_.find(prefix);
  if (span == nullptr) {
    InSpan fresh;
    fresh.capacity = 1;
    fresh.size = 0;
    fresh.offset = alloc_span(1);
    spans_.put(prefix, fresh);
    span = spans_.find(prefix);
  }

  // Candidates are kept session-ascending: iteration order is that of a
  // std::map<SessionId, Route>.
  std::uint32_t lo = 0;
  std::uint32_t hi = span->size;
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi) / 2;
    if (slab_[span->offset + mid].session < sid) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }

  if (lo < span->size && slab_[span->offset + lo].session == sid) {
    Candidate& c = slab_[span->offset + lo];
    detail::SessionInfo* info = sessions_.find(sid);
    const bool same_bundle = attrs_->at(c.attr) == *route.attributes;
    if (same_bundle && info->bgp_id == bgp_id && info->address == address) {
      return PutResult::kUnchanged;
    }
    const std::uint32_t index = attrs_->acquire(*route.attributes);
    attrs_->release(c.attr);
    c.attr = index;
    if (!same_bundle) c.installed_ns = route.installed_at.nanos_since_origin();
    info->bgp_id = bgp_id;
    info->address = address;
    note_usage();
    return same_bundle ? PutResult::kNewIdentity : PutResult::kReplaced;
  }

  if (span->size == span->capacity) {
    const auto capacity = static_cast<std::uint16_t>(span->capacity * 2);
    const std::uint32_t offset = alloc_span(capacity);
    std::memcpy(&slab_[offset], &slab_[span->offset],
                span->size * sizeof(Candidate));
    free_span(span->offset, span->capacity);
    span->offset = offset;
    span->capacity = capacity;
  }
  Candidate* base = slab_.data() + span->offset;
  std::memmove(base + lo + 1, base + lo,
               (span->size - lo) * sizeof(Candidate));
  base[lo] = Candidate{sid, attrs_->acquire(*route.attributes),
                       route.installed_at.nanos_since_origin()};
  ++span->size;
  ++count_;
  sessions_.add(sid, bgp_id, address);
  maybe_defrag();
  note_usage();
  return PutResult::kAdded;
}

bool AdjRibIn::erase(const net::Prefix& prefix, core::SessionId session) {
  const bool erased = erase_candidate(prefix, session.value());
  if (erased) maybe_defrag();
  return erased;
}

// lint: hotpath(Adj-RIB-In erase runs once per withdrawal/session drop;
// pure span bookkeeping, no per-call heap traffic)
bool AdjRibIn::erase_candidate(const net::Prefix& prefix,
                               std::uint32_t session) {
  InSpan* span = spans_.find(prefix);
  if (span == nullptr) return false;
  Candidate* base = slab_.data() + span->offset;
  std::uint32_t lo = 0;
  std::uint32_t hi = span->size;
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi) / 2;
    if (base[mid].session < session) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == span->size || base[lo].session != session) return false;
  attrs_->release(base[lo].attr);
  std::memmove(base + lo, base + lo + 1,
               (span->size - lo - 1) * sizeof(Candidate));
  --span->size;
  --count_;
  sessions_.drop(session);
  if (span->size == 0) {
    free_span(span->offset, span->capacity);
    spans_.erase(prefix);
  }
  return true;
}

std::vector<net::Prefix> AdjRibIn::erase_session(core::SessionId session) {
  std::vector<net::Prefix> affected;
  const std::uint32_t sid = session.value();
  if (sessions_.find(sid) == nullptr) return affected;
  spans_.scan([&](const net::Prefix& prefix, const InSpan& span) {
    for (std::uint32_t i = 0; i < span.size; ++i) {
      if (slab_[span.offset + i].session == sid) {
        affected.push_back(prefix);
        return;
      }
    }
  });
  std::sort(affected.begin(), affected.end());
  // One defrag check per reset, not per candidate.
  for (const auto& prefix : affected) erase_candidate(prefix, sid);
  maybe_defrag();
  return affected;
}

std::size_t AdjRibIn::route_count() const { return count_; }

std::vector<net::Prefix> AdjRibIn::prefixes() const {
  return spans_.sorted_keys();
}

std::uint32_t AdjRibIn::alloc_span(std::uint16_t capacity) {
  std::uint32_t log2 = 0;
  while ((std::uint32_t{1} << log2) < capacity) ++log2;
  if (log2 < free_spans_.size() && !free_spans_[log2].empty()) {
    const std::uint32_t offset = free_spans_[log2].back();
    free_spans_[log2].pop_back();
    free_slots_ -= std::size_t{1} << log2;
    return offset;
  }
  const auto offset = static_cast<std::uint32_t>(slab_.size());
  slab_.resize(slab_.size() + capacity);
  return offset;
}

void AdjRibIn::free_span(std::uint32_t offset, std::uint16_t capacity) {
  std::uint32_t log2 = 0;
  while ((std::uint32_t{1} << log2) < capacity) ++log2;
  if (free_spans_.size() <= log2) free_spans_.resize(log2 + 1);
  free_spans_[log2].push_back(offset);
  free_slots_ += std::size_t{1} << log2;
}

void AdjRibIn::maybe_defrag() {
  // The grow-by-doubling churn strands small spans on the free lists (every
  // span that outgrew capacity 1 or 2 leaves its old slots behind, and no
  // later allocation wants them once all prefixes have spans). Rebuilding
  // packs live spans tightly — span capacities stay power-of-two, only the
  // dead slots go — and is amortized by the one-third trigger.
  if (slab_.size() < 256 || free_slots_ * 3 < slab_.size()) return;
  std::vector<Candidate> packed;
  packed.reserve(slab_.size() - free_slots_);
  spans_.scan_mut([&](const net::Prefix&, InSpan& span) {
    const auto offset = static_cast<std::uint32_t>(packed.size());
    packed.insert(packed.end(), slab_.begin() + span.offset,
                  slab_.begin() + span.offset + span.size);
    packed.resize(packed.size() + (span.capacity - span.size));
    span.offset = offset;
  });
  slab_ = std::move(packed);
  for (auto& bucket : free_spans_) bucket.clear();
  free_slots_ = 0;
}

RouteView AdjRibIn::view(const Candidate& c) const {
  const detail::SessionInfo* info = sessions_.find(c.session);
  return {&attrs_->at(c.attr), core::SessionId{c.session},
          net::Ipv4Addr{info->bgp_id}, net::Ipv4Addr{info->address},
          core::TimePoint::from_nanos(c.installed_ns)};
}

std::uint64_t AdjRibIn::current_bytes() const {
  // Slab extent (live spans + not-yet-defragged free spans), never vector
  // capacity: growth-doubling slack is an artifact of std::vector, a real
  // slab allocator would chunk. The shared attr registry is accounted by
  // its owner (mem.attr_registry).
  return spans_.slot_bytes() +
         static_cast<std::uint64_t>(slab_.size()) * sizeof(Candidate) +
         sessions_.bytes();
}

void AdjRibIn::note_usage() {
  peak_bytes_ = std::max(peak_bytes_, current_bytes());
}

// ---------------------------------------------------------------------------
// LocRib

LocRib::LocRib(AttrRegistryRef attrs) : attrs_{std::move(attrs)} {}

const PathAttributes* LocRib::install(const net::Prefix& prefix,
                                     const RouteView& best) {
  LocEntry* entry = table_.find(prefix);
  const std::uint32_t sid = best.learned_from.value();
  if (entry != nullptr && entry->session == sid &&
      attrs_->at(entry->attr) == *best.attributes) {
    return nullptr;
  }
  // A candidate view points into the registry's entry slab, which
  // acquire() may grow: hold the handle before acquiring it.
  const AttrSetRef attrs = *best.attributes;
  const std::uint32_t index = attrs_->acquire(attrs);
  const std::uint32_t bgp_id = best.peer_bgp_id.bits();
  const std::uint32_t address = best.peer_address.bits();
  const std::int64_t installed_ns = best.installed_at.nanos_since_origin();
  if (entry != nullptr) {
    attrs_->release(entry->attr);
    if (entry->session != sid) {
      sessions_.drop(entry->session);
      sessions_.add(sid, bgp_id, address);
    } else {
      detail::SessionInfo* info = sessions_.find(sid);
      info->bgp_id = bgp_id;
      info->address = address;
    }
    entry->attr = index;
    entry->session = sid;
    entry->installed_ns = installed_ns;
  } else {
    sessions_.add(sid, bgp_id, address);
    LocEntry fresh;
    fresh.attr = index;
    fresh.session = sid;
    fresh.installed_ns = installed_ns;
    table_.put(prefix, fresh);
  }
  ++generation_;
  note_usage();
  return &attrs.get();
}

bool LocRib::remove(const net::Prefix& prefix) {
  LocEntry* entry = table_.find(prefix);
  if (entry == nullptr) return false;
  attrs_->release(entry->attr);
  sessions_.drop(entry->session);
  table_.erase(prefix);
  ++generation_;
  return true;
}

const Route* LocRib::find(const net::Prefix& prefix) const {
  const LocEntry* entry = table_.find(prefix);
  if (entry == nullptr) return nullptr;
  const detail::SessionInfo* info = sessions_.find(entry->session);
  scratch_.prefix = prefix;
  scratch_.attributes = attrs_->at(entry->attr);
  scratch_.learned_from = core::SessionId{entry->session};
  scratch_.peer_bgp_id = net::Ipv4Addr{info->bgp_id};
  scratch_.peer_address = net::Ipv4Addr{info->address};
  scratch_.installed_at = core::TimePoint::from_nanos(entry->installed_ns);
  return &scratch_;
}

LocRib::WinnerKey LocRib::winner(const net::Prefix& prefix) const {
  const LocEntry* entry = table_.find(prefix);
  if (entry == nullptr) return {};
  return {&attrs_->at(entry->attr).get(), core::SessionId{entry->session}};
}

std::size_t LocRib::size() const { return table_.size(); }

std::vector<net::Prefix> LocRib::prefixes() const {
  return table_.sorted_keys();
}

std::uint64_t LocRib::current_bytes() const {
  return table_.slot_bytes() + sessions_.bytes();
}

void LocRib::note_usage() {
  peak_bytes_ = std::max(peak_bytes_, current_bytes());
}

// ---------------------------------------------------------------------------
// RibOutStore

RibOutStore::RibOutStore(AttrRegistryRef attrs) : attrs_{std::move(attrs)} {}

std::uint16_t RibOutStore::add_column() {
  const std::uint16_t column = columns_++;
  col_size_.push_back(0);
  return column;
}

bool RibOutStore::advertise(std::uint16_t col, const net::Prefix& prefix,
                            const AttrSetRef& attrs) {
  OutSpan* span = spans_.find(prefix);
  if (span == nullptr) {
    OutSpan fresh;
    fresh.width = columns_;
    fresh.offset = alloc_row(columns_);
    spans_.put(prefix, fresh);
    span = spans_.find(prefix);
  } else if (col >= span->width) {
    span = widen_row(span);
  }
  std::uint32_t& slot = slab_[span->offset + col];
  // Index equality is value equality: within one trial thread interning
  // canonicalizes bundles and the registry dedups by canonical address.
  const std::uint32_t index = attrs_->acquire(attrs);
  if (slot == index) {
    attrs_->release(index);
    return false;
  }
  if (slot != kNone) {
    attrs_->release(slot);
  } else {
    ++col_size_[col];
  }
  slot = index;
  note_usage();
  return true;
}

bool RibOutStore::withdraw(std::uint16_t col, const net::Prefix& prefix) {
  OutSpan* span = spans_.find(prefix);
  if (span == nullptr || col >= span->width) return false;
  std::uint32_t& slot = slab_[span->offset + col];
  if (slot == kNone) return false;
  attrs_->release(slot);
  slot = kNone;
  --col_size_[col];
  maybe_drop_row(prefix);
  return true;
}

const AttrSetRef* RibOutStore::advertised(std::uint16_t col,
                                          const net::Prefix& prefix) const {
  const OutSpan* span = spans_.find(prefix);
  if (span == nullptr || col >= span->width) return nullptr;
  const std::uint32_t slot = slab_[span->offset + col];
  return slot == kNone ? nullptr : &attrs_->at(slot);
}

std::size_t RibOutStore::size(std::uint16_t col) const {
  return col_size_[col];
}

void RibOutStore::clear(std::uint16_t col) {
  if (col_size_[col] == 0) return;
  std::vector<net::Prefix> occupied;
  spans_.scan([&](const net::Prefix& prefix, const OutSpan& span) {
    if (col < span.width && slab_[span.offset + col] != kNone) {
      occupied.push_back(prefix);
    }
  });
  for (const auto& prefix : occupied) withdraw(col, prefix);
}

std::vector<net::Prefix> RibOutStore::prefixes(std::uint16_t col) const {
  std::vector<net::Prefix> out;
  out.reserve(col_size_[col]);
  spans_.scan([&](const net::Prefix& prefix, const OutSpan& span) {
    if (col < span.width && slab_[span.offset + col] != kNone) {
      out.push_back(prefix);
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::uint32_t RibOutStore::alloc_row(std::uint32_t width) {
  const auto it = free_rows_.find(width);
  if (it != free_rows_.end() && !it->second.empty()) {
    const std::uint32_t offset = it->second.back();
    it->second.pop_back();
    std::fill_n(slab_.begin() + offset, width, kNone);
    return offset;
  }
  const auto offset = static_cast<std::uint32_t>(slab_.size());
  slab_.resize(slab_.size() + width, kNone);
  return offset;
}

RibOutStore::OutSpan* RibOutStore::widen_row(OutSpan* span) {
  const std::uint32_t width = columns_;
  const std::uint32_t offset = alloc_row(width);
  for (std::uint32_t i = 0; i < span->width; ++i) {
    slab_[offset + i] = slab_[span->offset + i];
  }
  free_rows_[span->width].push_back(span->offset);
  span->offset = offset;
  span->width = width;
  return span;
}

void RibOutStore::maybe_drop_row(const net::Prefix& prefix) {
  OutSpan* span = spans_.find(prefix);
  for (std::uint32_t i = 0; i < span->width; ++i) {
    if (slab_[span->offset + i] != kNone) return;
  }
  free_rows_[span->width].push_back(span->offset);
  spans_.erase(prefix);
}

std::uint64_t RibOutStore::current_bytes() const {
  // Slab extent, not vector capacity; the shared attr registry is accounted
  // by its owner (mem.attr_registry).
  return spans_.slot_bytes() +
         static_cast<std::uint64_t>(slab_.size()) * sizeof(std::uint32_t);
}

void RibOutStore::note_usage() {
  peak_bytes_ = std::max(peak_bytes_, current_bytes());
}

}  // namespace bgpsdn::bgp
