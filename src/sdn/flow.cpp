#include "sdn/flow.hpp"

#include <algorithm>
#include <bit>

#include "core/mem_stats.hpp"

namespace bgpsdn::sdn {

void FlowMatch::append_to(std::string& out) const {
  out += "dst=";
  dst.append_to(out);
  if (in_port) {
    out += " in_port=";
    core::append_decimal(out, in_port->value());
  }
  if (proto) {
    out += " proto=";
    out += net::to_string(*proto);
  }
}

std::string FlowMatch::to_string() const { return core::text_of(*this); }

void FlowAction::append_to(std::string& out) const {
  switch (type) {
    case ActionType::kOutput:
      out += "output:";
      core::append_decimal(out, port.value());
      return;
    case ActionType::kToController:
      out += "controller";
      return;
    case ActionType::kDrop:
      out += "drop";
      return;
  }
  out += '?';
}

std::string FlowAction::to_string() const { return core::text_of(*this); }

std::string FlowEntry::to_string() const {
  return match.to_string() + " prio=" + std::to_string(priority) + " -> " +
         action.to_string();
}

void FlowTable::index_entry(std::size_t i) {
  const net::Prefix& dst = entries_[i].match.dst;
  const int len = static_cast<int>(dst.length());
  by_len_[static_cast<std::size_t>(len)][key_at(dst.network().bits(), len)]
      .push_back(static_cast<std::uint32_t>(i));
  len_mask_ |= std::uint64_t{1} << len;
}

void FlowTable::rebuild_index() {
  for (std::uint64_t m = len_mask_; m != 0; m &= m - 1) {
    by_len_[static_cast<std::size_t>(std::countr_zero(m))].clear();
  }
  len_mask_ = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) index_entry(i);
}

void FlowTable::clear() {
  entries_.clear();
  rebuild_index();
}

void FlowTable::add(FlowEntry entry) {
  // Same match+priority replaces in place, preserving counters. Candidates
  // share the entry's dst bucket, so only that bucket is scanned.
  const int len = static_cast<int>(entry.match.dst.length());
  auto& bucket = by_len_[static_cast<std::size_t>(len)];
  if (const auto it =
          bucket.find(key_at(entry.match.dst.network().bits(), len));
      it != bucket.end()) {
    for (const std::uint32_t i : it->second) {
      FlowEntry& e = entries_[i];
      if (e.match == entry.match && e.priority == entry.priority) {
        entry.packets = e.packets;
        entry.bytes = e.bytes;
        e = std::move(entry);
        return;
      }
    }
  }
  entries_.push_back(std::move(entry));
  index_entry(entries_.size() - 1);
}

std::size_t FlowTable::remove(const FlowMatch& match, std::uint16_t priority) {
  const auto old = entries_.size();
  std::erase_if(entries_, [&](const FlowEntry& e) {
    return e.match == match && e.priority == priority;
  });
  if (entries_.size() != old) rebuild_index();
  return old - entries_.size();
}

std::size_t FlowTable::remove_by_dst(const net::Prefix& dst) {
  const auto old = entries_.size();
  std::erase_if(entries_, [&](const FlowEntry& e) { return e.match.dst == dst; });
  if (entries_.size() != old) rebuild_index();
  return old - entries_.size();
}

std::size_t FlowTable::remove_below_priority(std::uint16_t floor) {
  const auto old = entries_.size();
  std::erase_if(entries_,
                [&](const FlowEntry& e) { return e.priority < floor; });
  if (entries_.size() != old) rebuild_index();
  return old - entries_.size();
}

// lint: hotpath(per-packet match; the indexed buckets exist so forwarding
// costs no heap traffic regardless of table size)
const FlowEntry* FlowTable::lookup(core::PortId ingress, const net::Packet& p,
                                   bool account) {
  FlowEntry* best = nullptr;
  std::uint32_t best_index = 0;
  const std::uint32_t addr = p.dst.bits();
  for (std::uint64_t m = len_mask_; m != 0; m &= m - 1) {
    const int len = std::countr_zero(m);
    const auto& bucket = by_len_[static_cast<std::size_t>(len)];
    const auto it = bucket.find(key_at(addr, len));
    if (it == bucket.end()) continue;
    for (const std::uint32_t i : it->second) {
      FlowEntry& e = entries_[i];
      if (e.match.in_port && *e.match.in_port != ingress) continue;
      if (e.match.proto && *e.match.proto != p.proto) continue;
      // Same selection as the linear scan: (priority, dst length) strictly
      // better wins; ties keep the earliest-inserted entry. Buckets are
      // walked length-ascending, so within one length index order holds.
      if (best == nullptr || e.priority > best->priority ||
          (e.priority == best->priority &&
           (e.match.dst.length() > best->match.dst.length() ||
            (e.match.dst.length() == best->match.dst.length() &&
             i < best_index)))) {
        best = &e;
        best_index = i;
      }
    }
  }
  if (best != nullptr && account) {
    ++best->packets;
    best->bytes += p.size_bytes();
  }
  return best;
}

std::uint64_t FlowTable::approx_bytes() const {
  // Entry counts, not vector capacities: capacities depend on the exact
  // grow/erase history, counts only on the programmed state.
  std::uint64_t bytes = 0;
  if (!entries_.empty()) {
    bytes += core::alloc_block_bytes(entries_.size() * sizeof(FlowEntry));
  }
  for (std::uint64_t m = len_mask_; m != 0; m &= m - 1) {
    const auto& bucket = by_len_[static_cast<std::size_t>(std::countr_zero(m))];
    bytes += core::hash_buckets_bytes(bucket.bucket_count());
    for (const auto& [key, indices] : bucket) {
      bytes += core::hash_node_bytes(
          sizeof(std::pair<const std::uint32_t, std::vector<std::uint32_t>>));
      bytes += core::alloc_block_bytes(indices.size() * sizeof(std::uint32_t));
    }
  }
  return bytes;
}

}  // namespace bgpsdn::sdn
