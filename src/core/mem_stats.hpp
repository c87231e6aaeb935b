// Deterministic memory accounting.
//
// Scale benches gate peak memory, but OS RSS depends on the allocator, the
// number of worker threads and malloc arena reuse — jobs=1 vs jobs=4 would
// never be byte-identical. Instead every byte-heavy component (RIB storage,
// the attribute intern pool, flow tables, speaker relay RIBs) reports into a
// MemStats snapshot using a fixed allocation model: container footprints are
// computed from element counts and capacities with the node-size formulas
// below, so the reported numbers depend only on the simulated workload.
//
// The model (documented in DESIGN.md §14): every heap block pays the payload
// rounded up to 16 bytes plus a 16-byte allocator header; a red-black tree
// node carries 32 bytes of tree overhead, a hash node 16 bytes (next pointer
// + cached hash), and a hash table one 8-byte bucket pointer per element.
// These match libstdc++ on a 64-bit glibc closely enough to compare layouts
// honestly while staying exactly reproducible.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bgpsdn::core {

/// Bytes charged for one heap block with `payload` bytes of content.
constexpr std::uint64_t alloc_block_bytes(std::uint64_t payload) {
  return ((payload + 15) / 16) * 16 + 16;
}

/// One std::map / std::set node holding a value of `value_bytes`.
constexpr std::uint64_t rb_node_bytes(std::uint64_t value_bytes) {
  return alloc_block_bytes(32 + value_bytes);
}

/// One std::unordered_map node holding a value of `value_bytes`.
constexpr std::uint64_t hash_node_bytes(std::uint64_t value_bytes) {
  return alloc_block_bytes(16 + value_bytes);
}

/// The bucket array of an unordered container with `elements` entries
/// (libstdc++ keeps the load factor at 1.0).
constexpr std::uint64_t hash_buckets_bytes(std::uint64_t elements) {
  return (elements | 1) * 8;
}

/// One byte-accounting snapshot. Categories are cumulative across the
/// entities that report into them (all routers' Adj-RIBs-In sum into
/// `rib_in`, ...); RIB categories report high-water marks, the rest report
/// the footprint at collection time.
struct MemStats {
  std::uint64_t rib_in{0};        ///< Adj-RIB-In candidate storage (peak).
  std::uint64_t loc_rib{0};       ///< Loc-RIB winner storage (peak).
  std::uint64_t rib_out{0};       ///< Adj-RIB-Out advertised state (peak).
  std::uint64_t attr_pool{0};     ///< Live interned attribute bundles.
  /// Shared attribute-handle registry of the RIBs (one per simulation).
  /// Scales with distinct bundles like attr_pool, not with (prefix x peer)
  /// entries like the RIB categories, so it is reported on its own axis.
  std::uint64_t attr_registry{0};
  std::uint64_t flow_tables{0};   ///< SDN flow tables + lookup index.
  std::uint64_t speaker_ribs{0};  ///< Cluster speaker per-peering relay RIBs.

  /// The tentpole number: bytes held by the three RIB stages.
  constexpr std::uint64_t rib_total() const {
    return rib_in + loc_rib + rib_out;
  }
  constexpr std::uint64_t total() const {
    return rib_total() + attr_pool + attr_registry + flow_tables +
           speaker_ribs;
  }

  MemStats& operator+=(const MemStats& o) {
    rib_in += o.rib_in;
    loc_rib += o.loc_rib;
    rib_out += o.rib_out;
    attr_pool += o.attr_pool;
    attr_registry += o.attr_registry;
    flow_tables += o.flow_tables;
    speaker_ribs += o.speaker_ribs;
    return *this;
  }
};

}  // namespace bgpsdn::core
