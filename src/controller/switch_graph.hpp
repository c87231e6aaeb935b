// SwitchGraph — the physical topology of the SDN cluster.
//
// One of the two graphs of the paper's route selection process: "the Switch
// graph, representing the physical topology of the switches in the cluster".
// Nodes are switches (with their owner-AS identity), edges are the
// intra-cluster links with the port each side uses. Link state is updated
// from PortStatus events.
//
// Besides the queryable live state, the graph keeps an append-only
// *edge-delta changelog*: every adjacency that comes up or goes down is
// recorded in event order. Consumers that maintain derived structures
// (the incremental per-prefix shortest-path trees) remember the changelog
// position they have applied and catch up by replaying the suffix, instead
// of being handed a rebuilt graph. The changelog is emitter-ordered state:
// its order is part of the determinism contract (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/ids.hpp"
#include "sdn/openflow.hpp"

namespace bgpsdn::controller {

struct SwitchInfo {
  sdn::Dpid dpid{0};
  core::AsNumber owner_as;
};

struct Adjacency {
  sdn::Dpid peer{0};
  core::PortId local_port;  // port on this switch towards peer
  bool up{true};
};

/// One directed adjacency transition, in event order. Link registration and
/// both directions of a state flip each append one entry per direction.
struct EdgeDelta {
  enum class Kind : std::uint8_t { kAdded, kRemoved };
  Kind kind{Kind::kAdded};
  sdn::Dpid from{0};
  sdn::Dpid to{0};
};

class SwitchGraph {
 public:
  void add_switch(sdn::Dpid dpid, core::AsNumber owner_as);

  /// Register an intra-cluster link (both directions).
  void add_link(sdn::Dpid a, core::PortId a_port, sdn::Dpid b, core::PortId b_port);

  /// Update link state from one side's PortStatus; affects both directions.
  /// Returns true if a registered intra-cluster adjacency changed.
  bool set_port_state(sdn::Dpid dpid, core::PortId port, bool up);

  bool contains(sdn::Dpid dpid) const { return switches_.count(dpid) > 0; }
  std::optional<core::AsNumber> owner_of(sdn::Dpid dpid) const;
  std::optional<sdn::Dpid> switch_of(core::AsNumber as) const;

  /// Live adjacencies of a switch (up links only unless include_down).
  std::vector<Adjacency> neighbors(sdn::Dpid dpid, bool include_down = false) const;

  std::vector<SwitchInfo> all_switches() const;
  std::size_t link_count() const { return links_ / 2; }

  /// True if every switch can reach every other over up links (sub-cluster
  /// detection: the paper supports disjoint sub-clusters under one
  /// controller).
  bool is_connected() const;

  /// Connected components over up links, each a sorted dpid list.
  std::vector<std::vector<sdn::Dpid>> components() const;

  /// The append-only edge-delta changelog. Consumers remember how far they
  /// have applied (an index into this vector) and replay the suffix; a
  /// consumer seeded from the live state starts at changelog_size().
  const std::vector<EdgeDelta>& changelog() const { return changelog_; }
  std::size_t changelog_size() const { return changelog_.size(); }

 private:
  std::map<sdn::Dpid, SwitchInfo> switches_;
  std::map<sdn::Dpid, std::vector<Adjacency>> adj_;
  std::map<core::AsNumber, sdn::Dpid> by_as_;
  std::vector<EdgeDelta> changelog_;
  std::size_t links_{0};
};

}  // namespace bgpsdn::controller
