// Shared fixtures for integration-style tests: a tiny harness that wires
// BgpRouters into a Network and runs the event loop.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bgp/router.hpp"
#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "core/random.hpp"
#include "net/address_allocator.hpp"
#include "net/network.hpp"

namespace bgpsdn::testing {

/// Builds ad-hoc router topologies without the full framework layer; used by
/// bgp-level tests so they do not depend on modules above them.
class MiniTopo {
 public:
  explicit MiniTopo(std::uint64_t seed = 42) : rng_{seed}, net_{loop_, log_, rng_} {
    log_.set_min_level(core::LogLevel::kInfo);
  }

  bgp::BgpRouter& add_router(std::uint32_t asn,
                             bgp::Timers timers = quick_timers()) {
    bgp::RouterConfig rc;
    rc.asn = core::AsNumber{asn};
    rc.router_id = alloc_.router_id(rc.asn);
    rc.timers = timers;
    rc.attr_registry = attrs_;
    auto& r = net_.add<bgp::BgpRouter>("AS" + std::to_string(asn), rc);
    routers_.push_back(&r);
    return r;
  }

  /// Full-transit peering between two routers over a fresh link.
  void peer(bgp::BgpRouter& a, bgp::BgpRouter& b,
            net::LinkParams lp = {core::Duration::millis(2), 0, 0.0},
            bgp::PolicyMode mode = bgp::PolicyMode::kFullTransit,
            bgp::Relationship a_sees_b = bgp::Relationship::kPeer) {
    const auto link = net_.connect(a.id(), b.id(), lp);
    const auto& l = net_.link(link);
    const auto p2p = alloc_.next_p2p();

    bgp::PeerConfig pa;
    pa.policy.mode = mode;
    pa.policy.relationship = a_sees_b;
    pa.local_address = p2p.left;
    pa.remote_address = p2p.right;
    pa.expected_peer_as = b.asn();
    a.add_peer(l.a.port, pa);

    bgp::PeerConfig pb;
    pb.policy.mode = mode;
    pb.policy.relationship = bgp::reverse(a_sees_b);
    pb.local_address = p2p.right;
    pb.remote_address = p2p.left;
    pb.expected_peer_as = a.asn();
    b.add_peer(l.b.port, pb);
  }

  void start() { net_.start_all(); }

  /// Run until the loop drains or `horizon` virtual time passes.
  void run_for(core::Duration horizon) {
    loop_.run(loop_.now() + horizon);
  }

  /// Timers scaled down so unit tests finish in microseconds of real time.
  static bgp::Timers quick_timers() {
    bgp::Timers t;
    t.mrai = core::Duration::millis(200);
    t.keepalive = core::Duration::seconds(5);
    t.hold = core::Duration::seconds(15);
    return t;
  }

  core::EventLoop& loop() { return loop_; }
  core::Logger& log() { return log_; }
  net::Network& net() { return net_; }
  net::AddressAllocator& alloc() { return alloc_; }
  /// The network's one attribute store; routers built by hand take it too.
  const bgp::AttrRegistryRef& attr_registry() const { return attrs_; }
  std::vector<bgp::BgpRouter*>& routers() { return routers_; }

 private:
  core::EventLoop loop_;
  core::Logger log_;
  core::Rng rng_;
  net::Network net_;
  net::AddressAllocator alloc_;
  bgp::AttrRegistryRef attrs_ = std::make_shared<bgp::AttrRegistry>();
  std::vector<bgp::BgpRouter*> routers_;
};

/// How many candidates `router`'s Adj-RIB-In holds for `prefix`.
inline std::size_t candidate_count(const bgp::BgpRouter& router,
                                   const net::Prefix& prefix) {
  std::size_t n = 0;
  router.adj_rib_in().for_each_candidate(prefix,
                                         [&n](const bgp::RouteView&) { ++n; });
  return n;
}

}  // namespace bgpsdn::testing
