// Golden captures of the full log-record stream. Every record a run emits
// (virtual time, level, component, event tag and detail text) is rendered
// one per line and compared byte for byte against tests/framework/golden/.
// The fixtures pin the text itself, not just record counts or byte totals,
// so a formatting change of equal length still fails here.
//
// Two runs cover every record kind the routers, switches, controller,
// speaker and collector emit: a small internet-like pure-BGP run, and the
// same topology with an SDN cluster and the route collector attached.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>

#include "core/logger.hpp"
#include "core/random.hpp"
#include "framework/experiment.hpp"
#include "framework/golden.hpp"
#include "topology/generators.hpp"

namespace bgpsdn::framework {
namespace {

using core::AsNumber;

struct LogCapture {
  std::string text;
  std::set<std::string> events;
};

/// Small enough to keep each fixture under ~100 KB, large enough for
/// valley-free export, multi-NLRI UPDATEs and path exploration.
topology::TopologySpec golden_topology() {
  core::Rng topo_rng{7};
  topology::InternetLikeParams params;
  params.tier1 = 2;
  params.transit = 3;
  params.stubs = 4;
  return topology::internet_like(params, topo_rng);
}

/// Announce, withdraw, re-announce and fail/restore one of the origin's
/// links, recording every log record into `cap`.
LogCapture run_logged(std::set<AsNumber> members, bool with_collector) {
  const auto spec = golden_topology();
  ExperimentConfig cfg;
  cfg.seed = 11;
  cfg.timers.mrai = core::Duration::millis(500);
  cfg.recompute_delay = core::Duration::millis(200);
  cfg.with_collector = with_collector;
  Experiment exp{spec, std::move(members), cfg};

  LogCapture cap;
  exp.logger().add_sink([&cap](const core::LogRecord& rec) {
    cap.text += std::to_string(rec.when.nanos_since_origin());
    cap.text += ' ';
    cap.text += core::to_string(rec.level);
    cap.text += ' ';
    cap.text += rec.component;
    cap.text += ' ';
    cap.text += rec.event;
    cap.text += ": ";
    cap.text += rec.detail;
    cap.text += '\n';
    cap.events.emplace(rec.event);
  });

  const AsNumber origin = spec.ases.back();  // a stub
  const AsNumber other = spec.ases.front();  // a tier-1
  const auto pfx = *net::Prefix::parse("10.50.0.0/16");
  exp.announce_prefix(origin, pfx);
  exp.announce_prefix(origin, *net::Prefix::parse("10.51.0.0/16"));
  exp.announce_prefix(other, *net::Prefix::parse("10.52.0.0/16"));
  EXPECT_TRUE(exp.start());
  exp.wait_converged();
  exp.withdraw_prefix(origin, pfx);
  exp.wait_converged();
  exp.announce_prefix(origin, pfx);
  exp.wait_converged();
  const auto& link = [&]() -> const topology::LinkSpec& {
    for (const auto& l : spec.links) {
      if (l.a == origin || l.b == origin) return l;
    }
    throw std::logic_error("origin has no links");
  }();
  exp.fail_link(link.a, link.b);
  exp.wait_converged();
  exp.restore_link(link.a, link.b);
  exp.wait_converged();
  return cap;
}

void expect_events(const LogCapture& cap, const std::set<std::string>& want) {
  for (const auto& event : want) {
    EXPECT_EQ(cap.events.count(event), 1u) << "no '" << event << "' record";
  }
}

TEST(LogGolden, PureBgpRecordStream) {
  const LogCapture cap = run_logged({}, /*with_collector=*/false);
  expect_events(cap, {"update_rx", "update_tx", "best_changed", "best_lost",
                      "origin_announce", "origin_withdraw", "open_sent",
                      "open_rx", "session_up", "session_down", "link_down",
                      "link_up"});
  golden::expect_equal(cap.text, "log_bgp_7.txt");
}

TEST(LogGolden, HybridRecordStreamWithCollector) {
  const auto spec = golden_topology();
  // The tier-1 core and the first transit AS form the SDN cluster.
  const LogCapture cap =
      run_logged({spec.ases[0], spec.ases[1], spec.ases[2]},
                 /*with_collector=*/true);
  expect_events(cap, {"update_rx", "update_tx", "best_changed", "best_lost",
                      "session_up", "speaker_announce", "speaker_withdraw",
                      "speaker_rx", "flow_mod", "flow_mod_tx",
                      "collector_rx", "recompute", "switch_connected"});
  golden::expect_equal(cap.text, "log_hybrid_7.txt");
}

}  // namespace
}  // namespace bgpsdn::framework
