// Framework micro-benchmarks (google-benchmark).
//
// Supports the paper's "rapid prototyping" positioning versus ONOS: the
// whole emulation is cheap enough that a 10-run, 16-fraction Fig. 2 sweep
// takes seconds of wall time. These benches pin down where the cycles go:
// event loop, BGP codec, decision process, FIB lookups, controller graph
// work, and a full hybrid-experiment bring-up.
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bgp/attr_intern.hpp"
#include "bgp/decision.hpp"
#include "bgp/message.hpp"
#include "controller/as_topology.hpp"
#include "controller/dijkstra.hpp"
#include "core/event_loop.hpp"
#include "core/logger.hpp"
#include "core/random.hpp"
#include "framework/experiment.hpp"
#include "net/lpm.hpp"
#include "net/network.hpp"
#include "sdn/flow.hpp"
#include "topology/generators.hpp"

namespace {

using namespace bgpsdn;

void BM_EventLoopScheduleRun(benchmark::State& state) {
  const auto n = state.range(0);
  for (auto _ : state) {
    core::EventLoop loop;
    for (std::int64_t i = 0; i < n; ++i) {
      loop.schedule(core::Duration::nanos(i), [] {});
    }
    benchmark::DoNotOptimize(loop.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventLoopScheduleRun)->Arg(1000)->Arg(10000);

void BM_EventLoopCancel(benchmark::State& state) {
  for (auto _ : state) {
    core::EventLoop loop;
    std::vector<core::TimerId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(loop.schedule(core::Duration::nanos(i), [] {}));
    }
    for (const auto id : ids) loop.cancel(id);
    loop.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopCancel);

bgp::UpdateMessage sample_update(int nlri) {
  bgp::UpdateMessage u;
  u.attributes.origin = bgp::Origin::kIgp;
  u.attributes.as_path = bgp::AsPath{{core::AsNumber{65001}, core::AsNumber{3},
                                      core::AsNumber{2}, core::AsNumber{1}}};
  u.attributes.next_hop = *net::Ipv4Addr::parse("172.16.0.1");
  u.attributes.communities = {1, 2, 3};
  for (int i = 0; i < nlri; ++i) {
    u.nlri.push_back(net::Prefix{
        net::Ipv4Addr{(10u << 24) | (static_cast<std::uint32_t>(i) << 8)}, 24});
  }
  return u;
}

void BM_LogUpdateRx(benchmark::State& state) {
  // One update_rx record of a 7-NLRI UPDATE, formatted in place into a
  // logger whose only sink counts what it is handed (as perfbench's does).
  // The text is built from the UPDATE itself, so a return to snprintf or
  // temporary strings on the log path shows up here.
  core::Logger log;
  log.set_retain(false);
  log.set_min_level(core::LogLevel::kDebug);
  std::size_t bytes = 0;
  log.add_sink([&bytes](const core::LogRecord& rec) {
    bytes += rec.component.size() + rec.event.size() + rec.detail.size();
  });
  const bgp::UpdateMessage update = sample_update(7);
  const std::string component = "bgp.AS65001";
  const core::AsNumber from{65002};
  for (auto _ : state) {
    log.log(core::TimePoint::origin(), core::LogLevel::kDebug, component,
            "update_rx", "from ", from, ' ', update);
  }
  benchmark::DoNotOptimize(bytes);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogUpdateRx);

void BM_BgpEncode(benchmark::State& state) {
  const auto u = sample_update(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::encode(u));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BgpEncode)->Arg(1)->Arg(64);

void BM_BgpDecode(benchmark::State& state) {
  const auto wire = bgp::encode(sample_update(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::decode(wire));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BgpDecode)->Arg(1)->Arg(64);

// The path BgpRouter::recompute takes: n candidates for one prefix in an
// Adj-RIB-In, visited as views and compared with the RFC 4271 ladder.
void BM_DecisionProcess(benchmark::State& state) {
  const auto n = state.range(0);
  const auto store = std::make_shared<bgp::AttrRegistry>();
  bgp::AdjRibIn rib{store};
  const auto prefix = *net::Prefix::parse("10.0.0.0/16");
  for (std::int64_t i = 0; i < n; ++i) {
    std::vector<core::AsNumber> hops;
    for (std::int64_t h = 0; h <= i % 7; ++h) {
      hops.emplace_back(static_cast<std::uint32_t>(100 + h));
    }
    bgp::PathAttributes attrs;
    attrs.as_path = bgp::AsPath{std::move(hops)};
    attrs.local_pref = 100;
    const bgp::AttrSetRef bundle = store->intern(std::move(attrs));
    rib.put(prefix, {&bundle, core::SessionId{static_cast<std::uint32_t>(i)},
                     net::Ipv4Addr{static_cast<std::uint32_t>(i + 1)}, {}, {}});
  }
  for (auto _ : state) {
    bgp::RouteView best;
    rib.for_each_candidate(prefix, [&](const bgp::RouteView& r) {
      if (best.attributes == nullptr || bgp::compare_routes(r, best) < 0) {
        best = r;
      }
    });
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DecisionProcess)->Arg(2)->Arg(16)->Arg(128);

void BM_LpmLookup(benchmark::State& state) {
  net::LpmTable<int> table;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    table.insert(net::Prefix{net::Ipv4Addr{(10u << 24) | (i << 12)}, 20},
                 static_cast<int>(i));
  }
  std::uint32_t x = 1;
  for (auto _ : state) {
    x = x * 1664525u + 1013904223u;
    benchmark::DoNotOptimize(
        table.lookup(net::Ipv4Addr{(10u << 24) | (x % (1000u << 12))}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LpmLookup);

// Flow table with n data-plane /24 rules plus the usual handful of
// higher-priority relay rules, mirroring a border switch's steady state.
sdn::FlowTable sample_flow_table(std::uint32_t n) {
  sdn::FlowTable table;
  for (std::uint32_t i = 0; i < n; ++i) {
    sdn::FlowEntry e;
    e.match.dst = net::Prefix{net::Ipv4Addr{(10u << 24) | (i << 8)}, 24};
    e.priority = sdn::kDataRulePriority;
    e.action = sdn::FlowAction::output(core::PortId{1 + i % 4});
    table.add(std::move(e));
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    sdn::FlowEntry relay;
    relay.match.in_port = core::PortId{100 + i};
    relay.match.proto = net::Protocol::kBgp;
    relay.priority = sdn::kRelayRulePriority;
    relay.action = sdn::FlowAction::output(core::PortId{50});
    table.add(std::move(relay));
  }
  return table;
}

void BM_FlowTableLookup(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto table = sample_flow_table(n);
  net::Packet p;
  p.proto = net::Protocol::kData;
  std::uint32_t x = 1;
  for (auto _ : state) {
    x = x * 1664525u + 1013904223u;
    p.dst = net::Ipv4Addr{(10u << 24) | ((x % n) << 8) | (x >> 28)};
    const auto* e = table.lookup(core::PortId{3}, p, false);
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowTableLookup)->Arg(1024)->Arg(4096);

void BM_AttrIntern(benchmark::State& state) {
  // Hit path: interning a bundle already in the pool (the common case once
  // a route has been seen on one session) must cost a hash + one compare.
  bgp::AttrRegistry store;
  const auto canonical = store.intern([] {
    bgp::PathAttributes a;
    a.as_path = bgp::AsPath{{core::AsNumber{65001}, core::AsNumber{2},
                             core::AsNumber{1}}};
    a.next_hop = *net::Ipv4Addr::parse("172.16.0.1");
    a.local_pref = 100;
    a.communities = {1, 2, 3};
    return a;
  }());
  for (auto _ : state) {
    bgp::PathAttributes copy = *canonical;
    benchmark::DoNotOptimize(store.intern(std::move(copy)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttrIntern);

template <bool kShared>
void BM_UpdateFanoutImpl(benchmark::State& state) {
  // One withdraw-only UPDATE sent unchanged to `n` peers, n transmissions:
  // in a router only withdrawals go out unchanged like this, since an
  // announcement carries each peer's own next hop
  // (BM_UpdateFanoutPerPeerNextHop). Legacy encodes n times; the shared
  // path is the encoder Session::send_update uses, whose fan-out cache
  // encodes once and hands out refcounted views of the same buffer.
  const auto n = state.range(0);
  bgp::UpdateMessage u;
  u.withdrawn = sample_update(8).nlri;
  for (auto _ : state) {
    std::size_t total = 0;
    for (std::int64_t peer = 0; peer < n; ++peer) {
      if constexpr (kShared) {
        const net::Bytes wire = bgp::encode_shared(u);
        total += wire.size();
      } else {
        const auto wire = bgp::encode(u);
        total += wire.size();
      }
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_UpdateFanout(benchmark::State& state) {
  BM_UpdateFanoutImpl<true>(state);
}
BENCHMARK(BM_UpdateFanout)->Arg(16)->Arg(64);

void BM_UpdateFanoutLegacy(benchmark::State& state) {
  BM_UpdateFanoutImpl<false>(state);
}
BENCHMARK(BM_UpdateFanoutLegacy)->Arg(16)->Arg(64);

void BM_UpdateFanoutPerPeerNextHop(benchmark::State& state) {
  // One 8-NLRI announcement to `n` peers as a router sends it: each copy
  // carries the next hop of its own peering, so each is encoded once, by
  // the encoder Session::send_update uses.
  const auto n = state.range(0);
  std::vector<bgp::UpdateMessage> updates(static_cast<std::size_t>(n),
                                          sample_update(8));
  for (std::int64_t peer = 0; peer < n; ++peer) {
    updates[static_cast<std::size_t>(peer)].attributes.next_hop = net::Ipv4Addr{
        (172u << 24) | (16u << 16) | (static_cast<std::uint32_t>(peer) << 2) | 1u};
  }
  for (auto _ : state) {
    std::size_t total = 0;
    for (const auto& u : updates) {
      const net::Bytes wire = bgp::encode_shared(u);
      total += wire.size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_UpdateFanoutPerPeerNextHop)->Arg(16)->Arg(64);

void BM_Dijkstra(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  controller::AdjacencyList g;
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      if (i != j) g.add_edge(i, j, 1);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller::shortest_paths(g, 0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Dijkstra)->Arg(8)->Arg(16)->Arg(64);

void BM_IncrementalSptFlap(benchmark::State& state) {
  // One edge flapping on a clique: the delta engine's steady-state cost,
  // versus BM_Dijkstra's from-scratch cost for the same graph.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  controller::IncrementalSpt spt{0};
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      if (i != j) spt.edge_added(i, j, 1);
    }
  }
  for (auto _ : state) {
    spt.edge_removed(0, 1, 1);
    spt.edge_added(0, 1, 1);
    benchmark::DoNotOptimize(spt.revision());
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_IncrementalSptFlap)->Arg(8)->Arg(16)->Arg(64);

void BM_AsTopologyDecide(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  controller::SwitchGraph graph;
  // The speaker is only a peering registry here; like every node it lives in
  // a network, which is never started.
  core::EventLoop loop;
  core::Logger log;
  core::Rng rng{1};
  net::Network net{loop, log, rng};
  auto& speaker = net.add<speaker::ClusterBgpSpeaker>(
      "speaker", bgp::Timers{}, std::make_shared<bgp::AttrRegistry>());
  for (std::uint64_t i = 0; i < n; ++i) {
    graph.add_switch(i, core::AsNumber{static_cast<std::uint32_t>(100 + i)});
  }
  for (std::uint64_t i = 0; i + 1 < n; ++i) {
    graph.add_link(i, core::PortId{1}, i + 1, core::PortId{2});
  }
  std::vector<controller::ExternalRoute> routes;
  for (std::uint64_t i = 0; i < n; ++i) {
    speaker::Peering p;
    p.cluster_as = core::AsNumber{static_cast<std::uint32_t>(100 + i)};
    p.border_dpid = i;
    p.switch_external_port = core::PortId{0};
    p.expected_peer_as = core::AsNumber{static_cast<std::uint32_t>(500 + i)};
    speaker.add_peering(core::PortId{static_cast<std::uint32_t>(i)}, p);
    controller::ExternalRoute r;
    r.peering = static_cast<speaker::PeeringId>(i);
    bgp::PathAttributes rattrs;
    rattrs.as_path =
        bgp::AsPath{{core::AsNumber{static_cast<std::uint32_t>(500 + i)},
                     core::AsNumber{999}}};
    r.attributes = speaker.attr_registry().intern(std::move(rattrs));
    routes.push_back(std::move(r));
  }
  controller::AsTopologyGraph topo{graph, speaker};
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.decide(routes, std::nullopt));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AsTopologyDecide)->Arg(4)->Arg(8)->Arg(16);

void BM_HybridExperimentBringup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    framework::ExperimentConfig cfg;
    cfg.timers.mrai = core::Duration::millis(500);
    cfg.recompute_delay = core::Duration::millis(200);
    const auto spec = topology::clique(n);
    std::set<core::AsNumber> members;
    for (std::size_t i = 0; i < n / 2; ++i) {
      members.insert(core::AsNumber{static_cast<std::uint32_t>(n - i)});
    }
    framework::Experiment exp{spec, members, cfg};
    exp.announce_prefix(core::AsNumber{1}, *net::Prefix::parse("10.0.0.0/16"));
    const bool ok = exp.start();
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_HybridExperimentBringup)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_WithdrawalConvergenceWallTime(benchmark::State& state) {
  // Wall-clock cost of one full Fig.-2 data point (virtual minutes of BGP
  // hunting) — the "rapid prototyping" claim in one number.
  for (auto _ : state) {
    framework::ExperimentSpec cell =
        bench::sweep_base_spec(bench::EventKind::kWithdrawal, 16,
                               bench::paper_config());
    cell.sdn_count = static_cast<std::size_t>(state.range(0));
    benchmark::DoNotOptimize(cell.run_trial(1234));
  }
}
BENCHMARK(BM_WithdrawalConvergenceWallTime)->Arg(0)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Console output as usual, plus a capture of every iteration run so main()
// can emit the same bgpsdn.bench/1 JSON document the macro benches write.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    benchmark::ConsoleReporter::ReportRuns(report);
    for (const Run& run : report) {
      if (run.run_type == Run::RT_Iteration && !run.error_occurred) {
        captured_.push_back(run);
      }
    }
  }

  const std::vector<Run>& captured() const { return captured_; }

 private:
  std::vector<Run> captured_;
};

}  // namespace

int main(int argc, char** argv) {
  // Peel off the shared bench options (--json and friends) before
  // google-benchmark sees the arguments.
  std::vector<char*> bench_argv;
  const bench::BenchCli cli = bench::parse_cli(argc, argv, &bench_argv);
  const std::string json_path = cli.json_path;
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }

  // lint: wall-clock-ok(perf bench measures real elapsed time by design;
  // wall_s lands in the footer which the determinism diff excludes)
  const auto t0 = std::chrono::steady_clock::now();
  CaptureReporter reporter;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  const double wall_s =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now() -  // lint: wall-clock-ok(footer)
          t0)
          .count();
  benchmark::Shutdown();

  if (!json_path.empty()) {
    // One point per benchmark: the per-iteration real time in seconds of
    // every repetition (--benchmark_repetitions=N gives n=N samples, and
    // the point's median and quartiles summarize them).
    std::vector<std::string> labels;
    std::map<std::string, std::vector<const benchmark::BenchmarkReporter::Run*>>
        runs_by_label;
    for (const auto& run : reporter.captured()) {
      auto& runs = runs_by_label[run.benchmark_name()];
      if (runs.empty()) labels.push_back(run.benchmark_name());
      runs.push_back(&run);
    }
    framework::BenchReport report{"micro"};
    for (const auto& label : labels) {
      std::vector<double> values;
      std::vector<double> cpu;
      std::vector<double> items;
      std::int64_t iterations = 0;
      for (const auto* run : runs_by_label[label]) {
        const double iters = run->iterations > 0
                                 ? static_cast<double>(run->iterations)
                                 : 1.0;
        values.push_back(run->real_accumulated_time / iters);
        cpu.push_back(run->cpu_accumulated_time / iters);
        iterations += static_cast<std::int64_t>(run->iterations);
        if (const auto it = run->counters.find("items_per_second");
            it != run->counters.end()) {
          items.push_back(static_cast<double>(it->second));
        }
      }
      telemetry::Json extra = telemetry::Json::object();
      extra["iterations"] = iterations;
      extra["cpu_s_per_iter"] = framework::summarize(cpu).median;
      if (!items.empty()) {
        extra["items_per_s"] = framework::summarize(items).median;
      }
      report.add_point(label, framework::summarize(values), values,
                       std::move(extra));
    }
    report.set_footer(framework::SweepTiming{ran, 1, wall_s, wall_s});
    if (!report.write_file(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("# json: %s\n", json_path.c_str());
  }
  return 0;
}
