// Internet-scale RIB sweep: convergence wall cost and deterministic memory
// footprint as the AS count grows to 10k+.
//
// Two cell families:
//
//   il<N>_<event>      three-tier internet-like topologies (N total ASes,
//                      4 uplinks per non-core AS) under a withdrawal or a
//                      fresh announcement after full convergence. 16 origin
//                      ASes spread over the stub tier pre-announce 11 /24s
//                      each (176 prefixes), so the RIBs carry a real
//                      multi-prefix load — and because the 11 prefixes of an
//                      origin share one attribute bundle at every observer,
//                      the load exercises multi-NLRI UPDATE packing and
//                      attr-handle sharing the way full tables do.
//   caida<N>_withdrawal the synthesize_caida_text serial graphs, same
//                      pre-announced load, withdrawal event.
//
// plus one memory cell at the largest internet-like size: mem_compact_<N>
// runs one seeded withdrawal trial whose point value is convergence
// *virtual* seconds and whose extras carry the deterministic mem.* model
// bytes (slab/interner/RIB accounting, never OS RSS). The same bytes are
// exported as top-level `mem.*` counters.
//
// Everything except the wall-clock footer is deterministic per seed:
// byte-identical at any BGPSDN_JOBS (check.sh diffs jobs=1 vs 4).
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/mem_stats.hpp"

using namespace bgpsdn;

namespace {

constexpr std::uint64_t kDefaultBaseSeed = 11000;
constexpr std::size_t kOrigins = 16;
constexpr std::size_t kPrefixesPerOrigin = 11;

struct Cell {
  std::string label;
  framework::TopologyModel model;
  std::size_t size;
  bench::EventKind event;
  std::size_t runs;
  bool mem_cell;
};

/// Per-trial observables; everything here is virtual-time or model-byte
/// deterministic (per seed), so it may land in points/extras/counters.
struct TrialResult {
  double seconds{-1.0};
  core::MemStats mem{};
  std::int64_t updates_rx{0};
  std::int64_t decision_runs{0};
  std::map<std::string, std::int64_t> counters;
};

/// Short-MRAI profile: paper semantics, but the virtual clock (and with it
/// the event count a trial simulates) stays proportionate at 10k ASes.
framework::ExperimentConfig scale_config() {
  framework::ExperimentConfig cfg;
  cfg.timers.mrai = core::Duration::millis(300);
  cfg.with_collector = false;  // 10k collector sessions are not the subject
  return cfg;
}

framework::ExperimentSpec make_spec(const Cell& cell) {
  framework::ExperimentSpecBuilder builder;
  builder.topology(cell.model, cell.size)
      .event(cell.event)
      .config(scale_config());
  // 16 origins spread over the top half of the AS range (the stub tier of
  // internet_like numbers stubs last), 11 /24s each. The withdrawal event
  // retracts the first declared announcement, so it always retracts one
  // stub-homed prefix whose loss path-hunts across the whole hierarchy.
  const std::size_t step =
      std::max<std::size_t>(1, cell.size / (2 * kOrigins));
  for (std::size_t i = 0; i < kOrigins && i * step < cell.size; ++i) {
    const auto as =
        core::AsNumber{static_cast<std::uint32_t>(cell.size - i * step)};
    for (std::size_t j = 0; j < kPrefixesPerOrigin; ++j) {
      const auto octet =
          static_cast<std::uint8_t>(i * kPrefixesPerOrigin + j);
      builder.announce(as, net::Prefix{net::Ipv4Addr{198, 18, octet, 0}, 24});
    }
  }
  return builder.build();
}

TrialResult run_cell(const Cell& cell, std::uint64_t seed) {
  const framework::ExperimentSpec spec = make_spec(cell);
  auto experiment = spec.make_experiment(seed);
  TrialResult result;
  const bool started = experiment->start(core::Duration::seconds(600));
  const bool ok = bench::checked_trial(*experiment, started, [&] {
    const auto t0 = spec.inject_event(*experiment);
    const auto conv = experiment->wait_converged(framework::WaitOpts{
        spec.effective_quiet(), core::Duration::seconds(3600)});
    result.seconds = conv.since(t0).to_seconds();
    result.mem = experiment->memory_stats();
    bench::accumulate_counters(*experiment, result.counters);
    result.updates_rx = result.counters["bgp.session.updates_rx"];
    result.decision_runs = result.counters["bgp.decision.runs"];
  });
  if (!ok) result.seconds = -1.0;
  return result;
}

telemetry::Json mem_json(const core::MemStats& mem) {
  telemetry::Json m = telemetry::Json::object();
  m["rib_in"] = static_cast<std::int64_t>(mem.rib_in);
  m["loc_rib"] = static_cast<std::int64_t>(mem.loc_rib);
  m["rib_out"] = static_cast<std::int64_t>(mem.rib_out);
  m["rib_total"] = static_cast<std::int64_t>(mem.rib_total());
  m["attr_pool"] = static_cast<std::int64_t>(mem.attr_pool);
  m["attr_registry"] = static_cast<std::int64_t>(mem.attr_registry);
  m["flow_tables"] = static_cast<std::int64_t>(mem.flow_tables);
  m["speaker_ribs"] = static_cast<std::int64_t>(mem.speaker_ribs);
  m["total"] = static_cast<std::int64_t>(mem.total());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv);
  const bool quick = framework::quick_mode();
  // Same run count (and thus the same seeds) under BGPSDN_QUICK: point
  // values are virtual-time deterministic per seed, so a quick sweep's
  // shared labels stay median-identical to the committed full baseline and
  // check.sh can gate them at near-zero tolerance.
  const std::size_t runs = cli.runs_or(3);
  const std::uint64_t base_seed = cli.seed_or(kDefaultBaseSeed);

  const std::vector<std::size_t> il_sizes =
      quick ? std::vector<std::size_t>{100, 1000}
            : std::vector<std::size_t>{100, 1000, 10000};
  const std::vector<std::size_t> caida_sizes =
      quick ? std::vector<std::size_t>{100}
            : std::vector<std::size_t>{100, 1000};
  const std::size_t mem_size = il_sizes.back();

  std::vector<Cell> cells;
  for (const std::size_t size : il_sizes) {
    for (const auto event :
         {bench::EventKind::kWithdrawal, bench::EventKind::kAnnouncement}) {
      cells.push_back({"il" + std::to_string(size) + "_" +
                           framework::to_string(event),
                       framework::TopologyModel::kInternetLike, size, event,
                       runs, false});
    }
  }
  for (const std::size_t size : caida_sizes) {
    cells.push_back({"caida" + std::to_string(size) + "_withdrawal",
                     framework::TopologyModel::kSynthCaida, size,
                     bench::EventKind::kWithdrawal, runs, false});
  }
  // The memory cell: one seeded trial.
  cells.push_back({"mem_compact_" + std::to_string(mem_size),
                   framework::TopologyModel::kInternetLike, mem_size,
                   bench::EventKind::kWithdrawal, 1, true});

  // Task grid: cells have differing run counts, so flatten to (cell, run)
  // tasks by prefix sums rather than a rectangular grid.
  std::vector<std::size_t> first_task(cells.size() + 1, 0);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    first_task[c + 1] = first_task[c] + cells[c].runs;
  }
  const std::size_t tasks = first_task.back();

  std::printf("# convergence time [s] vs AS count (internet-like + synthetic "
              "CAIDA), %zu runs per sweep cell\n", runs);
  std::printf("# mem_* cell: one seeded trial; extras carry the "
              "deterministic mem model bytes\n");
  std::printf("%s\n", framework::boxplot_header("cell").c_str());

  const auto sweep = framework::run_sweep(
      tasks, 1, framework::default_jobs(), [&](std::size_t task, std::size_t) {
        const std::size_t c = static_cast<std::size_t>(
            std::upper_bound(first_task.begin(), first_task.end(), task) -
            first_task.begin() - 1);
        return run_cell(cells[c], base_seed + (task - first_task[c]));
      });
  const auto& results = sweep.results;

  framework::BenchReport report{"bench_scale"};
  core::MemStats cell_mem;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    std::vector<double> values, updates, decisions;
    for (std::size_t t = first_task[c]; t < first_task[c + 1]; ++t) {
      values.push_back(results[t].seconds);
      updates.push_back(static_cast<double>(results[t].updates_rx));
      decisions.push_back(static_cast<double>(results[t].decision_runs));
    }
    const auto summary = framework::summarize(values);
    std::printf("%s\n",
                framework::boxplot_row(cell.label, summary).c_str());
    telemetry::Json extra = telemetry::Json::object();
    extra["ases"] = static_cast<std::int64_t>(cell.size);
    extra["updates_rx_median"] = framework::quantile(updates, 0.5);
    extra["decision_runs_median"] = framework::quantile(decisions, 0.5);
    if (cell.mem_cell) {
      const core::MemStats& mem = results[first_task[c]].mem;
      extra["mem"] = mem_json(mem);
      std::printf("#   %s: rib %.1f MiB (in %.1f, loc %.1f, out %.1f), "
                  "attrs %.1f MiB, registry %.1f MiB\n",
                  cell.label.c_str(),
                  static_cast<double>(mem.rib_total()) / (1024.0 * 1024.0),
                  static_cast<double>(mem.rib_in) / (1024.0 * 1024.0),
                  static_cast<double>(mem.loc_rib) / (1024.0 * 1024.0),
                  static_cast<double>(mem.rib_out) / (1024.0 * 1024.0),
                  static_cast<double>(mem.attr_pool) / (1024.0 * 1024.0),
                  static_cast<double>(mem.attr_registry) / (1024.0 * 1024.0));
      cell_mem = mem;
    }
    report.add_point(cell.label, summary, values, std::move(extra));
  }
  framework::print_footer(sweep.timing);

  if (cli.want_json()) {
    telemetry::Json sizes = telemetry::Json::array();
    for (const std::size_t size : il_sizes) {
      sizes.push_back(static_cast<std::int64_t>(size));
    }
    telemetry::Json caida = telemetry::Json::array();
    for (const std::size_t size : caida_sizes) {
      caida.push_back(static_cast<std::int64_t>(size));
    }
    report.set_param("il_sizes", std::move(sizes));
    report.set_param("caida_sizes", std::move(caida));
    report.set_param("mem_size",
                     telemetry::Json{static_cast<std::int64_t>(mem_size)});
    report.set_param("origins",
                     telemetry::Json{static_cast<std::int64_t>(kOrigins)});
    report.set_param(
        "prefixes_per_origin",
        telemetry::Json{static_cast<std::int64_t>(kPrefixesPerOrigin)});
    report.set_param("runs", telemetry::Json{static_cast<std::int64_t>(runs)});
    // The memory cell's model bytes as flat counters — the `mem.*` block new
    // tooling keys on (all keys new in bgpsdn.bench/1 documents).
    report.add_counter("mem.rib_in",
                       static_cast<std::int64_t>(cell_mem.rib_in));
    report.add_counter("mem.loc_rib",
                       static_cast<std::int64_t>(cell_mem.loc_rib));
    report.add_counter("mem.rib_out",
                       static_cast<std::int64_t>(cell_mem.rib_out));
    report.add_counter("mem.attr_pool",
                       static_cast<std::int64_t>(cell_mem.attr_pool));
    report.add_counter("mem.attr_registry",
                       static_cast<std::int64_t>(cell_mem.attr_registry));
    report.add_counter("mem.flow_tables",
                       static_cast<std::int64_t>(cell_mem.flow_tables));
    report.add_counter("mem.speaker_ribs",
                       static_cast<std::int64_t>(cell_mem.speaker_ribs));
    report.add_counter("mem.total",
                       static_cast<std::int64_t>(cell_mem.total()));
    for (const auto& trial : results) report.add_counters(trial.counters);
    report.set_footer(sweep.timing);
    bench::finish_report(report, cli);
  }
  return bench::any_failed(sweep, &TrialResult::seconds) ? 1 : 0;
}
