// perfbench_driver — host-time benchmark of the emulator.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--fingerprints FILE] [--scale full|smoke]
//                    [--quiet-s SECONDS] [--record]
//
// Runs the workload's seeded trials back to back on this thread (a closed
// loop) while they fit in S host seconds, checks every trial's outputs and
// its determinism fingerprint, and prints one metric per line followed by
// one JSON result line. --trace 0 reports the end-to-end metrics; --trace 1
// alternates untraced and traced runs of each trial and reports the
// per-layer profile. --record runs every trial of the population once and
// writes its fingerprints instead.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "telemetry/json.hpp"
#include "workloads.hpp"

using perfbench::TrialInput;
using perfbench::TrialResult;
using perfbench::Workload;
using bgpsdn::telemetry::Json;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0};
  bool trace{false};
  std::string fingerprints;
  perfbench::Scale scale{perfbench::Scale::kFull};
  std::optional<double> quiet_s;
  bool record{false};
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload NAME "
               "--seed N --seconds S --trace 0|1 [--fingerprints FILE] "
               "[--scale full|smoke] [--quiet-s SECONDS] [--record]\n",
               message.c_str());
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !(value >= 0)) {
    usage(flag + " needs a non-negative number, got '" + text + "'");
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--record") {
      o.record = true;
      continue;
    }
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = static_cast<std::uint64_t>(parse_number(arg, value));
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = parse_number(arg, value);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--fingerprints") {
      o.fingerprints = value;
    } else if (arg == "--scale") {
      if (value != "full" && value != "smoke") usage("--scale: full|smoke");
      o.scale = value == "smoke" ? perfbench::Scale::kSmoke
                                 : perfbench::Scale::kFull;
    } else if (arg == "--quiet-s") {
      o.quiet_s = parse_number(arg, value);
    } else {
      usage("unknown argument '" + arg + "'");
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.fingerprints.empty()) usage("--fingerprints is required");
  if (!o.record && (!have_seed || !have_seconds)) {
    usage("--seed and --seconds are required");
  }
  return o;
}

std::optional<Json> read_json(const std::string& path) {
  std::ifstream in{path};
  if (!in) return std::nullopt;
  const std::string text{std::istreambuf_iterator<char>{in}, {}};
  return Json::parse(text);
}

/// The pool in the order the run seed draws (Fisher-Yates over splitmix64).
std::vector<TrialInput> seeded_order(std::vector<TrialInput> pool,
                                     std::uint64_t seed) {
  std::uint64_t state = seed;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[next() % i]);
  }
  return pool;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

template <typename Fn>
double median_of(const std::vector<TrialResult>& trials, Fn&& fn) {
  std::vector<double> v;
  v.reserve(trials.size());
  for (const auto& t : trials) v.push_back(fn(t));
  return median(std::move(v));
}

template <typename Fn>
double mean_of(const std::vector<TrialResult>& trials, Fn&& fn) {
  if (trials.empty()) return 0.0;
  double sum = 0;
  for (const auto& t : trials) sum += fn(t);
  return sum / static_cast<double>(trials.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::int64_t counter(const TrialResult& t, const char* name) {
  const auto it = t.counters.find(name);
  return it == t.counters.end() ? 0 : it->second;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> end_to_end(const std::vector<TrialResult>& t) {
  constexpr double kMiB = 1024.0 * 1024.0;
  return {
      {"setup_s", median_of(t, [](auto& r) { return r.setup_s(); }), "s"},
      {"bringup_s", median_of(t, [](auto& r) { return r.start_s; }), "s"},
      {"converge_s", median_of(t, [](auto& r) { return r.events_s; }), "s"},
      {"trial_s", median_of(t, [](auto& r) { return r.trial_s(); }), "s"},
      {"events_per_s",
       median_of(t,
                 [](auto& r) {
                   return ratio(static_cast<double>(r.events),
                                r.start_s + r.events_s);
                 }),
       "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"model_mb",
       median_of(t,
                 [](auto& r) { return static_cast<double>(r.mem.total()) / kMiB; }),
       "MB"},
  };
}

/// `traced` and `plain` are the two runs of the same trials, pairwise.
std::vector<Metric> per_layer(const std::vector<TrialResult>& traced,
                              const std::vector<TrialResult>& plain) {
  const auto& t = traced;
  const auto mean_counter = [&t](const char* name) {
    return mean_of(t, [name](auto& r) { return static_cast<double>(counter(r, name)); });
  };
  const auto mean_u64 = [&t](auto field) {
    return mean_of(t, [field](auto& r) { return static_cast<double>(field(r)); });
  };
  const auto mean_layer = [&t](double perfbench::LayerTimes::*field) {
    return mean_of(t, [field](auto& r) { return r.layers.*field; });
  };
  const double decision_runs = mean_counter("bgp.decision.runs");
  const double best_changes = mean_counter("bgp.decision.best_changes");
  const double prefix_recomputes =
      mean_u64([](auto& r) { return r.idr.prefix_recomputes; });
  const double fallbacks =
      mean_u64([](auto& r) { return r.idr.reference_fallbacks; });
  std::vector<double> overhead;
  for (std::size_t i = 0; i < t.size() && i < plain.size(); ++i) {
    overhead.push_back(ratio(t[i].trial_s(), plain[i].trial_s()));
  }
  using LT = perfbench::LayerTimes;
  return {
      {"core.events", mean_u64([](auto& r) { return r.events; }), "count"},
      {"core.ns_per_event",
       mean_of(plain,
               [](auto& r) {
                 return 1e9 * ratio(r.start_s + r.events_s,
                                    static_cast<double>(r.events));
               }),
       "ns"},
      {"core.log_records", mean_u64([](auto& r) { return r.log_records; }), "count"},
      {"core.log_bytes", mean_u64([](auto& r) { return r.log_bytes; }), "bytes"},
      {"bgp.updates_rx", mean_counter("bgp.session.updates_rx"), "count"},
      {"bgp.updates_tx", mean_counter("bgp.session.updates_tx"), "count"},
      {"bgp.nlri_per_update",
       ratio(mean_u64([](auto& r) { return r.rx_routes; }),
             mean_u64([](auto& r) { return r.rx_updates; })),
       "ratio"},
      {"bgp.session_transitions", mean_counter("bgp.session.transitions"), "count"},
      {"bgp.rx_host_s", mean_layer(&LT::bgp_rx_s), "s"},
      {"bgp.fsm_host_s", mean_layer(&LT::bgp_fsm_s), "s"},
      {"bgp.decision_runs", decision_runs, "count"},
      {"bgp.best_changes", best_changes, "count"},
      {"bgp.decision_useful", ratio(best_changes, decision_runs), "ratio"},
      {"bgp.decision_host_s", mean_layer(&LT::bgp_decision_s), "s"},
      {"bgp.tx_host_s", mean_layer(&LT::bgp_tx_s), "s"},
      {"bgp.mem_rib_in", mean_u64([](auto& r) { return r.mem.rib_in; }), "bytes"},
      {"bgp.mem_loc_rib", mean_u64([](auto& r) { return r.mem.loc_rib; }), "bytes"},
      {"bgp.mem_rib_out", mean_u64([](auto& r) { return r.mem.rib_out; }), "bytes"},
      {"bgp.mem_attr_pool", mean_u64([](auto& r) { return r.mem.attr_pool; }), "bytes"},
      {"bgp.mem_attr_registry",
       mean_u64([](auto& r) { return r.mem.attr_registry; }), "bytes"},
      {"bgp.model_bytes_per_as",
       mean_of(t,
               [](auto& r) {
                 return ratio(static_cast<double>(r.mem.total()),
                              static_cast<double>(r.ases));
               }),
       "bytes"},
      {"controller.recompute_passes",
       mean_u64([](auto& r) { return r.idr.recompute_passes; }), "count"},
      {"controller.prefixes_dirty",
       mean_u64([](auto& r) { return r.idr.prefixes_dirty; }), "count"},
      {"controller.prefix_recomputes", prefix_recomputes, "count"},
      {"controller.spt_vertices_replayed",
       mean_u64([](auto& r) { return r.idr.spt_vertices_replayed; }), "count"},
      {"controller.reference_fallbacks", fallbacks, "count"},
      {"controller.reference_fallback_ratio", ratio(fallbacks, prefix_recomputes),
       "ratio"},
      {"controller.flow_changes",
       mean_u64([](auto& r) { return r.idr.flow_adds + r.idr.flow_deletes; }),
       "count"},
      {"controller.input_host_s", mean_layer(&LT::ctrl_input_s), "s"},
      {"controller.decide_host_s", mean_layer(&LT::ctrl_decide_s), "s"},
      {"controller.compile_host_s", mean_layer(&LT::ctrl_compile_s), "s"},
      {"sdn.flow_mods", mean_counter("sdn.switch.flow_mods"), "count"},
      {"sdn.flow_mod_host_s", mean_layer(&LT::sdn_flow_mod_s), "s"},
      {"sdn.mem_flow_tables", mean_u64([](auto& r) { return r.mem.flow_tables; }),
       "bytes"},
      {"speaker.updates_rx", mean_counter("speaker.updates_rx"), "count"},
      {"speaker.announces_tx", mean_counter("speaker.announces_tx"), "count"},
      {"speaker.withdraws_tx", mean_counter("speaker.withdraws_tx"), "count"},
      {"speaker.host_s", mean_layer(&LT::speaker_s), "s"},
      {"speaker.mem_ribs", mean_u64([](auto& r) { return r.mem.speaker_ribs; }),
       "bytes"},
      {"topology.generate_s", mean_of(t, [](auto& r) { return r.topology_s; }),
       "s"},
      {"framework.build_s", mean_of(t, [](auto& r) { return r.build_s; }), "s"},
      {"framework.teardown_s", mean_of(t, [](auto& r) { return r.teardown_s; }),
       "s"},
      {"framework.wait_runs", mean_counter("framework.wait_converged.runs"), "count"},
      {"telemetry.trace_spans", mean_u64([](auto& r) { return r.spans; }), "count"},
      {"telemetry.trace_overhead", median(std::move(overhead)), "ratio"},
      {"telemetry.traced_wall_s", mean_of(t, [](auto& r) { return r.trial_s(); }),
       "s"},
      {"other_host_s", mean_layer(&LT::other_s), "s"},
  };
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int record(const Options& o, const Workload& w) {
  Json all = read_json(o.fingerprints).value_or(Json::object());
  if (!all.is_object()) all = Json::object();
  Json entries = Json::object();
  int failed = 0;
  for (const TrialInput& input : w.pool) {
    const TrialResult r = perfbench::run_trial(w, input, false);
    if (!r.failure.empty()) {
      std::fprintf(stderr, "%s %s: %s\n", w.name.c_str(), input.key().c_str(),
                   r.failure.c_str());
      ++failed;
    }
    entries[input.key()] = r.fingerprint();
    std::printf("%s %s %s trial_s=%.3f\n", w.name.c_str(), input.key().c_str(),
                r.fingerprint().c_str(), r.trial_s());
    std::fflush(stdout);
  }
  all[w.name] = std::move(entries);
  std::ofstream out{o.fingerprints};
  out << all.dump() << '\n';
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", o.fingerprints.c_str());
    return 1;
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  std::optional<Workload> workload = perfbench::make_workload(o.workload, o.scale);
  if (!workload) usage("unknown workload '" + o.workload + "'");
  Workload& w = *workload;
  if (o.quiet_s) {
    w.quiet = bgpsdn::core::Duration::nanos(
        static_cast<std::int64_t>(*o.quiet_s * 1e9));
  }
  if (o.record) return record(o, w);

  const std::optional<Json> all = read_json(o.fingerprints);
  const Json* recorded = all ? all->find(w.name) : nullptr;
  if (recorded == nullptr) {
    std::fprintf(stderr, "no fingerprints for %s in %s\n", w.name.c_str(),
                 o.fingerprints.c_str());
    return 1;
  }

  std::size_t attempted = 0, failed = 0;
  // Counts a trial, checking its outputs and its recorded fingerprint.
  const auto account = [&](const TrialInput& input, TrialResult& r) {
    ++attempted;
    std::fprintf(stderr, "trial %s%s: setup %.4f s, bring-up %.4f s, "
                 "events %.4f s, teardown %.4f s\n",
                 input.key().c_str(), r.spans > 0 ? " (traced)" : "",
                 r.setup_s(), r.start_s, r.events_s, r.teardown_s);
    const Json* want = recorded->find(input.key());
    if (r.failure.empty() && (want == nullptr || !want->is_string() ||
                              want->as_string() != r.fingerprint())) {
      r.failure = "fingerprint " + r.fingerprint() + " differs from the record";
      std::fprintf(stderr, "  %s\n", r.fingerprint_text().c_str());
    }
    if (!r.failure.empty()) {
      ++failed;
      std::fprintf(stderr, "%s %s: FAILED: %s\n", w.name.c_str(),
                   input.key().c_str(), r.failure.c_str());
    }
  };

  const std::vector<TrialInput> order = seeded_order(w.pool, o.seed);
  std::vector<TrialResult> plain, traced;
  // Untraced runs go in whole passes over the population, so that every
  // run's medians cover the same trial mix. Traced runs, which report means
  // and take twice as long per trial, go trial by trial. Either stops before
  // the step that would overrun the budget, judged by the mean step so far;
  // the first step always runs.
  const std::size_t step = o.trace ? 1 : order.size();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i % step == 0 && i > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const auto steps = static_cast<double>(i / step);
      if (elapsed * (steps + 1) / steps > o.seconds) break;
    }
    const TrialInput& input = order[i % order.size()];
    plain.push_back(perfbench::run_trial(w, input, false));
    account(input, plain.back());
    if (o.trace) {
      // Checked against the same record: tracing must not perturb the run.
      traced.push_back(perfbench::run_trial(w, input, true));
      account(input, traced.back());
    }
  }

  const std::vector<Metric> metrics =
      o.trace ? per_layer(traced, plain) : end_to_end(plain);
  std::printf("# %s: %zu trials (%s), seed %llu, %zu failed\n", w.name.c_str(),
              o.trace ? traced.size() : plain.size(),
              o.trace ? "traced; per-layer means, overhead median"
                      : "untraced; medians",
              static_cast<unsigned long long>(o.seed), failed);
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
