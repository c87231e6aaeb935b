#!/usr/bin/env bash
# Full local check: configure, build, test, smoke-run benches and examples,
# then a ThreadSanitizer pass over the parallel trial machinery.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prefer Ninja when installed; fall back to the default generator otherwise.
GENERATOR=()
if command -v ninja > /dev/null 2>&1; then
  GENERATOR=(-G Ninja)
fi

cmake -B build "${GENERATOR[@]}"
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure

# Lint job: the project-invariant analyzer (tools/lint) must report zero
# fresh findings against the committed baseline over the whole repo —
# src, tools, bench, examples AND tests. Rules and the suppression pragma
# syntax are documented in DESIGN.md §10; regenerate the baseline with
# --write-baseline only when a finding is intentional, and fill in the
# reason every bgpsdn.lint/2 entry requires. --fail-stale keeps the waiver
# list honest: an entry that matches no current finding fails the gate.
# This run also re-exports the include graph; the committed copy in
# docs/include-graph.dot must match it (refresh step below).
echo "===== bgpsdn_lint"
mkdir -p build/json
./build/tools/lint/bgpsdn_lint --baseline lint_baseline.json --fail-stale \
  --dump-include-graph build/json/include-graph.dot
if ! cmp -s docs/include-graph.dot build/json/include-graph.dot; then
  cp build/json/include-graph.dot docs/include-graph.dot
  echo "docs/include-graph.dot was out of date; refreshed — commit it" >&2
  exit 1
fi
# Self-tests: one deliberately planted violation per analyzer pass must
# make the gate fail, so a silently broken pass can't hide behind a green
# suite. D1 covers the token scanner, A1 the include-graph pass, A2 the
# hot-path allocation pass, D4/D5 the emitter-ordering rules, and the
# stale check covers baseline bookkeeping.
LINT_TMP="$(mktemp -d)"
trap 'rm -rf "$LINT_TMP"' EXIT
cat > "$LINT_TMP/injected.cpp" <<'EOF'
#include <chrono>
long bad() {
  auto t = std::chrono::system_clock::now();
  return t.time_since_epoch().count();
}
EOF
if ./build/tools/lint/bgpsdn_lint --quiet "$LINT_TMP/injected.cpp"; then
  echo "bgpsdn_lint self-test FAILED: injected D1 violation not reported" >&2
  exit 1
fi
mkdir -p "$LINT_TMP/src/core"
printf '#pragma once\n#include "framework/report.hpp"\n' \
  > "$LINT_TMP/src/core/injected_upward.hpp"
if ./build/tools/lint/bgpsdn_lint --quiet --layers tools/lint/layers.txt \
    "$LINT_TMP/src"; then
  echo "bgpsdn_lint self-test FAILED: upward include not reported" >&2
  exit 1
fi
cat > "$LINT_TMP/injected_hotpath.cpp" <<'EOF'
#include <memory>
// lint: hotpath(self-test: allocation below must be flagged)
int f() { auto p = std::make_unique<int>(1); return *p; }
EOF
if ./build/tools/lint/bgpsdn_lint --quiet "$LINT_TMP/injected_hotpath.cpp"; then
  echo "bgpsdn_lint self-test FAILED: hot-path allocation not reported" >&2
  exit 1
fi
cat > "$LINT_TMP/injected_ptrorder.cpp" <<'EOF'
#include "telemetry/json.hpp"
#include <set>
struct Node { int id; };
std::set<Node*> order_nodes() { return {}; }
EOF
if ./build/tools/lint/bgpsdn_lint --quiet "$LINT_TMP/injected_ptrorder.cpp"; then
  echo "bgpsdn_lint self-test FAILED: pointer-keyed set not reported" >&2
  exit 1
fi
cat > "$LINT_TMP/injected_floatorder.cpp" <<'EOF'
#include "telemetry/json.hpp"
#include <vector>
double total(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum;
}
EOF
if ./build/tools/lint/bgpsdn_lint --quiet \
    "$LINT_TMP/injected_floatorder.cpp"; then
  echo "bgpsdn_lint self-test FAILED: float accumulation not reported" >&2
  exit 1
fi
mkdir -p "$LINT_TMP/clean"
printf 'int stale_probe = 0;\n' > "$LINT_TMP/clean/ok.cpp"
cat > "$LINT_TMP/stale_baseline.json" <<'EOF'
{"schema":"bgpsdn.lint/2","findings":[{"file":"deleted_long_ago.cpp",
"line":1,"rule":"D1","token":"time()","message":"planted",
"reason":"self-test: waived code no longer exists"}]}
EOF
if ./build/tools/lint/bgpsdn_lint --quiet --fail-stale \
    --baseline "$LINT_TMP/stale_baseline.json" "$LINT_TMP/clean"; then
  echo "bgpsdn_lint self-test FAILED: stale waiver not rejected" >&2
  exit 1
fi
echo "bgpsdn_lint: self-tests ok (D1, A1, A2, D4, D5, stale waiver)"

# clang-tidy job: the curated check set in .clang-tidy runs over the
# compilation database exported by CMake. clang-tidy is an optional tool;
# soft-skip with a warning when it is not installed (same policy as the
# python3/jq fallbacks below).
echo "===== clang-tidy"
if command -v clang-tidy > /dev/null 2>&1; then
  mapfile -t TIDY_SOURCES < <(git ls-files 'src/*.cpp' 'tools/*.cpp')
  clang-tidy -p build --quiet "${TIDY_SOURCES[@]}"
else
  echo "WARNING: clang-tidy not found; skipping clang-tidy job" >&2
fi

# Quick (3-run) versions of every experiment bench, at the machine's
# parallelism (BGPSDN_JOBS caps the trial worker pool; see README).
for b in build/bench/bench_*; do
  echo "===== $b"
  BGPSDN_QUICK=1 BGPSDN_JOBS="$(nproc)" "$b"
done

# Examples and scenario scripts must run cleanly.
for e in quickstart internet_like video_stream subclusters; do
  echo "===== examples/$e"
  "./build/examples/$e" > /dev/null
done
./build/examples/withdrawal_clique 8 > /dev/null
for s in scenarios/*.bgpsdn; do
  echo "===== $s"
  ./build/tools/bgpsdn_run "$s" > /dev/null
  ./build/tools/bgpsdn_run --trials 4 "$s" > /dev/null
done
# Externally-supplied fault plans compose with any scenario.
echo "===== scenarios/chaos_recovery.bgpsdn --faults scenarios/chaos.plan"
./build/tools/bgpsdn_run --faults scenarios/chaos.plan \
  scenarios/chaos_recovery.bgpsdn > /dev/null
echo "===== scenarios/ha_chaos.bgpsdn --faults scenarios/ha_chaos.plan"
./build/tools/bgpsdn_run --faults scenarios/ha_chaos.plan \
  scenarios/ha_chaos.bgpsdn > /dev/null
# The churn scenario's link-flap train: the printed output (routes,
# reachability, traces) must match scenarios/churn.expected byte for byte.
# The file was recorded while the retired from-scratch recomputation engine
# still ran beside the incremental one and both printed it.
echo "===== scenarios/churn.bgpsdn --faults scenarios/churn.plan (expected output)"
mkdir -p build/json
./build/tools/bgpsdn_run --faults scenarios/churn.plan \
  scenarios/churn.bgpsdn > build/json/churn.out
diff scenarios/churn.expected build/json/churn.out \
  || { echo "churn scenario output moved" >&2; exit 1; }

# HA chaos job: the replicated-controller scenario (elections, partition
# deposal, full degradation + recovery) must emit byte-identical trial JSON
# at BGPSDN_JOBS=1 and 4 — the determinism guard on the replica set's
# private rng fork, election jitter, and replication-channel timers.
echo "===== scenarios/ha_chaos.bgpsdn (jobs=1 vs 4)"
BGPSDN_JOBS=1 ./build/tools/bgpsdn_run --trials 4 \
  --json build/json/ha_j1.json scenarios/ha_chaos.bgpsdn > /dev/null
BGPSDN_JOBS=4 ./build/tools/bgpsdn_run --trials 4 \
  --json build/json/ha_j4.json scenarios/ha_chaos.bgpsdn > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 - <<'EOF'
import json, sys
docs = []
for jobs in (1, 4):
    with open(f"build/json/ha_j{jobs}.json") as f:
        doc = json.load(f)
    doc.pop("footer", None)  # wall-clock + jobs count legitimately differ
    docs.append(json.dumps(doc, sort_keys=True))
if docs[0] != docs[1]:
    sys.exit("ha_chaos: trial JSON differs between BGPSDN_JOBS=1 and 4")
print("ha_chaos: byte-identical across jobs counts (footer excluded)")
EOF
else
  echo "WARNING: python3 not found; skipping ha_chaos determinism diff" >&2
fi

# Matrix-runner job: every shipped .matrix file must expand, and the smoke
# matrix (2x2 on a 5-AS clique) must emit byte-identical summary JSON at
# BGPSDN_JOBS=1 and 4 (footer excluded) — the determinism guard on the
# ExperimentSpec/MatrixSpec path. --filter subsetting rides along.
echo "===== scenarios/smoke.matrix (bgpsdn_matrix, jobs=1 vs 4)"
for m in scenarios/*.matrix; do
  ./build/tools/bgpsdn_matrix --list "$m" > /dev/null
done
BGPSDN_QUICK=1 BGPSDN_JOBS=1 ./build/tools/bgpsdn_matrix \
  --json build/json/matrix_j1.json scenarios/smoke.matrix > /dev/null
BGPSDN_QUICK=1 BGPSDN_JOBS=4 ./build/tools/bgpsdn_matrix \
  --json build/json/matrix_j4.json scenarios/smoke.matrix > /dev/null
BGPSDN_QUICK=1 BGPSDN_JOBS=4 ./build/tools/bgpsdn_matrix \
  --filter event=withdrawal --json build/json/matrix_filtered.json \
  scenarios/smoke.matrix > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 - <<'EOF'
import json, sys
docs = []
for jobs in (1, 4):
    with open(f"build/json/matrix_j{jobs}.json") as f:
        doc = json.load(f)
    doc.pop("footer", None)  # wall-clock + jobs count legitimately differ
    docs.append(json.dumps(doc, sort_keys=True))
if docs[0] != docs[1]:
    sys.exit("matrix: summary JSON differs between BGPSDN_JOBS=1 and 4")
print("matrix: byte-identical across jobs counts (footer excluded)")
EOF
else
  echo "WARNING: python3 not found; skipping matrix determinism diff" >&2
fi
# A trial whose convergence wait times out is a failed trial: here a
# 6000-cycle flap train at a 1 s period outlasts the 3600 s wait budget,
# so the matrix must exit non-zero rather than print the budget as a
# convergence time.
printf 'topology clique 4\nmrai 0.3\nfault 0 flap 1 2 6000 1\naxis event withdrawal announcement\n' \
  > "$LINT_TMP/timeout.matrix"
if ./build/tools/bgpsdn_matrix --trials 1 "$LINT_TMP/timeout.matrix" \
    > /dev/null 2>&1; then
  echo "matrix: a timed-out trial exited 0" >&2
  exit 1
fi
echo "matrix: timed-out trials fail the run"

# JSON-output job: every --json emitter must produce a document that still
# matches the frozen bgpsdn.bench/1 schema. Validated with the stdlib-only
# python checker; falls back to a structural jq check; warns when neither
# tool is installed.
echo "===== bench json schema"
mkdir -p build/json
BGPSDN_QUICK=1 BGPSDN_JOBS="$(nproc)" \
  ./build/bench/bench_fig2_withdrawal --json build/json/fig2.json > /dev/null
BGPSDN_QUICK=1 BGPSDN_JOBS="$(nproc)" \
  ./build/bench/bench_chaos --json build/json/chaos.json > /dev/null
BGPSDN_QUICK=1 BGPSDN_JOBS="$(nproc)" \
  ./build/bench/bench_ablation_recompute --json build/json/ablation.json \
  > /dev/null
./build/tools/bgpsdn_run --json build/json/run_single.json \
  scenarios/fig2_point.bgpsdn > /dev/null
./build/tools/bgpsdn_run --trials 4 --json build/json/run_trials.json \
  scenarios/fig2_point.bgpsdn > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/validate_bench_json.py \
    build/json/fig2.json build/json/chaos.json build/json/ablation.json \
    build/json/run_single.json build/json/run_trials.json \
    build/json/matrix_j1.json build/json/matrix_filtered.json
elif command -v jq > /dev/null 2>&1; then
  for j in build/json/fig2.json build/json/chaos.json \
           build/json/run_single.json \
           build/json/run_trials.json \
           build/json/matrix_j1.json; do
    jq -e '.schema == "bgpsdn.bench/1"
           and (.bench | type == "string")
           and (.params | type == "object")
           and (.points | type == "array")
           and (.counters | type == "object")
           and (.footer | has("trials") and has("jobs") and has("wall_s"))' \
      "$j" > /dev/null || { echo "schema drift in $j" >&2; exit 1; }
    echo "$j: ok (jq)"
  done
else
  echo "WARNING: neither python3 nor jq found; skipping JSON schema check" >&2
fi

# Determinism job: every seeded sweep bench must emit byte-identical points
# and counters whether trials run serially or on a 4-worker pool, and each
# document must match the schema. Only the footer (wall-clock timings, jobs
# count) may differ. This is the end-to-end guard on the interning pools,
# shared encode buffers, the reworked event loop and the sweep runner: any
# cross-trial state leak shows up here. bench_scale has its own job below.
echo "===== bench json determinism (BGPSDN_JOBS=1 vs 4)"
if command -v python3 > /dev/null 2>&1; then
  SWEEP_BENCHES=(fig2_withdrawal failover announcement chaos
                 ablation_recompute ablation_mrai ablation_damping
                 routeflow_comparison subcluster)
  for b in "${SWEEP_BENCHES[@]}"; do
    for jobs in 1 4; do
      BGPSDN_QUICK=1 BGPSDN_JOBS=$jobs \
        "./build/bench/bench_$b" --json "build/json/${b}_j$jobs.json" > /dev/null
    done
  done
  BGPSDN_JOBS=1 ./build/tools/bgpsdn_run --trials 4 \
    --json build/json/trials_j1.json scenarios/fig2_point.bgpsdn > /dev/null
  BGPSDN_JOBS=4 ./build/tools/bgpsdn_run --trials 4 \
    --json build/json/trials_j4.json scenarios/fig2_point.bgpsdn > /dev/null
  python3 - "${SWEEP_BENCHES[@]}" trials <<'EOF'
import json, sys
for name in sys.argv[1:]:
    docs = []
    for jobs in (1, 4):
        with open(f"build/json/{name}_j{jobs}.json") as f:
            doc = json.load(f)
        doc.pop("footer", None)  # wall-clock + jobs count legitimately differ
        docs.append(json.dumps(doc, sort_keys=True))
    if docs[0] != docs[1]:
        sys.exit(f"{name}: bench JSON differs between BGPSDN_JOBS=1 and 4")
    print(f"{name}: byte-identical across jobs counts (footer excluded)")
EOF
  python3 scripts/validate_bench_json.py \
    $(printf 'build/json/%s_j1.json ' "${SWEEP_BENCHES[@]}")
else
  echo "WARNING: python3 not found; skipping determinism diff" >&2
fi

# Seed job: --seed moves a bench's base seed, so one trial at seed D+1
# must reproduce, point for point, the second trial of a two-trial run at
# the bench's default base seed D.
echo "===== bench --seed (chaos, routeflow_comparison)"
if command -v python3 > /dev/null 2>&1; then
  SEEDED_BENCHES=(chaos:9000 routeflow_comparison:6000)
  for entry in "${SEEDED_BENCHES[@]}"; do
    b="${entry%%:*}"
    d="${entry##*:}"
    BGPSDN_JOBS="$(nproc)" "./build/bench/bench_$b" --trials 2 \
      --json "build/json/${b}_trials2.json" > /dev/null
    BGPSDN_JOBS="$(nproc)" "./build/bench/bench_$b" --trials 1 \
      --seed "$((d + 1))" --json "build/json/${b}_seed1.json" > /dev/null
  done
  python3 - "${SEEDED_BENCHES[@]%%:*}" <<'EOF'
import json, sys
for name in sys.argv[1:]:
    with open(f"build/json/{name}_trials2.json") as f:
        two = {p["label"]: p["values"] for p in json.load(f)["points"]}
    with open(f"build/json/{name}_seed1.json") as f:
        one = {p["label"]: p["values"] for p in json.load(f)["points"]}
    if sorted(one) != sorted(two):
        sys.exit(f"{name}: --seed run has other points than the default run")
    for label, values in one.items():
        if values != two[label][1:2]:
            sys.exit(f"{name}: {label}: --seed D+1 read {values}, "
                     f"the default run's second trial {two[label][1:2]}")
    print(f"{name}: --seed D+1 reproduces the second trial of every point")
EOF
else
  echo "WARNING: python3 not found; skipping bench --seed check" >&2
fi

# Scale job: the AS-count sweep (capped at 1k ASes under BGPSDN_QUICK) must
# emit byte-identical JSON across job counts, match the bench_scale schema —
# including the memory cell's mem.* block and its mirror in the top-level
# counters — and hold its convergence medians against the committed
# full-sweep baseline. Medians are virtual time (deterministic per seed),
# so the tolerance is near-zero; the quick sweep skips the 10k cells, hence
# --allow-missing. Exact RIB and registry bytes are pinned elsewhere: by
# the perfbench fingerprints (perfbench job below) and by the framework
# golden captures. Refresh after an intentional change with:
#   ./build/bench/bench_scale --json BENCH_baseline_scale.json
echo "===== bench_scale (jobs=1 vs 4, schema, perf gate)"
if command -v python3 > /dev/null 2>&1; then
  BGPSDN_QUICK=1 BGPSDN_JOBS=1 \
    ./build/bench/bench_scale --json build/json/scale_j1.json > /dev/null
  BGPSDN_QUICK=1 BGPSDN_JOBS=4 \
    ./build/bench/bench_scale --json build/json/scale_j4.json > /dev/null
  python3 - <<'EOF'
import json, sys
docs = []
for jobs in (1, 4):
    with open(f"build/json/scale_j{jobs}.json") as f:
        doc = json.load(f)
    doc.pop("footer", None)  # wall-clock + jobs count legitimately differ
    docs.append(json.dumps(doc, sort_keys=True))
if docs[0] != docs[1]:
    sys.exit("bench_scale: JSON differs between BGPSDN_JOBS=1 and 4")
print("bench_scale: byte-identical across jobs counts (footer excluded)")
EOF
  python3 scripts/validate_bench_json.py build/json/scale_j1.json
  python3 scripts/compare_bench.py build/json/scale_j1.json \
    --baseline BENCH_baseline_scale.json --tolerance 0.01 --allow-missing
else
  echo "WARNING: python3 not found; skipping bench_scale checks" >&2
fi

# Virtual-time gates: the churn ablation and the failover bench against
# their committed baselines. Their medians are virtual time, so they are
# deterministic and gated at 1 %: any drift is a behaviour change, never
# host noise, and they run before any host-time gate.
echo "===== virtual-time gates (ablation, HA)"
if command -v python3 > /dev/null 2>&1; then
  # Churn-ablation gate: any drift means the recomputation change altered
  # convergence behaviour. Refresh after an intentional change with:
  #   BGPSDN_QUICK=1 ./build/bench/bench_ablation_recompute \
  #     --json BENCH_baseline_recompute.json
  python3 scripts/compare_bench.py build/json/ablation.json \
    --baseline BENCH_baseline_recompute.json --tolerance 0.01
  # Failover gate against the committed HA baseline: any drift means an
  # election-timing or replication change altered recovery behaviour.
  # Refresh after an intentional change with:
  #   BGPSDN_QUICK=1 ./build/bench/bench_chaos --json BENCH_baseline_ha.json
  python3 scripts/compare_bench.py build/json/chaos.json \
    --baseline BENCH_baseline_ha.json --tolerance 0.01
else
  echo "WARNING: python3 not found; skipping virtual-time gates" >&2
fi

# Perfbench job: the host-time benchmark's self-test, then one untraced
# pass of each workload (perfbench/README.md). Every trial checks its
# routes and hashes its deterministic outputs (events, counters, log
# volume, model bytes) against the committed perfbench/fingerprints.json,
# so this is the local gate that a speed change left simulated behaviour
# alone. A result with any failed trial fails the job.
echo "===== perfbench (self-test, one pass per workload)"
if command -v python3 > /dev/null 2>&1; then
  python3 perfbench/test_perfbench.py
  for w in internet_bgp internet_hybrid fig2_sweep; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 \
      > "build/json/perfbench_$w.out"
  done
  python3 - <<'EOF'
import json, sys
for w in ("internet_bgp", "internet_hybrid", "fig2_sweep"):
    with open(f"build/json/perfbench_{w}.out") as f:
        result = json.loads(f.read().strip().splitlines()[-1])
    if result["attempted"] == 0 or result["failed"] != 0:
        sys.exit(f"perfbench {w}: {result['failed']} of "
                 f"{result['attempted']} trials failed")
    print(f"perfbench {w}: {result['attempted']} trials, none failed")
EOF
else
  echo "WARNING: python3 not found; skipping perfbench job" >&2
fi

# ASan+UBSan job: the fault-injection, crash-recovery and corruption-fuzz
# paths deliberately feed sessions garbage bytes and tear subsystems down
# mid-flight — exactly where lifetime and UB bugs would hide. Rebuild with
# both sanitizers and run every fault/chaos/fuzz test, plus the refcounted
# hot-path machinery: the attribute-interning pool (weak_ptr sweep,
# canonical lifetime, one pool per experiment), the cached encode
# images, the COW byte payloads, the slot-slab event loop under churn,
# the router's once-per-UPDATE import and its export fan-out (borrowed
# Loc-RIB winners, flat dirty sets, UPDATE packing), and the slab RIB (memmoved candidate spans, backshift deletion in
# the open-addressing tables, the attribute registry) through its
# oracle-diff fuzzers and the framework golden captures, the decision
# ladder over candidate views that point into the slab and the registry,
# and the
# controller's per-prefix tree bookkeeping (the decider oracle sweep and
# the bridged-prefix regression). Sessions hold references to the
# environment they are built with, and the session, speaker and
# AS-topology fixtures own the network their nodes live in, so the FSM,
# Loc-RIB, AS-topology, sub-cluster and speaker suites run here too, to
# catch a fixture that tears its environment down first. The
# configuration front end rides along: the scenario DSL, matrix and
# fault-plan grammars, their seeded
# mutation fuzz and the CAIDA/iPlane dataset parsers. GCC's
# `undefined` group leaves out float-cast-overflow, the UB a NaN or
# out-of-range number would hit on its way into an integer field, so it
# is named explicitly.
echo "===== asan+ubsan"
SANITIZERS="address,undefined,float-cast-overflow"
cmake -B build-asan "${GENERATOR[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=$SANITIZERS -fno-sanitize-recover=all -g" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=$SANITIZERS"
cmake --build build-asan -j "$(nproc)" \
  --target test_framework test_bgp test_net test_core test_controller \
  test_topology test_speaker bgpsdn_run bgpsdn_matrix
./build-asan/tests/test_framework \
  --gtest_filter='FaultPlanParse.*:FaultInjector.*:FaultDsl.*:FaultDeterminism.*:CrashRecovery.*:HybridExperiment.AttrPoolBelongsToItsExperiment:HybridExperiment.BridgedPrefixReroutesAfterClusterLinkFailure:*LayoutEquivalence.*:ScenarioNumbers.*:MatrixNumbers.*:ConfigText.*:ConfigFuzz.*:Scenario.*:Matrix.*'
./build-asan/tests/test_topology --gtest_filter='Datasets.*'
./build-asan/tests/test_controller \
  --gtest_filter='ReplicaSet*:IncrementalDeciderOracle.*:AsTopologyTest.*:SubClusterTest.*'
./build-asan/tests/test_speaker --gtest_filter='SpeakerTest.*'
# The HA chaos scenario + plan under ASan: elections, partition deposal and
# the degrade/recover hooks all tear subsystems down mid-flight.
./build-asan/tools/bgpsdn_run --faults scenarios/ha_chaos.plan \
  scenarios/ha_chaos.bgpsdn > /dev/null
./build-asan/tests/test_bgp \
  --gtest_filter='*CodecFuzz*:*LiveSessionFuzz*:AttrIntern.*:EncodeShared.*:ExportFanOut.*:ImportOncePerUpdate.*:PolicyEngine.*:RouterUnits.*:PrefixSet.*:MraiWindow.*:*LayoutEquivalence.*:PrefixTableFuzz.*:AdjRibInDefrag.*:AttrRegistry.*:AdjRibIn.*:Decision.*:SessionFsmTest.*:LocRib.*'
./build-asan/tests/test_net \
  --gtest_filter='*LinkParams*:*RuntimeLoss*:*Corruption*:Bytes.*'
./build-asan/tests/test_core --gtest_filter='EventLoop.*'
# Malformed-input smoke, on the sanitized binaries: each surface must
# reject its bad value with the one diagnostic and a non-zero exit.
echo "===== malformed-input smoke"
printf 'mrai nan\ntopology clique 3\nstart\n' > "$LINT_TMP/nan.bgpsdn"
printf 'topology clique 4\naxis sdn-frac nan\n' > "$LINT_TMP/nan.matrix"
expect_rejected() {
  local want="$1" out
  shift
  if out="$("$@" 2>&1)"; then
    echo "malformed-input smoke FAILED: '$*' exited 0" >&2
    exit 1
  fi
  if ! grep -qF -- "$want" <<< "$out"; then
    echo "malformed-input smoke FAILED: '$*' printed '$out'" >&2
    exit 1
  fi
}
expect_rejected "line 1: bad mrai 'nan' (want seconds in [0, 1e9])" \
  ./build-asan/tools/bgpsdn_run "$LINT_TMP/nan.bgpsdn"
expect_rejected "line 2: bad sdn-frac 'nan' (want [0, 1])" \
  ./build-asan/tools/bgpsdn_matrix --list "$LINT_TMP/nan.matrix"
expect_rejected "--base-seed: bad seed '-1' (want 0..18446744073709551615)" \
  ./build-asan/tools/bgpsdn_run --base-seed -1 --trials 2 \
  scenarios/fig2_point.bgpsdn
echo "malformed-input smoke: ok"

# ThreadSanitizer job: rebuild the test binaries with -fsanitize=thread and
# run everything that exercises the parallel trial runners. Simulations are
# single-threaded by design; this guards the one place threads meet — the
# trial pool and seed-ordered result collection.
echo "===== tsan"
cmake -B build-tsan "${GENERATOR[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan -j "$(nproc)" \
  --target test_framework test_core test_controller
./build-tsan/tests/test_framework \
  --gtest_filter='Determinism.*:FaultDeterminism.*:TrialRunnerParallel.*:ParamSweepRunnerParallel.*:TrialSweepParallel.*:ParallelForIndex.*:DefaultJobs.*:IncrementalEquivalence.ByteIdenticalAcrossJobCounts:*LayoutEquivalence.ByteIdenticalAcrossJobCounts'
./build-tsan/tests/test_core --gtest_filter='EventLoop.*'
./build-tsan/tests/test_controller --gtest_filter='ReplicaSetDeterminism.*'

# Release job: the optimized build must compile cleanly too. The library
# targets build with -Werror, and GCC reports some diagnostics (such as
# -Wstringop-overflow) only at -O3.
echo "===== release build"
cmake -B build-release "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "$(nproc)"

# Perf job, last because it is the one host-time gate: micro-bench medians
# against the committed baseline. Each bench runs 5 repetitions, and its
# point carries the median and quartiles of the 5 per-iteration times.
# Tolerance is 25% because this runs on whatever machine the developer
# has; it exists to catch regressions in the hot paths (event loop, flow
# lookup, fan-out encode, interning, in-place log formatting), not to
# police noise. Every deterministic gate above has run by now, so host
# noise here cannot hide them. Refresh the baseline with:
#   ./build/bench/bench_micro --benchmark_repetitions=5 \
#     --json BENCH_baseline.json
echo "===== perf gate"
if command -v python3 > /dev/null 2>&1; then
  ./build/bench/bench_micro --benchmark_repetitions=5 \
    --json build/json/micro.json > /dev/null
  python3 scripts/compare_bench.py build/json/micro.json \
    --baseline BENCH_baseline.json --tolerance 0.25
else
  echo "WARNING: python3 not found; skipping perf gate" >&2
fi

echo "ALL CHECKS PASSED"
