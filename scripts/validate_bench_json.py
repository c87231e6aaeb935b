#!/usr/bin/env python3
"""Validate a bgpsdn.bench/1 JSON document against the frozen schema.

Usage: validate_bench_json.py FILE...

Exit 0 when every file conforms; exit 1 (with a message naming the first
offence) on schema drift. Only the standard library is used.

The schema (see src/framework/report.hpp):
  schema    "bgpsdn.bench/1"
  bench     non-empty string
  params    object (free-form scalar values)
  points    array of {label, n, min, q1, median, q3, max, mean, stddev,
                      values[], extra{}}
  counters  object of integer values
  footer    {trials, jobs, wall_s, serial_equivalent_s, speedup,
             trials_per_s}
"""
import json
import sys

SCHEMA = "bgpsdn.bench/1"
TOP_KEYS = {"schema", "bench", "params", "points", "counters", "footer"}
POINT_KEYS = {
    "label", "n", "min", "q1", "median", "q3", "max", "mean", "stddev",
    "values", "extra",
}
FOOTER_KEYS = {
    "trials", "jobs", "wall_s", "serial_equivalent_s", "speedup",
    "trials_per_s",
}
NUMBER = (int, float)

# bench_chaos documents additionally promise these fields: the sweep
# parameters and, on every point, the armed fault plan.
CHAOS_PARAMS = {"clique_size", "members", "runs", "timeout_s"}
CHAOS_LABELS = {
    "bgp_linkfail", "hybrid_linkfail", "degraded_linkfail", "ctrl_crash",
    "ctrl_restart", "speaker_restart",
    "ha_failover_r1", "ha_failover_r2", "ha_failover_r3", "ha_failover_r4",
    "ha_failover_r5",
}
# Replication-factor sweep points additionally carry the failover-hiccup
# observables. r1 is the single-controller baseline (full degradation);
# r>=2 must beat it, and beat it into the sub-second regime.
CHAOS_HA_EXTRAS = (
    "replicas", "flow_mods_replayed_median", "election_latency_s_median",
)

# ablation_recompute documents carry two sweeps: the recompute-delay sweep
# (each point reporting the recompute_batch span cost) and the churn
# ablation of the delta-SPT engine. The from-scratch engine it replaced was
# retired from the program; its last run on the same flap trains is kept
# here as constants (DESIGN.md §11). Per flap count: the convergence median
# both engines reached (virtual time, so it must match exactly), and the
# vertices the retired engine settled, which the delta engine's settle work
# must stay at least 5x below.
ABLATION_DELAY_LABELS = {
    "delay0.0s", "delay0.5s", "delay1.0s", "delay2.0s", "delay4.0s",
    "delay8.0s",
}
ABLATION_CHURN_RETIRED = {  # flaps: (convergence median s, settles)
    2: (244, 144),
    6: (732, 432),
    12: (1464, 864),
}
ABLATION_CHURN_EXTRAS = (
    "prefix_recomputes_median", "settles_median", "flow_mods_median",
)


# bench_scale documents sweep the AS count: internet-like and synthetic-
# CAIDA convergence cells derived from the declared size lists, plus one
# memory cell whose extras carry the deterministic mem model bytes, mirrored
# as the top-level mem.* counters.
SCALE_PARAMS = {
    "il_sizes", "caida_sizes", "mem_size", "origins", "prefixes_per_origin",
    "runs",
}
SCALE_POINT_EXTRAS = ("ases", "updates_rx_median", "decision_runs_median")
MEM_KEYS = {
    "rib_in", "loc_rib", "rib_out", "rib_total", "attr_pool",
    "attr_registry", "flow_tables", "speaker_ribs", "total",
}


# bgpsdn_matrix documents describe the expanded cross product: the declared
# axes (object of value-string arrays), and on every point the cell's
# coordinates, which must name exactly the declared axes with declared
# values. "filters" appears only when --filter subset the product.
MATRIX_PARAMS = {"matrix", "file", "trials", "base_seed", "axes"}


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    sys.exit(1)


def validate(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"unreadable or invalid JSON: {e}")

    if not isinstance(doc, dict):
        fail(path, "top level is not an object")
    if set(doc) != TOP_KEYS:
        fail(path, f"top-level keys {sorted(doc)} != {sorted(TOP_KEYS)}")
    if doc["schema"] != SCHEMA:
        fail(path, f"schema {doc['schema']!r} != {SCHEMA!r}")
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        fail(path, "bench must be a non-empty string")
    if not isinstance(doc["params"], dict):
        fail(path, "params must be an object")

    if not isinstance(doc["points"], list):
        fail(path, "points must be an array")
    for i, point in enumerate(doc["points"]):
        where = f"points[{i}]"
        if not isinstance(point, dict):
            fail(path, f"{where} is not an object")
        if set(point) != POINT_KEYS:
            fail(path, f"{where} keys {sorted(point)} != {sorted(POINT_KEYS)}")
        if not isinstance(point["label"], str):
            fail(path, f"{where}.label must be a string")
        if not isinstance(point["n"], int) or point["n"] < 0:
            fail(path, f"{where}.n must be a non-negative integer")
        for key in ("min", "q1", "median", "q3", "max", "mean", "stddev"):
            if not isinstance(point[key], NUMBER):
                fail(path, f"{where}.{key} must be a number")
        if not isinstance(point["values"], list) or any(
            not isinstance(v, NUMBER) for v in point["values"]
        ):
            fail(path, f"{where}.values must be an array of numbers")
        if len(point["values"]) != point["n"]:
            fail(path, f"{where}: n={point['n']} but {len(point['values'])} values")
        if not isinstance(point["extra"], dict):
            fail(path, f"{where}.extra must be an object")

    if not isinstance(doc["counters"], dict) or any(
        not isinstance(v, int) for v in doc["counters"].values()
    ):
        fail(path, "counters must be an object of integers")

    footer = doc["footer"]
    if not isinstance(footer, dict) or set(footer) != FOOTER_KEYS:
        fail(path, f"footer keys != {sorted(FOOTER_KEYS)}")
    for key in FOOTER_KEYS:
        if not isinstance(footer[key], NUMBER):
            fail(path, f"footer.{key} must be a number")
    for key in ("trials", "jobs"):
        if not isinstance(footer[key], int) or footer[key] < 0:
            fail(path, f"footer.{key} must be a non-negative integer")

    if doc["bench"] == "bench_chaos":
        validate_chaos(path, doc)
    if doc["bench"] == "ablation_recompute":
        validate_ablation_recompute(path, doc)
    if doc["bench"] == "bgpsdn_matrix":
        validate_matrix(path, doc)
    if doc["bench"] == "bench_scale":
        validate_scale(path, doc)

    print(f"{path}: ok ({doc['bench']}, {len(doc['points'])} points)")


def validate_chaos(path, doc):
    missing = CHAOS_PARAMS - set(doc["params"])
    if missing:
        fail(path, f"bench_chaos params missing {sorted(missing)}")
    labels = {point["label"] for point in doc["points"]}
    if labels != CHAOS_LABELS:
        fail(path, f"bench_chaos labels {sorted(labels)} != {sorted(CHAOS_LABELS)}")
    timeout = doc["params"]["timeout_s"]
    for i, point in enumerate(doc["points"]):
        where = f"points[{i}]"
        if not isinstance(point["extra"].get("fault"), str):
            fail(path, f"{where}.extra.fault must be the armed plan string")
        for v in point["values"]:
            if not 0 <= v <= timeout:
                fail(path, f"{where}: recovery {v} outside [0, {timeout}]")

    points = {point["label"]: point for point in doc["points"]}
    for n in range(1, 6):
        point = points[f"ha_failover_r{n}"]
        for key in CHAOS_HA_EXTRAS:
            if not isinstance(point["extra"].get(key), NUMBER):
                fail(path, f"ha_failover_r{n}.extra.{key} must be a number")
        if point["extra"]["replicas"] != n:
            fail(
                path,
                f"ha_failover_r{n}.extra.replicas is "
                f"{point['extra']['replicas']}, want {n}",
            )
    baseline = points["ha_failover_r1"]["median"]
    for n in range(2, 6):
        median = points[f"ha_failover_r{n}"]["median"]
        if median >= baseline:
            fail(
                path,
                f"ha_failover_r{n} median {median} not below the "
                f"single-controller baseline {baseline}",
            )
        if median >= 1.0:
            fail(
                path,
                f"ha_failover_r{n} median {median} not sub-second; the "
                f"standby takeover is not hiding the failover",
            )


def validate_ablation_recompute(path, doc):
    churn_labels = {f"churn{n}_incremental" for n in ABLATION_CHURN_RETIRED}
    labels = {point["label"] for point in doc["points"]}
    want = ABLATION_DELAY_LABELS | churn_labels
    if labels != want:
        fail(path, f"ablation_recompute labels {sorted(labels)} != {sorted(want)}")
    points = {point["label"]: point for point in doc["points"]}
    for label in sorted(ABLATION_DELAY_LABELS):
        span = points[label]["extra"].get("batch_span_s_median")
        if not isinstance(span, NUMBER) or span < 0:
            fail(path, f"{label}.extra.batch_span_s_median must be >= 0")
    for n, (conv, settles) in sorted(ABLATION_CHURN_RETIRED.items()):
        label = f"churn{n}_incremental"
        point = points[label]
        for key in ABLATION_CHURN_EXTRAS:
            if not isinstance(point["extra"].get(key), NUMBER):
                fail(path, f"{label}.extra.{key} must be a number")
        # Virtual-time convergence is deterministic: the engine must match
        # the retired one exactly, not approximately.
        if point["median"] != conv:
            fail(
                path,
                f"{label}: convergence median {point['median']} != {conv} "
                f"reached by the retired from-scratch engine",
            )
        # The delta engine's headline number.
        if point["extra"]["settles_median"] * 5 > settles:
            fail(
                path,
                f"{label}: settles {point['extra']['settles_median']} not 5x "
                f"below the retired engine's {settles}",
            )


def validate_scale(path, doc):
    params = doc["params"]
    missing = SCALE_PARAMS - set(params)
    if missing:
        fail(path, f"bench_scale params missing {sorted(missing)}")
    for key in ("il_sizes", "caida_sizes"):
        sizes = params[key]
        if (
            not isinstance(sizes, list)
            or not sizes
            or any(not isinstance(s, int) or s < 1 for s in sizes)
        ):
            fail(path, f"bench_scale params.{key} must list positive integers")
    mem_size = params["mem_size"]
    if mem_size != params["il_sizes"][-1]:
        fail(
            path,
            f"mem_size {mem_size} is not the largest internet-like size "
            f"{params['il_sizes'][-1]}",
        )

    # The label set is fully determined by the size lists.
    want = {f"mem_compact_{mem_size}"}
    for size in params["il_sizes"]:
        want.add(f"il{size}_withdrawal")
        want.add(f"il{size}_announcement")
    for size in params["caida_sizes"]:
        want.add(f"caida{size}_withdrawal")
    points = {point["label"]: point for point in doc["points"]}
    if set(points) != want:
        fail(path, f"bench_scale labels {sorted(points)} != {sorted(want)}")

    for label, point in sorted(points.items()):
        for key in SCALE_POINT_EXTRAS:
            if not isinstance(point["extra"].get(key), NUMBER):
                fail(path, f"{label}.extra.{key} must be a number")
        for v in point["values"]:
            # A negative convergence value is the bench's trial-failed
            # sentinel; it must never reach a committed document.
            if not isinstance(v, NUMBER) or v < 0:
                fail(path, f"{label}: trial value {v} marks a failed trial")

    label = f"mem_compact_{mem_size}"
    mem = points[label]["extra"].get("mem")
    if not isinstance(mem, dict) or set(mem) != MEM_KEYS:
        fail(path, f"{label}.extra.mem keys != {sorted(MEM_KEYS)}")
    if any(not isinstance(v, int) or v < 0 for v in mem.values()):
        fail(path, f"{label}.extra.mem values must be ints")

    # The memory cell's model bytes are mirrored as flat counters.
    counters = doc["counters"]
    for key in MEM_KEYS - {"rib_total"}:
        name = f"mem.{key}"
        if name not in counters:
            fail(path, f"counters missing {name}")
        if counters[name] != mem[key]:
            fail(
                path,
                f"counters[{name}] {counters[name]} != {label} extra "
                f"{mem[key]}",
            )


def validate_matrix(path, doc):
    params = doc["params"]
    missing = MATRIX_PARAMS - set(params)
    if missing:
        fail(path, f"bgpsdn_matrix params missing {sorted(missing)}")
    if not isinstance(params["trials"], int) or params["trials"] < 1:
        fail(path, "bgpsdn_matrix params.trials must be a positive integer")
    axes = params["axes"]
    if not isinstance(axes, dict) or not axes:
        fail(path, "bgpsdn_matrix params.axes must be a non-empty object")
    for name, values in axes.items():
        if (
            not isinstance(values, list)
            or not values
            or any(not isinstance(v, str) for v in values)
        ):
            fail(path, f"axis {name!r} must list at least one string value")
    filters = params.get("filters")
    if filters is not None and (
        not isinstance(filters, list)
        or any(not isinstance(f, str) or "=" not in f for f in filters)
    ):
        fail(path, "bgpsdn_matrix params.filters must be 'axis=value' strings")

    product = 1
    for values in axes.values():
        product *= len(values)
    cells = len(doc["points"])
    if filters is None and cells != product:
        fail(path, f"{cells} cells but the axes declare a {product}-cell product")
    if filters is not None and not 1 <= cells <= product:
        fail(path, f"{cells} filtered cells outside [1, {product}]")

    labels = set()
    for i, point in enumerate(doc["points"]):
        where = f"points[{i}] ({point['label']!r})"
        if point["label"] in labels:
            fail(path, f"{where}: duplicate cell label")
        labels.add(point["label"])
        if point["n"] != params["trials"]:
            fail(path, f"{where}: n={point['n']} != trials={params['trials']}")
        coords = point["extra"].get("coords")
        if not isinstance(coords, dict):
            fail(path, f"{where}.extra.coords must be an object")
        if set(coords) != set(axes):
            fail(
                path,
                f"{where}: coords name {sorted(coords)}, axes are {sorted(axes)}",
            )
        for name, value in coords.items():
            if value not in axes[name]:
                fail(path, f"{where}: coord {name}={value!r} not a declared value")


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    for path in sys.argv[1:]:
        validate(path)


if __name__ == "__main__":
    main()
