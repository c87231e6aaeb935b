#!/usr/bin/env python3
"""Self-test of the host-time benchmark on small versions of its workloads.

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does, records fingerprints for the smoke-size
populations into a temporary file, and checks the metric names and units
against BENCHMARK.json, the fingerprint check, the traced layer attribution
and the internet_hybrid quiet window.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

WORKLOADS = ["internet_bgp", "internet_hybrid", "fig2_sweep"]
# Traced layer host times plus other_host_s must cover the traced wall time
# to within this share.
SUM_TOLERANCE = 0.01


def contract():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


class PerfbenchSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(HERE.parent)
        cls.driver = str(run.build())
        cls.tmp = tempfile.TemporaryDirectory()
        cls.fingerprints = os.path.join(cls.tmp.name, "fingerprints.json")
        for workload in WORKLOADS:
            subprocess.run(
                [cls.driver, "--workload", workload, "--scale", "smoke",
                 "--record", "--fingerprints", cls.fingerprints],
                check=True, stdout=subprocess.DEVNULL)
        cls.results = {}

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def drive(self, workload, trace, fingerprints=None, extra=()):
        """Runs the driver briefly; returns (result JSON, stderr)."""
        out = subprocess.run(
            [self.driver, "--workload", workload, "--seed", "7", "--seconds",
             "0.3", "--trace", str(trace), "--scale", "smoke",
             "--fingerprints", fingerprints or self.fingerprints, *extra],
            check=True, capture_output=True, text=True)
        return json.loads(out.stdout.strip().splitlines()[-1]), out.stderr

    def result(self, workload, trace):
        key = (workload, trace)
        if key not in self.results:
            self.results[key] = self.drive(workload, trace)[0]
        return self.results[key]

    def test_every_metric_name_and_unit(self):
        spec = contract()
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            want = {m["name"]: m["unit"] for m in listed}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    r = self.result(workload, trace)
                    self.assertEqual(set(r), {"correct", "attempted", "failed",
                                              "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)

    def test_wrong_fingerprint_counts_as_failure(self):
        recorded = json.loads(Path(self.fingerprints).read_text())
        for key in recorded["internet_bgp"]:
            recorded["internet_bgp"][key] = "0" * 16
        wrong = os.path.join(self.tmp.name, "wrong.json")
        Path(wrong).write_text(json.dumps(recorded))
        r, err = self.drive("internet_bgp", 0, fingerprints=wrong)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], r["attempted"])
        self.assertIn("differs from the record", err)

    def test_traced_layers_sum_to_traced_wall(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                m = {k: v["value"] for k, v in self.result(workload, 1)["metrics"].items()}
                layers = sum(v for k, v in m.items() if k.endswith("host_s"))
                layers += (m["topology.generate_s"] + m["framework.build_s"] +
                           m["framework.teardown_s"])
                wall = m["telemetry.traced_wall_s"]
                self.assertAlmostEqual(layers / wall, 1.0,
                                       delta=SUM_TOLERANCE)

    def test_centralized_layers_work_only_on_hybrid(self):
        names = ["controller.prefix_recomputes", "controller.flow_changes",
                 "sdn.flow_mods", "speaker.updates_rx", "speaker.announces_tx"]
        bgp = self.result("internet_bgp", 1)["metrics"]
        hybrid = self.result("internet_hybrid", 1)["metrics"]
        for name in names:
            with self.subTest(metric=name):
                self.assertEqual(bgp[name]["value"], 0)
                self.assertGreater(hybrid[name]["value"], 0)

    def test_hybrid_quiet_window_outlasts_recompute_delay(self):
        # The default window (2 x MRAI + 1 s = 1.6 s) closes before the 2 s
        # controller batch fires: the withdrawn member-origin route survives.
        r, err = self.drive("internet_hybrid", 0, extra=("--quiet-s", "1.6"))
        self.assertGreaterEqual(r["failed"], 1)
        self.assertIn("after withdrawal", err)
        self.assertIn("survives", err)
        # The workload's own window (5 s) clears it everywhere.
        self.assertEqual(self.result("internet_hybrid", 0)["failed"], 0)


if __name__ == "__main__":
    unittest.main()
