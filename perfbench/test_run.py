#!/usr/bin/env python3
"""Self-test of the replay benchmark: a small-scale smoke run of every
workload in both modes, plus proof that the correctness gate trips.

Run from the repository root (takes well under a minute once built):

    python3 perfbench/test_run.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# 1% of the paper-sized traces and tables, one repetition's minimum.
SMOKE = ["--scale", "0.01", "--seconds", "0", "--seed", "7"]


def bench(workload, trace, *extra):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--trace", str(trace), *SMOKE, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900,
    )


def result_of(proc):
    return json.loads(proc.stdout.splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        # mail-dvp is left out of BENCHMARK.json but still runs.
        names = [w["name"] for w in SPEC["workloads"]] + ["mail-dvp"]
        for workload in names:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = result_of(proc)
                    self.assertEqual(
                        list(result), ["correct", "attempted", "failed", "metrics"])
                    self.assertIs(result["correct"], True)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
                    printed = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)
                        if kind == "end_to_end":
                            self.assertGreater(metric["value"], 0, name)

    def test_simulated_counters_repeat_exactly(self):
        runs = [result_of(bench("web-dvp", 1))["metrics"] for _ in range(2)]
        sim = [{n: m["value"] for n, m in r.items() if n.startswith("sim.")}
               for r in runs]
        self.assertTrue(sim[0])
        self.assertEqual(sim[0], sim[1])

    def test_gate_trips_on_a_forged_read_mismatch(self):
        proc = bench("mail-dvp", 1, "--forge-read-mismatch")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("traced reads returned", proc.stderr)
        result = result_of(proc)
        self.assertIs(result["correct"], False)
        self.assertGreaterEqual(result["failed"], 1)

    def test_unknown_workload_is_refused(self):
        proc = bench("no-such-workload", 0)
        self.assertNotEqual(proc.returncode, 0)


if __name__ == "__main__":
    unittest.main()
