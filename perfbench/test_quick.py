#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny size, untraced and
traced, must pass every correctness check and print every metric named in
BENCHMARK.json with its unit.

    python3 perfbench/test_quick.py

Run from the root of a source checkout; the first run builds the
benchmark (see run.py). Takes about a minute once built.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PHASES = ("core.sample_us", "core.update_us", "core.propagate_us",
          "core.negative_us", "core.optimize_us", "core.unattributed_us")


def run_bench(workload, trace, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--quick"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


class SpecTest(unittest.TestCase):
    def test_spec_is_well_formed(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertLessEqual(max(bounds.values()), 0.25)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class QuickRunTest(unittest.TestCase):
    def check(self, workload, trace):
        done = run_bench(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for spec in specs:
            got = result["metrics"][spec["name"]]
            self.assertEqual(got["unit"], spec["unit"], spec["name"])
            self.assertTrue(math.isfinite(got["value"]), spec["name"])
        for line in done.stdout.strip().splitlines()[:-1]:
            info = json.loads(line)
            self.assertTrue(all(info["checks"].values()), info["checks"])
        return result["metrics"]

    def test_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check(w["name"], 0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(metrics[m["name"]]["value"], 0,
                                       m["name"])

    def test_per_layer_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check(w["name"], 1)
                step = metrics["core.step_us"]["value"]
                parts = sum(metrics[p]["value"] for p in PHASES)
                self.assertGreater(step, 0)
                self.assertAlmostEqual(parts, step, delta=1e-6 * step)

    def test_fails_without_sources(self):
        # A directory holding only the benchmark cannot build the program,
        # so the run must fail without printing a result.
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            done = run_bench(SPEC["workloads"][0]["name"], 0, root=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertFalse(any(ln.startswith("{")
                             for ln in done.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main()
