#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--quick]

Run from the root of a source checkout. The first call configures and
builds perfbench/ (the library from src/ plus the benchmark executable)
into .bench_build/perfbench; later calls only re-check the build.

--trace 0 makes one untraced run and reports the end-to-end metrics named
in BENCHMARK.json. --trace 1 makes one run whose window is an untraced lap
and then a traced lap (the library's PerfProfiler and trace recorder on),
checks that both laps end in the same state with the same valid_mrr, and
reports the per-layer metrics. --quick shrinks every fixed-size phase for
the benchmark's own test.

The last line of stdout is one JSON object with exactly the keys
correct, attempted, failed and metrics; the line before it carries the
checks, the operation counts, the sample counts behind each percentile,
the lap times and the provenance of the run. The exit code is 0 only when
the build succeeded, the run finished, and every check passed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
# One invocation must end within 180 s once built; its runs share this.
RUN_BUDGET_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the executable up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return BINARY.exists()


def run_once(args, workdir, deadline):
    """Runs the executable once; returns its parsed result object."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if args.trace:
        cmd += ["--trace-out", str(BUILD_DIR / f"trace-{args.workload}.json")]
    if args.quick:
        cmd.append("--quick")
    # Library behaviour must come from the benchmark alone, not from
    # SUPA_* overrides in the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SUPA_")}
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.stderr:
        log(done.stderr.rstrip()[-4000:])
    lines = [ln for ln in done.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        raise RuntimeError(f"run printed no result (exit {done.returncode})")
    result = json.loads(lines[-1])
    if done.returncode != 0 and result.get("correct", False):
        raise RuntimeError(f"run exited {done.returncode}")
    return result


def pick(result, specs):
    """The named metrics with their units; raises if one is missing."""
    out = {}
    for spec in specs:
        name = spec["name"]
        got = result["metrics"].get(name)
        if got is None:
            raise RuntimeError(f"metric {name} missing")
        if got["unit"] != spec["unit"]:
            raise RuntimeError(
                f"metric {name} has unit {got['unit']}, want {spec['unit']}")
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            raise RuntimeError(f"metric {name} is not a finite number")
        out[name] = {"value": got["value"], "unit": got["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"perfbench: unknown workload {args.workload}")
        return 2
    if not build():
        return 1

    workdir = ROOT / ".bench_build" / f"run-{args.workload}-{os.getpid()}"
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        result = run_once(args, workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        log(f"perfbench: {err}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"run": "traced" if args.trace else "untraced",
                      "checks": result["checks"],
                      "operations": result["operations"],
                      "samples": result["samples"],
                      "window_s": result["window_s"],
                      "lap_window_s": result["lap_window_s"],
                      "provenance": result["provenance"]}))
    try:
        metrics = pick(result, spec["per_layer"] if args.trace
                       else spec["end_to_end"])
    except RuntimeError as err:
        log(f"perfbench: {err}")
        return 1

    failing = [name for name, ok in result["checks"].items() if not ok]
    if failing:
        log("perfbench: failed checks:", ", ".join(failing))
    correct = result["correct"] and not failing
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
