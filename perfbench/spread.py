"""Run the benchmark over ten seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--baseline perfbench/baseline.json]

For every workload in BENCHMARK.json and seeds 1-10, one run of ``run.py``
with ``--trace 0`` and BENCHMARK.json's ``run_seconds``, one at a time.
Prints each end-to-end metric's median, quartiles and spread (quartile
distance over median, from ``statistics.quantiles(values, n=4)``) against
its bound.  ``--baseline`` also writes these figures with a record of the
machine.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

from run import ROOT

SEEDS = list(range(1, 11))


def environment() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit or "unknown", "STRIPFLOW_WORKERS": 1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    record = {"run_seconds": declared["run_seconds"], "seeds": SEEDS,
              "trace": 0, "workloads": {}}
    for name in (w["name"] for w in declared["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name,
                 "--seed", str(seed), "--seconds",
                 str(declared["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(proc.stdout, proc.stderr)
                return 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
        summary = {}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[metric] = {"median": statistics.median(vals), "q1": q1,
                               "q3": q3, "spread": spread, "values": vals}
            bound = bounds[metric]
            print(f"  {name:<14} {metric:<32} median {summary[metric]['median']:.6g}"
                  f" spread {spread:.4f} bound {bound} "
                  f"({'ok' if spread < bound / 3 else 'WIDE'})", flush=True)
        record["workloads"][name] = summary
    if args.baseline:
        record["environment"] = environment()
        args.baseline.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
