"""Self-test of the benchmark at tiny sizes (about 10 s).

Usage (from the repository root): python3 perfbench/selftest.py

Checks that a run emits exactly the metrics BENCHMARK.json names, with
their units, in both modes; that the output check accepts the references
and rejects a CSV with one digit of ``hofer_numeric`` changed; and that
the benchmark fails without printing a result when the program is absent.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import check
import layers
from run import END_TO_END, ROOT, WORK_DIR
from workloads import REFERENCE_SEED, WORKLOADS


def bench(args: list[str], cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def expect_metrics(proc, declared: list[dict]) -> None:
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}):\n{proc.stdout}"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        raise SystemExit(f"run not correct: {result}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise SystemExit(f"metrics {got} != declared {want}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            raise SystemExit(f"{name} is not a number")
        if metric["value"] <= 0 and name in END_TO_END:
            raise SystemExit(f"{name} = {metric['value']} is not positive")


def flip_hofer_digit(text: str) -> str:
    lines = text.splitlines(keepends=True)
    fields = lines[1].split(",")
    column = check.HEADER.split(",").index("hofer_numeric")
    value = fields[column]
    i = max(j for j, c in enumerate(value) if c.isdigit() and c != "0")
    fields[column] = value[:i] + str(int(value[i]) % 9 + 1) + value[i + 1:]
    lines[1] = ",".join(fields)
    return "".join(lines)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {m["name"]: m["unit"] for m in declared["end_to_end"]} != {
            k: u for k, (u, _) in END_TO_END.items()}:
        raise SystemExit("BENCHMARK.json end_to_end != run.END_TO_END")
    if {m["name"]: m["unit"] for m in declared["per_layer"]} != {
            k: u for k, (u, _) in layers.METRICS.items()}:
        raise SystemExit("BENCHMARK.json per_layer != layers.METRICS")

    for workload in WORKLOADS.values():
        reference = workload.reference.read_text()
        args = (workload.samples_per_strip, workload.ramp_fraction)
        if check.problems(reference, reference, *args):
            raise SystemExit(f"{workload.name}: reference fails its own check")
        flipped = flip_hofer_digit(reference)
        found = check.problems(flipped, reference, *args)
        if not any(p.split(": ", 1)[1].startswith("hofer_numeric ")
                   for p in found):
            raise SystemExit(f"{workload.name}: flipped hofer_numeric "
                             f"accepted: {found}")

    expect_metrics(bench(["--seed", "1", "--trace", "0"]),
                   declared["end_to_end"])
    expect_metrics(bench(["--seed", str(REFERENCE_SEED), "--trace", "1"]),
                   declared["per_layer"])

    sparse = WORK_DIR / "selftest-sparse"
    shutil.rmtree(sparse, ignore_errors=True)
    try:
        sparse.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", sparse)
        shutil.copytree(ROOT / "perfbench", sparse / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--seed", "1", "--trace", "0"], cwd=sparse)
    finally:
        shutil.rmtree(sparse, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise SystemExit("run without the program did not fail cleanly")

    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
