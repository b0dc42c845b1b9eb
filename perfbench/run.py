"""Benchmark of ``stripflow sweep``: end-to-end metrics, or per-layer ones.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run writes the workload's config with ``seed = N``, then, each program
call in a fresh subprocess with ``STRIPFLOW_WORKERS=1``, one after another:

* one untimed ``stripflow validate`` (warm-up), then ``SETUP_REPEATS``
  timed ones: ``setup_s`` is their median;
* timed ``stripflow sweep`` runs, at least ``MIN_SWEEPS``, and more while
  the sweep time so far plus one mean sweep fits in S seconds.

Every sweep CSV passes the output check in ``check.py``.  With ``--trace 1``
the run then makes one traced sweep (``traced_sweep.py``) and reports the
per-layer metrics of ``layers.py``.  Every metric is printed by name and
unit; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  Exits 0 when every program call passed its check, 1 when
one failed, 2 when the program or the reference is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import layers
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 30
MIN_SWEEPS = 2
# Every subprocess is killed by this many seconds after the run started,
# so that a hung program still ends the run well inside three minutes.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": ("s", "median wall time of `stripflow sweep` in a fresh "
                    "subprocess"),
    "setup_s": ("s", "median wall time of `stripflow validate` in a fresh "
                     "subprocess"),
    "samples_per_s": ("1/s", "sum over N of 3N * samples_per_strip, "
                             "divided by wall_s"),
    "peak_rss_mb": ("MB", "median ru_maxrss of the sweep subprocess "
                          "(os.wait4)"),
    "time_to_0.1pct_s": ("s", "wall_s * max over N of "
                              "(rho_stderr / (0.001 * |rho_pred|))^2"),
}


def child_env() -> dict[str, str]:
    """The caller's environment without PYTHON* settings, load pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), STRIPFLOW_WORKERS="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


@dataclass
class Child:
    wall_s: float
    maxrss_mb: float
    code: int
    stdout: str
    stderr: str


class Run:
    """Program calls of one benchmark run, in order, with their checks."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def call(self, tag: str, args: list[str]) -> Child:
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                    env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(
                max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                     out_path.read_text(errors="replace"),
                     err_path.read_text(errors="replace"))

    def judge(self, tag: str, child: Child, problems: list[str]) -> bool:
        if child.code != 0:
            problems.insert(0, f"exit code {child.code}")
        if "Traceback" in child.stderr:
            problems.insert(0, "traceback on stderr")
        if problems:
            self.failed += 1
            self.problems += [f"{tag}: {p}" for p in problems]
        return not problems


def sweep_problems(workload, child: Child, csv_path: Path,
                   reference: str) -> tuple[str, list[str]]:
    text = csv_path.read_text() if csv_path.exists() else ""
    problems = check.problems(text, reference, workload.samples_per_strip,
                              workload.ramp_fraction)
    if child.stdout != text:
        problems.append("stdout differs from the CSV file")
    return text, problems


def time_to_accuracy(csv_text: str, wall_s: float) -> float:
    """0 when the CSV is unusable; the output check has failed the run then."""
    try:
        rows = check.parse(csv_text)
        worst = max((float(r["rho_stderr"]) / (0.001 * abs(float(r["rho_pred"])))) ** 2
                    for r in rows)
    except (ValueError, KeyError, ZeroDivisionError):
        return 0.0
    return wall_s * worst


def tail_note(values: list[float]) -> str:
    """Median sample count and the highest percentile with >= 10 samples above."""
    n = len(values)
    if n < 11:
        return f"median of n={n}; no percentile has 10 samples beyond it"
    k = n - 11
    return (f"median of n={n}; p{100.0 * (k + 1) / n:.0f} = "
            f"{sorted(values)[k]:.6g}")


def measure(workload, seed: int, seconds: float, trace: bool, work: Path):
    cfg = work / "workload.cfg"
    cfg.write_text(workload.config_text(seed))
    reference = workload.reference.read_text()
    run = Run(work, time.monotonic() + RUN_LIMIT_S)
    cli = ["-m", "stripflow.cli"]

    setups = []
    for i in range(SETUP_REPEATS + 1):
        tag = f"validate{i}"
        child = run.call(tag, cli + ["validate", str(cfg)])
        ok = child.stdout.endswith("all scenarios valid\n")
        run.judge(tag, child, [] if ok else ["no 'all scenarios valid' line"])
        if i:  # the first call only warms the file cache and bytecode
            setups.append(child.wall_s)

    walls, rss, csvs, identical = [], [], [], 0
    while len(walls) < MIN_SWEEPS or (
            sum(walls) + statistics.mean(walls) <= seconds):
        tag = f"sweep{len(walls)}"
        csv_path = work / f"{tag}.csv"
        child = run.call(tag, cli + ["sweep", str(cfg), "--output",
                                     str(csv_path)])
        text, problems = sweep_problems(workload, child, csv_path, reference)
        run.judge(tag, child, problems)
        walls.append(child.wall_s)
        rss.append(child.maxrss_mb)
        csvs.append(text)
        identical += text == reference
        if time.monotonic() > run.deadline - RUN_LIMIT_S / 2:
            break  # leave the second half of the limit to a traced sweep

    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "samples_per_s": workload.samples / wall,
        "peak_rss_mb": statistics.median(rss),
        "time_to_0.1pct_s": time_to_accuracy(csvs[0], wall),
    }
    notes = {"wall_s": tail_note(walls), "setup_s": tail_note(setups)}

    per_layer = None
    if trace:
        csv_path = work / "traced.csv"
        spans_path = work / "spans.json"
        child = run.call("traced", [str(Path(__file__).with_name(
            "traced_sweep.py")), str(cfg), str(csv_path), str(spans_path)])
        text, problems = sweep_problems(workload, child, csv_path, reference)
        if text != csvs[0]:
            problems.append("traced CSV differs from the untraced CSV")
        identical += text == reference
        if run.judge("traced", child, problems):
            spans = json.loads(spans_path.read_text())["spans"]
            timing = json.loads(Path(f"{spans_path}.timing").read_text())
            traced_wall = child.wall_s - timing["paused_s"] - timing["dump_s"]
            per_layer = layers.per_layer(spans, traced_wall, wall)
    return run, metrics, notes, per_layer, identical


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    missing = [p for p in (ROOT / "src" / "stripflow" / "cli.py",
                           workload.reference) if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        run, metrics, notes, per_layer, identical = measure(
            workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload.name}, seed {args.seed}: "
          f"{run.attempted} program calls, {run.failed} failed "
          f"(failed_frac {run.failed / run.attempted:g}), "
          f"{identical} sweep CSVs byte-identical to the reference "
          f"(csv_identical_runs)")
    for problem in run.problems:
        print(f"FAILED {problem}")
    for name, (unit, how) in END_TO_END.items():
        print(f"{name:<36} {metrics[name]:>14.6g} {unit:<12} "
              f"{notes.get(name, how)}")
    if per_layer is not None:
        for name, (unit, how) in layers.METRICS.items():
            print(f"{name:<36} {per_layer[name]:>14.6g} {unit:<12} {how}")

    correct = run.failed == 0 and (per_layer is not None or not args.trace)
    if args.trace:
        chosen = {k: (v, layers.METRICS[k][0])
                  for k, v in (per_layer or {}).items()}
    else:
        chosen = {k: (metrics[k], END_TO_END[k][0]) for k in END_TO_END}
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
