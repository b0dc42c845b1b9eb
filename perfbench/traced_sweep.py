"""Run ``stripflow sweep`` in this process with spans around each layer.

Usage: python3 traced_sweep.py CONFIG OUTPUT_CSV SPANS_JSON

Wrappers are installed where the program looks the names up:

* ``cli`` binds ``rho_estimate``, ``hofer_upper_bound`` and ``calabi``;
* ``estimator`` binds ``reduce_letters``, ``homogenized_tuple`` and
  ``closing_word``;
* ``config`` binds ``build_scenario``;
* ``batch.run_batch`` and ``batch.assemble_words`` are read off the module.

A span is ``[name, start, end, parent index, counters]``.  Counters are
read from the call's arguments and return value in a paused section: the
span clock excludes paused time, so counting adds nothing to any span.
For each ``run_batch(collect=True)`` the same inputs are re-run with
``collect=False`` in a paused section; the difference is the cost of
emitting crossing events.  Spans stay in memory and are written to
SPANS_JSON after the sweep, with the paused total and the time taken to
write them in ``SPANS_JSON.timing``.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from stripflow import batch, cli, config, estimator


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def wrap(self, name, fn, count=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self.now(), None,
                    self.stack[-1] if self.stack else None, None]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.now()
                self.stack.pop()
            if count is not None:
                paused_at = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = count(result, **bound.arguments)
                self.paused += time.perf_counter() - paused_at
            return result
        return traced


def _run_batch_counters(run_batch):
    def count(run, scenario, t, n_steps, x0, y0, home, collect, m_snapshot,
              compact_fixed):
        n = int(x0.size)
        moved = int(run.moved.sum())
        tested = n + moved * (n_steps - 1) if compact_fixed else n * n_steps
        out = {"n": n, "strip_tests": run.applications_per_step * tested,
               "collect": bool(collect)}
        if collect:
            start = time.perf_counter()
            run_batch(scenario, t, n_steps, x0, y0, home=home, collect=False,
                      m_snapshot=m_snapshot, compact_fixed=compact_fixed)
            out["no_collect_s"] = time.perf_counter() - start
            out["events"] = int(run.event_sample.size)
        if collect and run.x_m is not None:
            # classify exactly as estimator._evaluate_batch does
            returned = batch.wrapped_return(run.x_m, run.y_m, x0, y0,
                                            estimator.RETURN_TOL)
            periodic = returned & ~run.foreign & run.moved
            out.update(
                stationary=n - moved,
                periodic=int(periodic.sum()),
                bad=int((run.moved & ~periodic).sum()),
                foreign=int(run.foreign.sum()),
                degenerate=bool(run.degenerate.any()))
        return out
    return count


def _grid_points(result, scenario, tau, time_samples, space_samples):
    return {"points": time_samples * space_samples ** 2}


def install(tracer: Tracer) -> None:
    run_batch = batch.run_batch
    batch.run_batch = tracer.wrap("batch.run_batch", run_batch,
                                  _run_batch_counters(run_batch))
    batch.assemble_words = tracer.wrap("batch.assemble_words",
                                       batch.assemble_words)
    config.build_scenario = tracer.wrap("surface.build", config.build_scenario)
    estimator.closing_word = tracer.wrap("surface.closing_word",
                                         estimator.closing_word)
    estimator.reduce_letters = tracer.wrap(
        "words.reduce_letters", estimator.reduce_letters,
        lambda result, raw: {"letters_in": len(raw)})
    estimator.homogenized_tuple = tracer.wrap("counting.homogenized_tuple",
                                              estimator.homogenized_tuple)
    cli.rho_estimate = tracer.wrap(
        "estimator.rho_estimate", cli.rho_estimate,
        lambda est, scenario, **_: {"N": scenario.N, "samples": est.samples})
    cli.hofer_upper_bound = tracer.wrap("flow.hofer", cli.hofer_upper_bound,
                                        _grid_points)
    cli.calabi = tracer.wrap("flow.calabi", cli.calabi, _grid_points)


def main(argv: list[str]) -> int:
    cfg, output, spans_path = argv
    tracer = Tracer()
    install(tracer)
    code = cli.main(["sweep", cfg, "--output", output])
    done = time.perf_counter()
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans}, fh)
    timing = {"paused_s": tracer.paused, "dump_s": time.perf_counter() - done}
    with open(spans_path + ".timing", "w") as fh:
        json.dump(timing, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
