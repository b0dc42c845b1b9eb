"""Per-layer metrics from the spans of one traced sweep.

Times are summed span durations in seconds.  Every count says whether it
was *counted* (read off an argument or return value at a span boundary) or
*computed* (derived from counted values by the formula given), and every
ratio names its base.
"""
from __future__ import annotations

from collections import defaultdict

# Bytes per crossing event: int64 sample id + float64 key + int8 letter.
EVENT_BYTES = 17

# Per-N estimator times are reported for every N any workload uses, so
# each traced run emits the same names (0 where the workload lacks that N).
ESTIMATOR_N = (1, 2, 4)

# name -> (unit, how it is obtained)
METRICS = {
    "surface.build_s": ("s", "span time of config.build_scenario"),
    "surface.closing_word_s": ("s", "span time of estimator.closing_word"),
    "surface.closing_word_calls": ("count", "counted"),
    "batch.run_batch_s": ("s", "span time of batch.run_batch"),
    "batch.run_batch_calls": ("count", "counted"),
    "batch.sample_strip_tests": (
        "count", "computed: 3N * (n + moved * (K - 1)) per call"),
    "batch.events_s": (
        "s", "run_batch(collect=True) span minus an unspanned "
             "collect=False re-run of the same inputs"),
    "batch.events": ("count", "counted: crossing events returned"),
    "batch.events_per_sample": (
        "count/sample", "computed: events / samples passed to "
                        "run_batch(collect=True)"),
    "batch.event_bytes": ("B", f"computed: {EVENT_BYTES} B per event"),
    "batch.assemble_words_s": ("s", "span time of batch.assemble_words"),
    "words.reduce_letters_s": ("s", "span time of estimator.reduce_letters"),
    "words.reduce_letters_calls": ("count", "counted"),
    "words.letters_in": ("count", "counted: letters passed in"),
    "counting.homogenized_tuple_s": (
        "s", "span time of estimator.homogenized_tuple"),
    "counting.homogenized_tuple_calls": ("count", "counted"),
    "estimator.rho_estimate_s": ("s", "span time of cli.rho_estimate"),
    **{f"estimator.rho_estimate_s.N{n}": (
        "s", f"span time of cli.rho_estimate at N={n}") for n in ESTIMATOR_N},
    "estimator.self_s": (
        "s", "rho_estimate spans minus their child spans"),
    "estimator.samples": ("count", "counted: RhoEstimate.samples"),
    "estimator.stationary_frac": (
        "fraction", "computed: unmoved samples / samples passed to "
                    "run_batch inside rho_estimate"),
    "estimator.periodic_frac": (
        "fraction", "computed: returned & ~foreign & moved, same base"),
    "estimator.bad_frac": (
        "fraction", "computed: moved & not periodic, same base"),
    "estimator.foreign_frac": (
        "fraction", "computed: samples on a foreign ramp, same base"),
    "estimator.nudge_retries": (
        "count", "computed: run_batch results inside rho_estimate with a "
                 "degenerate sample, each of which is re-run nudged"),
    "estimator.class_cache_hit_ratio": (
        "fraction", "computed: (periodic - (homogenized_tuple calls in "
                    "rho_estimate - bad)) / periodic samples"),
    "flow.hofer_s": ("s", "span time of cli.hofer_upper_bound"),
    "flow.calabi_s": ("s", "span time of cli.calabi"),
    "flow.generator_points": (
        "count", "computed: time_samples * space_samples^2 per call"),
    "cli.other_s": ("s", "traced wall minus top-level spans"),
    "trace.wall_s": (
        "s", "traced sweep subprocess wall minus paused counting and "
             "span write-out"),
    "trace.overhead_s": ("s", "trace.wall_s minus untraced median wall_s"),
}


def per_layer(spans: list[list], traced_wall: float,
              untraced_wall: float) -> dict[str, float]:
    """Reduce ``[name, start, end, parent, counters]`` spans to METRICS."""
    time_in: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    children_time: dict[int, float] = defaultdict(float)
    top_level = 0.0
    for name, start, end, parent, _ in spans:
        time_in[name] += end - start
        calls[name] += 1
        if parent is None:
            top_level += end - start
        else:
            children_time[parent] += end - start

    def is_estimator(parent):
        return parent is not None and spans[parent][0] == "estimator.rho_estimate"

    total = defaultdict(int)
    events_s = 0.0
    rho_by_n = defaultdict(float)
    rho_children = 0.0
    for index, (name, start, end, parent, counters) in enumerate(spans):
        if name == "batch.run_batch":
            total["strip_tests"] += counters["strip_tests"]
            if counters["collect"]:
                events_s += (end - start) - counters["no_collect_s"]
                total["events"] += counters["events"]
                total["collect_samples"] += counters["n"]
            if is_estimator(parent) and "periodic" in counters:
                total["samples_in"] += counters["n"]
                for key in ("stationary", "periodic", "bad", "foreign",
                            "degenerate"):
                    total[key] += counters[key]
        elif name == "counting.homogenized_tuple" and is_estimator(parent):
            total["homogenized_in_estimator"] += 1
        elif name == "words.reduce_letters":
            total["letters_in"] += counters["letters_in"]
        elif name == "estimator.rho_estimate":
            rho_by_n[counters["N"]] += end - start
            rho_children += children_time[index]
            total["samples"] += counters["samples"]
        elif name in ("flow.hofer", "flow.calabi"):
            total["points"] += counters["points"]

    samples_in = max(total["samples_in"], 1)
    periodic = total["periodic"]
    misses = total["homogenized_in_estimator"] - total["bad"]
    out = {
        "surface.build_s": time_in["surface.build"],
        "surface.closing_word_s": time_in["surface.closing_word"],
        "surface.closing_word_calls": calls["surface.closing_word"],
        "batch.run_batch_s": time_in["batch.run_batch"],
        "batch.run_batch_calls": calls["batch.run_batch"],
        "batch.sample_strip_tests": total["strip_tests"],
        "batch.events_s": events_s,
        "batch.events": total["events"],
        "batch.events_per_sample":
            total["events"] / max(total["collect_samples"], 1),
        "batch.event_bytes": EVENT_BYTES * total["events"],
        "batch.assemble_words_s": time_in["batch.assemble_words"],
        "words.reduce_letters_s": time_in["words.reduce_letters"],
        "words.reduce_letters_calls": calls["words.reduce_letters"],
        "words.letters_in": total["letters_in"],
        "counting.homogenized_tuple_s": time_in["counting.homogenized_tuple"],
        "counting.homogenized_tuple_calls":
            calls["counting.homogenized_tuple"],
        "estimator.rho_estimate_s": time_in["estimator.rho_estimate"],
        **{f"estimator.rho_estimate_s.N{n}": rho_by_n[n]
           for n in ESTIMATOR_N},
        "estimator.self_s": time_in["estimator.rho_estimate"] - rho_children,
        "estimator.samples": total["samples"],
        "estimator.stationary_frac": total["stationary"] / samples_in,
        "estimator.periodic_frac": periodic / samples_in,
        "estimator.bad_frac": total["bad"] / samples_in,
        "estimator.foreign_frac": total["foreign"] / samples_in,
        "estimator.nudge_retries": total["degenerate"],
        "estimator.class_cache_hit_ratio":
            (periodic - misses) / periodic if periodic else 0.0,
        "flow.hofer_s": time_in["flow.hofer"],
        "flow.calabi_s": time_in["flow.calabi"],
        "flow.generator_points": total["points"],
        "cli.other_s": traced_wall - top_level,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    assert out.keys() == METRICS.keys()
    return out
