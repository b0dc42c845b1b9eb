"""Trajectory-class estimation of the induced quasimorphism on the scenario map.

Samples are drawn on the moving bands (profile ramps) of the strips: the
complement of the ramps is exactly fixed by every strip map, so it
contributes nothing.  Points on several moving bands are weighted by one
over their multiplicity, which makes the stratified sum an unbiased
integral over the union.  Periodic points contribute the exact homogenized
value of their period class; the rest contribute the finite-horizon
quotient of their accumulated crossing word.  A sample that only its home
strip moves reads its word off the segment it traces, the rest off events.
One pass over the strips gives each point's home strip and multiplicity,
periodic samples are classed once per winding pair, and one sequential
fold sums the per-class table.
"""
from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass

import numpy as np

from . import batch
from .counting import CountingQM, homogenized_tuple
from .errors import ConfigError, DegenerateCrossing
from .flow import flux_check, require_validity
from .surface import (NUDGE, Scenario, StripSpec, closing_word,
                      crossing_word, nudge_off_cut_lines)
from .words import Word, cyclic_core, reduce_letters

RETURN_TOL = 1e-9
NUDGE_RETRIES = 3
_CHUNK_SAMPLES = 180_000


@dataclass(frozen=True)
class TrajectoryRecord:
    start: tuple[float, float]
    end: tuple[float, float]
    iterates: int
    word: Word
    kind: str  # "stationary" | "periodic" | "bad"
    period: int | None = None
    class_word: Word | None = None


@dataclass(frozen=True)
class RhoEstimate:
    value: float
    stderr: float
    per_class: dict[str, tuple[float, float]]
    bad_area: float
    bad_contribution_bound: float
    samples: int


@dataclass(frozen=True)
class RhoPrediction:
    value: float
    error_radius: float


def deficiency(q: CountingQM) -> float:
    """d_r = r(a) + r(b) - r(ab) for the homogenized quasimorphism."""
    pat = q.pattern.letters
    return (homogenized_tuple(pat, (1,)) + homogenized_tuple(pat, (2,))
            - homogenized_tuple(pat, (1, 2)))


def bad_rate_bound(scenario: Scenario) -> float:
    """Per-unit-area bound on |word|/K for any orbit: at most two letters
    per strip application per step plus the amortized closing chain."""
    return 6.0 * scenario.N + 1.0


def rho_predicted(scenario: Scenario, q: CountingQM) -> RhoPrediction:
    """Analytic prediction tau * N * d_r with the bad-set error radius."""
    value = scenario.tau * scenario.N * deficiency(q)
    budget = scenario.validation.bad_area_budget if scenario.validation else 0.0
    return RhoPrediction(value=value, error_radius=budget * bad_rate_bound(scenario))


# -- sample generation ---------------------------------------------------------


def _ramp_points(strip: StripSpec, n: int, seed: int, strip_index: int):
    """Deterministic uniform points on the strip's moving band."""
    # a list key would go through float64 from 2^63 on and merge seeds
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, strip_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    along = rng.random(n)
    h = strip.smoothing + rng.random(n) * strip.ramp_width
    if strip.direction == "H":
        x, y = along, strip.offset + h
    elif strip.direction == "V":
        x, y = strip.offset + h, along
    else:
        y = along
        x = strip.offset + h + y
    return nudge_off_cut_lines((x, y))


def _ramp_scan(scenario: Scenario, x: np.ndarray, y: np.ndarray):
    """One pass over the strips: per point, the index of the first strip
    whose ramp holds it (-1 for none) and the number of ramps that hold it."""
    home = np.full(x.shape, -1, dtype=np.int64)
    count = np.zeros(x.shape, dtype=np.int64)
    for idx in reversed(range(len(scenario.strips))):
        on_ramp = scenario.strips[idx].shear(x, y, 0.0)[1]
        home[on_ramp] = idx
        count += on_ramp
    return home, count


def _canonical_class(core: tuple[int, ...]) -> str:
    """Lexicographically minimal cyclic rotation, as word text."""
    if not core:
        return ""
    best = min(core[i:] + core[:i] for i in range(len(core)))
    return Word(best, _reduced=True).text()


# -- batch evaluation ------------------------------------------------------------


def _kinds(run: batch.BatchRun, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The one classification: 0 = stationary (never moved), 1 = periodic
    (moved by its home strip alone and back at its start after m steps),
    2 = bad (every other moved sample)."""
    kinds = np.where(run.moved, 2, 0)
    if run.x_m is not None:
        returned = batch.wrapped_return(run.x_m, run.y_m, x, y, RETURN_TOL)
        kinds[returned & run.moved & ~run.foreign] = 1
    return kinds


def _windings(run: batch.BatchRun, x: np.ndarray, y: np.ndarray, idx):
    """Per sample in ``idx``, one row (fx, fy) of floor differences between
    its start and its step-m snapshot: its crossings in m steps, per axis."""
    fx = np.floor(run.x_m[idx]) - np.floor(x[idx])
    fy = np.floor(run.y_m[idx]) - np.floor(y[idx])
    return np.stack([fx, fy], axis=1).astype(np.int64)


def _path_word(run: batch.BatchRun, x: np.ndarray, y: np.ndarray, i: int,
               events: dict[int, tuple[int, ...]]) -> Word:
    """K-step word of sample i: the crossing word of the segment it traces
    if only its home strip moved it, else its reduced crossing events."""
    if run.foreign[i]:
        return Word(reduce_letters(events.get(i, ())), _reduced=True)
    return crossing_word((float(x[i]), float(y[i])),
                         (float(run.x_end[i]), float(run.y_end[i])))


def _periodic_core(path: Word, winding) -> tuple[int, ...]:
    """Cyclic core of a periodic sample's m-step word: the first |fx| + |fy|
    letters of its segment's word.  Its class depends on the winding alone."""
    return cyclic_core(path.letters[:abs(winding[0]) + abs(winding[1])])


def _evaluate_batch(scenario: Scenario, q: CountingQM, K: int,
                    x: np.ndarray, y: np.ndarray, home: np.ndarray):
    """Classify a batch and return per-sample values and class keys.

    Returns (values, kinds, keys, degenerate) with kinds 0 = stationary,
    1 = periodic, 2 = bad, and ``keys`` an object array holding each
    periodic sample's class and None for every other sample.
    """
    m = scenario.m
    pattern = q.pattern.letters
    run = batch.run_batch(scenario, scenario.tau, K, x, y,
                          home=home, collect=True, m_snapshot=m)
    kinds = _kinds(run, x, y)
    n = x.size
    values = np.zeros(n)
    keys = np.full(n, None, dtype=object)

    # flagged samples are re-run nudged: their values and keys are replaced
    periodic = np.nonzero((kinds == 1) & ~run.degenerate)[0]
    # one class per winding pair, read off the first sample with that pair
    pairs, first, inverse = np.unique(
        _windings(run, x, y, periodic), axis=0, return_index=True,
        return_inverse=True)
    cores = [_periodic_core(_path_word(run, x, y, i, {}), w)
             for w, i in zip(pairs.tolist(), periodic[first].tolist())]
    inverse = inverse.reshape(-1)  # 2-D under numpy 2.0.0
    keys[periodic] = np.array([_canonical_class(c) for c in cores],
                              dtype=object)[inverse]
    values[periodic] = np.array(
        [homogenized_tuple(pattern, c) / m for c in cores])[inverse]

    bad = np.nonzero((kinds == 2) & ~run.degenerate)[0]
    events = batch.assemble_words(run, n, only=bad[run.foreign[bad]])
    hh = scenario.surface.hole_halfwidth
    for i in bad.tolist():
        start = (float(x[i]), float(y[i]))
        end = (float(run.x_end[i]), float(run.y_end[i]))
        close, _ = closing_word(end, start, hh)
        word = _path_word(run, x, y, i, events) * close
        values[i] = homogenized_tuple(pattern, word.letters) / K
    return values, kinds, keys, run.degenerate


def _evaluate_with_nudges(scenario: Scenario, q: CountingQM, K: int,
                          x: np.ndarray, y: np.ndarray, home: np.ndarray):
    """_evaluate_batch, re-running degenerate samples from start + k * NUDGE.

    A re-run sample takes the values, kind and class key of its nudged
    run.  Raises DegenerateCrossing if samples stay degenerate after
    NUDGE_RETRIES nudges.
    """
    values, kinds, keys, degenerate = _evaluate_batch(
        scenario, q, K, x, y, home)
    attempt = 0
    while degenerate.any():
        if attempt >= NUDGE_RETRIES:
            raise DegenerateCrossing(
                f"degenerate samples persisted after {NUDGE_RETRIES} nudges")
        attempt += 1
        idx = np.nonzero(degenerate)[0]
        shift = attempt * NUDGE
        v2, k2, c2, d2 = _evaluate_batch(
            scenario, q, K, x[idx] + shift, y[idx] + shift, home[idx])
        values[idx], kinds[idx], keys[idx] = v2, k2, c2
        degenerate = np.zeros_like(degenerate)
        degenerate[idx[d2]] = True
    return values, kinds, keys


def _checked_K(scenario: Scenario, K: int | None) -> int:
    """Check the inputs both estimators share; return K (default 4m)."""
    fa, fb = flux_check(scenario)
    if (fa, fb) != (0.0, 0.0):
        raise ValueError(f"nonzero flux {(fa, fb)}: map is not Hamiltonian")
    require_validity(scenario, scenario.tau)
    m = scenario.m
    if K is None:
        K = 4 * m
    if K % m != 0:
        raise ValueError(f"K={K} must be a multiple of m={m}")
    return K


def _per_class(keys: np.ndarray, area: np.ndarray, contrib: np.ndarray):
    """Per class key (None: no class), in order of first appearance, the
    sums of ``area`` and ``contrib`` over its samples.  Each sum is a fold
    in sample order: the same bit for bit as adding one sample at a time."""
    held = np.nonzero(keys != None)[0]  # elementwise on an object array
    names, first, inverse = np.unique(keys[held].astype(str),
                                      return_index=True, return_inverse=True)
    sums = np.zeros((2, len(names)))
    np.add.at(sums[0], inverse, area[held])
    np.add.at(sums[1], inverse, contrib[held])
    return {str(names[j]): (float(sums[0, j]), float(sums[1, j]))
            for j in np.argsort(first)}


def _chunk_task(args):
    (scenario, q, K, strip_indices, n, seed) = args
    x, y = np.concatenate([_ramp_points(scenario.strips[si], n, seed, si)
                           for si in strip_indices], axis=1)
    home = np.repeat(np.array(strip_indices, dtype=np.int64), n)
    mult = _ramp_scan(scenario, x, y)[1]
    values, kinds, keys = _evaluate_with_nudges(scenario, q, K, x, y, home)
    weights = 1.0 / np.maximum(mult, 1)
    contrib = values * weights
    stats = []
    for block, si in enumerate(strip_indices):
        sel = slice(block * n, (block + 1) * n)
        area = scenario.strips[si].ramp_width  # chart area of the moving band
        block_contrib = contrib[sel]
        stats.append({
            "area": area,
            "n": n,
            "mean": float(block_contrib.mean()),
            "var": float(block_contrib.var()),
            "bad_weight": float(weights[sel][kinds[sel] == 2].sum()),
            "per_class": _per_class(keys[sel], weights[sel] * area / n,
                                    block_contrib * area / n),
        })
    return stats


def rho_estimate(scenario: Scenario, q: CountingQM, K: int | None = None,
                 samples_per_strip: int = 1000, seed: int = 0,
                 workers: int | None = None) -> RhoEstimate:
    """Monte Carlo estimate of the induced quasimorphism at the scenario map.

    Stratified over the strips' moving bands with multiplicity-deduped
    weights; per-strip sample streams are seeded independently, so the
    result is reproducible and independent of worker partitioning.
    """
    K = _checked_K(scenario, K)
    if samples_per_strip < 1:
        raise ValueError("samples_per_strip must be >= 1")
    if workers is None:
        raw = os.environ.get("STRIPFLOW_WORKERS", "1")
        try:
            workers = int(raw)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ConfigError(
                f"STRIPFLOW_WORKERS must be an integer >= 1, got {raw!r}")

    strips_per_chunk = max(1, _CHUNK_SAMPLES // max(samples_per_strip, 1))
    indices = list(range(len(scenario.strips)))
    chunks = [indices[i:i + strips_per_chunk]
              for i in range(0, len(indices), strips_per_chunk)]
    tasks = [(scenario, q, K, chunk, samples_per_strip, seed)
             for chunk in chunks]
    if workers > 1 and len(tasks) > 1:
        # the fork start method starts all max_workers processes at once
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, len(tasks))) as pool:
            chunk_stats = list(pool.map(_chunk_task, tasks))
    else:
        chunk_stats = [_chunk_task(t) for t in tasks]

    value = 0.0
    variance = 0.0
    bad_area = 0.0
    per_class: dict[str, tuple[float, float]] = {}
    total = 0
    for stats in chunk_stats:  # fixed strip order: reproducible reduction
        for s in stats:
            a, n = s["area"], s["n"]
            value += a * s["mean"]
            variance += (a * a / n) * s["var"]
            bad_area += a * s["bad_weight"] / n
            total += n
            for key, (ca, cc) in s["per_class"].items():
                pa, pc = per_class.get(key, (0.0, 0.0))
                per_class[key] = (pa + ca, pc + cc)
    return RhoEstimate(
        value=value,
        stderr=float(np.sqrt(variance)),
        per_class=per_class,
        bad_area=bad_area,
        bad_contribution_bound=bad_area * bad_rate_bound(scenario),
        samples=total,
    )


def iterate_word(scenario: Scenario, q: CountingQM, p: tuple[float, float],
                 K: int) -> TrajectoryRecord:
    """Track one point for K composed steps and classify its orbit."""
    if K < 1:
        raise ValueError("K must be >= 1")
    m = scenario.m
    x0, y0 = nudge_off_cut_lines((np.array([float(p[0])]),
                                  np.array([float(p[1])])))
    for attempt in range(NUDGE_RETRIES + 1):
        x, y = x0 + attempt * NUDGE, y0 + attempt * NUDGE
        run = batch.run_batch(scenario, scenario.tau, K, x, y,
                              home=_ramp_scan(scenario, x, y)[0], collect=True,
                              m_snapshot=m)
        if not run.degenerate[0]:
            break
    else:
        raise DegenerateCrossing(f"point {p} degenerate after retries")

    p = (float(x[0]), float(y[0]))
    end = (float(run.x_end[0]), float(run.y_end[0]))
    events = batch.assemble_words(run, 1) if run.foreign[0] else {}
    path = _path_word(run, x, y, 0, events)
    close, _ = closing_word(end, p, scenario.surface.hole_halfwidth)
    record = dict(start=p, end=end, iterates=K, word=path * close)
    kind = _kinds(run, x, y)[0]
    if kind == 1:
        core = _periodic_core(path, _windings(run, x, y, [0])[0])
        record.update(period=m, class_word=Word(core, _reduced=True))
    return TrajectoryRecord(**record,
                            kind=("stationary", "periodic", "bad")[kind])


def grid_estimate(scenario: Scenario, q: CountingQM, K: int | None = None,
                  grid: int = 400) -> RhoEstimate:
    """Full enumeration over an evenly spaced grid (no sampling).

    Every cell center on some moving band is iterated; the rest of the
    surface is exactly fixed and contributes zero.  Serves as the
    independent cross-check for rho_estimate.
    """
    K = _checked_K(scenario, K)
    xs = (np.arange(grid) + 0.5) / grid
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    gx, gy = gx.ravel(), gy.ravel()
    home = _ramp_scan(scenario, gx, gy)[0]
    sel = np.nonzero(home >= 0)[0]
    values, kinds, keys = _evaluate_with_nudges(
        scenario, q, K, gx[sel], gy[sel], home[sel])
    cell = 1.0 / (grid * grid)
    value = float(values.sum() * cell)
    count = values.size
    covered_area = count * cell
    stderr = covered_area * float(values.std()) / np.sqrt(max(count, 1))
    per_class = _per_class(keys, np.full(count, cell), values * cell)
    bad_area = float((kinds == 2).sum()) * cell
    return RhoEstimate(
        value=value,
        stderr=stderr,
        per_class=per_class,
        bad_area=bad_area,
        bad_contribution_bound=bad_area * bad_rate_bound(scenario),
        samples=count,
    )
