"""Trajectory-class estimation of the induced quasimorphism on the scenario map.

Samples are drawn on the moving bands (profile ramps) of the strips: the
complement of the ramps is exactly fixed by every strip map, so it
contributes nothing.  Points on several moving bands are weighted by one
over their multiplicity, which makes the stratified sum an unbiased
integral over the union.  Periodic points contribute the exact homogenized
value of their period class; the rest contribute the finite-horizon
quotient of their accumulated crossing word.  A sample that only its home
strip moves reads its word off its floor differences, the rest off events.
One pass over the strips gives each point's home strip and multiplicity,
periodic samples are classed from their winding pair, a bad sample's word is
reduced once per distinct raw word (its path and closing letters) and
valued once per distinct reduced word, and one fold over per-strip records
gives the estimate, its error and its per-class table.
"""
from __future__ import annotations

import concurrent.futures
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import batch
from .counting import CountingQM, homogenized_tuple
from .errors import ConfigError, DegenerateCrossing
from .flow import (cell_centers, flux_check, require_budget,
                   require_grid_sizes, require_validity)
from .surface import (NUDGE, Scenario, StripSpec, closing_letters,
                      closing_word, straight_letters)
from .words import Word, reduce_letters

RETURN_TOL = 1e-9
NUDGE_RETRIES = 3
_CHUNK_SAMPLES = 180_000
MAX_LINES_CROSSED = 10**5
MAX_STEPS = 10**5
# A chunk holds whole strips and peaks at about 230 bytes a sample, 410 if
# all are bad (tracemalloc, default N = 8 and full-ramp N = 4 chunks): a
# strip too big at SAMPLE_BYTES each is refused.
SAMPLE_BYTES = 1024
MAX_CHUNK_BYTES = 1 << 31


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
    """Analytic prediction tau * N * d_r."""
    return RhoPrediction(value=scenario.tau * scenario.N * deficiency(q))


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
    return x, y


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


def _class_core(fx: int, fy: int) -> tuple[int, ...]:
    """The class of a periodic sample of winding (fx, fy), such as a^n, b^n,
    (ab)^n or (BA)^n: the minimal rotation by letter code (B < A < a < b) of
    the straight_letters of a segment of that winding led by the axis it
    crosses more often; only its rotations by 0, 1 or -1 letters can be."""
    p = (0.5, 0.25) if (abs(fx) >= abs(fy)) == (fx > 0) else (0.25, 0.5)
    word = straight_letters(p, (p[0] + fx, p[1] + fy))
    return min(word[i:] + word[:i] for i in (0, 1, len(word) - 1))


def _evaluate_batch(scenario: Scenario, q: CountingQM, K: int,
                    x: np.ndarray, y: np.ndarray, home: np.ndarray):
    """Classify a batch and return per-sample values and class keys.

    Returns (values, kinds, keys, degenerate) with kinds 0 = stationary,
    1 = periodic, 2 = bad, and ``keys`` an object array holding each
    periodic sample's class and None for every other sample.

    A bad sample's value depends only on its reduced K-step word: the free
    reduction of its raw word, its path letters (its crossing events if a
    foreign strip moved it, else its straight_letters) then its closing
    letters.  Each distinct raw word is reduced once and each distinct
    reduced word is homogenized once.
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
    # one class per winding pair; return_index spares numpy a slow row sort
    pairs, _, inverse = np.unique(
        _windings(run, x, y, periodic), axis=0, return_index=True,
        return_inverse=True)
    cores = [_class_core(fx, fy) for fx, fy in pairs.tolist()]
    inverse = inverse.reshape(-1)  # 2-D under numpy 2.0.0
    keys[periodic] = np.array([Word(c, _reduced=True).text() for c in cores],
                              dtype=object)[inverse]
    values[periodic] = np.array(
        [homogenized_tuple(pattern, c) / m for c in cores])[inverse]

    bad = np.nonzero((kinds == 2) & ~run.degenerate)[0]
    foreign = run.foreign[bad]
    events = batch.assemble_words(run, only=bad[foreign])
    hh = scenario.surface.hole_halfwidth
    letters, declined = closing_letters(run.x_end[bad], run.y_end[bad],
                                        x[bad], y[bad], hh)
    reduced = {}  # one reduced word per distinct raw (path, closing) pair
    valued = {}  # one value per distinct reduced K-step word
    bad_values = []
    for i, f, letter, scalar in zip(bad.tolist(), foreign.tolist(),
                                    letters.tolist(), declined.tolist()):
        if scalar:
            close = closing_word((float(run.x_end[i]), float(run.y_end[i])),
                                 (float(x[i]), float(y[i])), hh)[0].letters
        else:
            close = (letter,) if letter else ()
        raw = (events.get(i, ()) if f else straight_letters(
            (x[i], y[i]), (run.x_end[i], run.y_end[i])), close)
        if raw not in reduced:  # free reduction is confluent
            reduced[raw] = reduce_letters(raw[0] + close)
        word = reduced[raw]
        if word not in valued:
            valued[word] = homogenized_tuple(pattern, word) / K
        bad_values.append(valued[word])
    values[bad] = bad_values
    return values, kinds, keys, run.degenerate


def _nudged(evaluate, x, y, *rest):
    """Run ``evaluate(x, y, *rest)`` (per-sample outputs, the last flagging
    the degenerate samples) and re-run those from start + k * NUDGE, k = 1..
    NUDGE_RETRIES, each taking the outputs of its nudged run.  Raises
    DegenerateCrossing if samples stay degenerate."""
    *out, degenerate = evaluate(x, y, *rest)
    idx = np.nonzero(degenerate)[0]
    for k in range(1, NUDGE_RETRIES + 1):
        if not idx.size:
            break
        *res, degenerate = evaluate(x[idx] + k * NUDGE, y[idx] + k * NUDGE,
                                    *(r[idx] for r in rest))
        for a, b in zip(out, res):
            a[idx] = b
        idx = idx[degenerate]
    if idx.size:
        raise DegenerateCrossing(
            f"degenerate samples persisted after {NUDGE_RETRIES} nudges")
    return out


def checked_K(scenario: Scenario, K: int | None) -> int:
    """Check the inputs both estimators share; return K (default 4m).

    Every sample not dropped after the first step runs all K steps: K
    above MAX_STEPS is refused (the default config runs K = 512 at N = 8).
    Over K steps a lone orbit crosses K * tau / ramp_width cut lines per
    axis, and a bad one's word is reduced letter by letter.  More than
    MAX_LINES_CROSSED is refused; the default config crosses 32.  So is
    a ramp no wider than twice the lone-orbit margin of starts in [0, 2]:
    floats cannot tell an orbit on it lone."""
    fa, fb = flux_check(scenario)
    if (fa, fb) != (0.0, 0.0):
        raise ValueError(f"nonzero flux {(fa, fb)}: map is not Hamiltonian")
    require_validity(scenario, scenario.tau)
    m = scenario.m
    if K is None:
        K = 4 * m
    if K % m != 0:
        raise ValueError(f"K={K} must be a multiple of m={m}")
    require_budget("K", K, K, MAX_STEPS, "steps")
    lines = max((K * scenario.tau / s.ramp_width for s in scenario.strips),
                default=0.0)
    require_budget("K", K, lines, MAX_LINES_CROSSED, "cut lines per axis")
    margin = scenario.lone_margin(scenario.tau, K, 2.0)
    narrow = min((s.ramp_width for s in scenario.strips), default=math.inf)
    if narrow <= 2.0 * margin:
        raise ValueError(
            f"a ramp of width {narrow:.3g} is at most twice the rounding "
            f"margin {margin:.3g} of K={K} steps: floats cannot resolve it")
    return K


def require_sample_size(samples_per_strip: int):
    """Raise ValueError unless a strip's samples, at least 1, fit a chunk."""
    require_grid_sizes(samples_per_strip=samples_per_strip)
    require_budget("samples_per_strip", samples_per_strip,
                   SAMPLE_BYTES * samples_per_strip, MAX_CHUNK_BYTES, "bytes")


def _per_class(rows):
    """Per key of rows (key, area, contribution), in order of first appearance,
    its sums of area and contribution, folded in row order; None: no class."""
    table = {}
    for key, area, contrib in rows:
        if key is not None:
            a, c = table.get(key, (0.0, 0.0))
            table[key] = (a + area, c + contrib)
    return table


def _record(area: float, contrib: np.ndarray, weights: np.ndarray,
            kinds: np.ndarray, keys: np.ndarray):
    """One stratum's record from its area and its samples' weighted
    contributions, weights, kinds and class keys."""
    n = contrib.size
    return (area, n, float(contrib.mean()), float(contrib.var()),
            float(weights[kinds == 2].sum()),
            _per_class(zip(keys.tolist(), (weights * area / n).tolist(),
                           (contrib * area / n).tolist())))


def _summary(scenario: Scenario, records) -> RhoEstimate:
    """Fold a list of stratum records (area, n, mean, var, bad_weight,
    per_class) in order into one estimate; mean and var are of the n samples'
    weighted contributions, bad_weight the summed weight of the bad ones."""
    value = variance = bad_area = 0.0
    for area, n, mean, var, bad_weight, _ in records:
        value += area * mean
        variance += (area * area / n) * var
        bad_area += area * bad_weight / n
    return RhoEstimate(
        value=value, stderr=float(np.sqrt(variance)),
        per_class=_per_class((key, *sums) for *_, table in records
                             for key, sums in table.items()),
        bad_area=bad_area, samples=sum(r[1] for r in records),
        bad_contribution_bound=bad_area * bad_rate_bound(scenario))


def _chunk_task(args):
    """One record per strip of the chunk, each point weighted by one over
    the number of ramps that hold it."""
    (scenario, q, K, strip_indices, n, seed) = args
    x, y = np.concatenate([_ramp_points(scenario.strips[si], n, seed, si)
                           for si in strip_indices], axis=1)
    home = np.repeat(np.array(strip_indices, dtype=np.int64), n)
    weights = 1.0 / np.maximum(_ramp_scan(scenario, x, y)[1], 1)
    values, kinds, keys = _nudged(
        functools.partial(_evaluate_batch, scenario, q, K), x, y, home)
    contrib = values * weights
    blocks = zip(*(np.split(a, len(strip_indices))
                   for a in (contrib, weights, kinds, keys)))
    # the chart area of a strip's moving band is its ramp width
    return [_record(scenario.strips[si].ramp_width, *block)
            for si, block in zip(strip_indices, blocks)]


def rho_estimate(scenario: Scenario, q: CountingQM, K: int | None = None,
                 samples_per_strip: int = 1000, seed: int = 0,
                 workers: int | None = None) -> RhoEstimate:
    """Monte Carlo estimate of the induced quasimorphism at the scenario map.

    Stratified over the strips' moving bands with multiplicity-deduped
    weights; per-strip sample streams are seeded independently, so the
    result is reproducible and independent of worker partitioning.
    """
    K = checked_K(scenario, K)
    require_sample_size(samples_per_strip)
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
            chunk_records = list(pool.map(_chunk_task, tasks))
    else:
        chunk_records = [_chunk_task(t) for t in tasks]
    # fixed strip order: reproducible reduction
    return _summary(scenario, [r for rs in chunk_records for r in rs])


def iterate_word(scenario: Scenario, q: CountingQM, p: tuple[float, float],
                 K: int) -> TrajectoryRecord:
    """Track one point for K composed steps and classify its orbit."""
    if K < 1:
        raise ValueError("K must be >= 1")
    x0, y0 = float(p[0]), float(p[1])
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise ValueError(f"start point {p!r} is not finite")
    m = scenario.m

    def walk(x, y):
        run = batch.run_batch(scenario, scenario.tau, K, x, y,
                              home=_ramp_scan(scenario, x, y)[0], collect=True,
                              m_snapshot=m)
        return x, y, np.array([run], dtype=object), run.degenerate

    x, y, (run,) = _nudged(walk, np.array([x0]), np.array([y0]))
    p = (float(x[0]), float(y[0]))
    end = (float(run.x_end[0]), float(run.y_end[0]))
    path = (reduce_letters(batch.assemble_words(run).get(0, ()))
            if run.foreign[0] else straight_letters(p, end))
    close, _ = closing_word(end, p, scenario.surface.hole_halfwidth)
    record = dict(start=p, end=end, iterates=K,
                  word=Word(path, _reduced=True) * close)
    kind = _kinds(run, x, y)[0]
    if kind == 1:  # a straight m-step word is cyclically reduced
        m_word = straight_letters(p, (run.x_m[0], run.y_m[0]))
        record.update(period=m, class_word=Word(m_word, _reduced=True))
    return TrajectoryRecord(**record,
                            kind=("stationary", "periodic", "bad")[kind])


def grid_estimate(scenario: Scenario, q: CountingQM, K: int | None = None,
                  grid: int = 400) -> RhoEstimate:
    """Full enumeration over an evenly spaced grid (no sampling).

    Every cell center on some moving band is iterated; the rest of the
    surface is exactly fixed and contributes zero.  Serves as the
    independent cross-check for rho_estimate.
    """
    K = checked_K(scenario, K)
    require_grid_sizes(grid=grid)
    gx, gy = cell_centers(grid)
    home = _ramp_scan(scenario, gx, gy)[0]
    sel = np.nonzero(home >= 0)[0]
    values, kinds, keys = _nudged(
        functools.partial(_evaluate_batch, scenario, q, K),
        gx[sel], gy[sel], home[sel])
    # one stratum of weight-1 cells; none if no cell lies on a ramp
    area = sel.size * (1.0 / (grid * grid))
    return _summary(scenario, [_record(area, values, np.ones(sel.size), kinds,
                                       keys)] if sel.size else [])
