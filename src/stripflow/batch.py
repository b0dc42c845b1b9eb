"""Vectorized trajectory engine shared by the estimator and the grid oracle.

Positions are kept as plane lifts so crossing words fall out of floor
differences.  Each strip application emits crossing events keyed by
(application sequence number + crossing parameter), which sorts the
letters of a sample's word globally (the event arrays themselves come in
no particular order).  Exact piecewise translations: no integration error.

Given each sample's home strip, run_batch first picks out the lone orbits
(samples that only ever sit on their home ramp) and moves them along
their home direction alone; only the rest run through the full engine,
which tests every sample against all 3N strips every step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .surface import (CUT_LINE_TOL, DIRECTION_VECTORS, DIRECTIONS, Scenario,
                      near_cut_line, transverse_lift)


@dataclass
class BatchRun:
    x_end: np.ndarray
    y_end: np.ndarray
    x_m: np.ndarray | None
    y_m: np.ndarray | None
    moved: np.ndarray
    foreign: np.ndarray
    degenerate: np.ndarray
    event_sample: np.ndarray | None
    event_key: np.ndarray | None
    event_letter: np.ndarray | None
    applications_per_step: int


class _EventSink:
    def __init__(self):
        self.sample: list[np.ndarray] = []
        self.key: list[np.ndarray] = []
        self.letter: list[np.ndarray] = []
        self.degenerate_ids: list[np.ndarray] = []

    def emit_axis(self, ids, old, new, letter_code, seq):
        """Emit the cut-line crossings of the moves old -> new along one
        axis; ``seq`` is the application's sequence number, one float or
        one per sample."""
        c0 = np.floor(old)
        cnt = (np.floor(new) - c0).astype(np.int64)
        nz = np.nonzero(cnt)[0]
        if nz.size == 0:
            return
        counts = cnt[nz]
        for j in range(1, int(np.abs(counts).max()) + 1):
            sel = np.abs(counts) >= j
            idx = nz[sel]
            up = counts[sel] > 0
            k = np.where(up, c0[idx] + j, c0[idx] - (j - 1))
            tpar = (k - old[idx]) / (new[idx] - old[idx])
            # a crossing at a segment endpoint means the endpoint sits on a
            # cut line: flag for the caller's nudge-and-retry
            bad = (tpar < CUT_LINE_TOL) | (tpar > 1.0 - CUT_LINE_TOL)
            if bad.any():
                self.degenerate_ids.append(ids[idx[bad]])
            self.sample.append(ids[idx])
            self.key.append((seq if np.ndim(seq) == 0 else seq[idx]) + tpar)
            self.letter.append(
                np.where(up, letter_code, -letter_code).astype(np.int8))

    def arrays(self):
        if not self.sample:
            return (np.empty(0, dtype=np.int64), np.empty(0),
                    np.empty(0, dtype=np.int8))
        return (np.concatenate(self.sample),
                np.concatenate(self.key),
                np.concatenate(self.letter))


def run_batch(scenario: Scenario, t: float, n_steps: int,
              x0: np.ndarray, y0: np.ndarray,
              home: np.ndarray | None = None,
              collect: bool = False,
              m_snapshot: int | None = None,
              compact_fixed: bool = True) -> BatchRun:
    """Iterate n_steps composed time-t maps over a batch of lifted points.

    Samples whose lift is unchanged after the first step are exactly fixed
    forever and are dropped from the iteration (their flags stay put).
    With ``home``, the lone orbits are followed along their home strip
    alone and only the other samples run through the full engine; the
    result is the same bit for bit.  With ``collect``, ``degenerate``
    flags every sample that has no exact word: a crossing at a segment
    end, or an end point on a cut line.
    """
    n_strips = len(scenario.strips)
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    n = x0.size
    snap = m_snapshot - 1 if (m_snapshot is not None
                              and 1 <= m_snapshot <= n_steps) else -1
    run = BatchRun(
        x_end=x0.copy(), y_end=y0.copy(),
        x_m=x0.copy() if snap >= 0 else None,
        y_m=y0.copy() if snap >= 0 else None,
        moved=np.zeros(n, dtype=bool), foreign=np.zeros(n, dtype=bool),
        degenerate=np.zeros(n, dtype=bool),
        event_sample=None, event_key=None, event_letter=None,
        applications_per_step=n_strips)
    sink = _EventSink() if collect else None

    rest = np.arange(n, dtype=np.int64)
    if home is not None and n_steps > 0:
        lone, groups = _lone_orbits(scenario, t, n_steps, x0, y0, home)
        _follow_lone_orbits(groups, x0, y0, home, n_strips, n_steps, sink,
                            snap, run)
        rest = rest[~lone]
    _run_engine(scenario, t, n_steps, x0, y0, rest,
                None if home is None else home[rest], sink, snap,
                compact_fixed, run)

    if collect:
        run.event_sample, run.event_key, run.event_letter = sink.arrays()
        run.degenerate |= near_cut_line(run.x_end) | near_cut_line(run.y_end)
        for bad_ids in sink.degenerate_ids:
            run.degenerate[bad_ids] = True
    return run


def _run_engine(scenario: Scenario, t: float, n_steps: int,
                x0: np.ndarray, y0: np.ndarray, ids: np.ndarray,
                hm: np.ndarray | None, sink: _EventSink | None, snap: int,
                compact_fixed: bool, run: BatchRun) -> None:
    """The full engine: every step tests every sample against all strips.

    Follows the samples ``ids`` of the batch and writes their end points,
    step-``snap`` snapshot and flags into ``run``.
    """
    strips = scenario.strips
    n_strips = len(strips)
    x, y = x0[ids], y0[ids]
    moved_live = np.zeros(ids.size, dtype=bool)
    foreign_live = np.zeros(ids.size, dtype=bool)
    # acting order: last listed strip acts first
    acting = [(si, strips[si], DIRECTION_VECTORS[strips[si].direction])
              for si in reversed(range(n_strips))]

    for step in range(n_steps):
        for pos, (si, strip, (vx, vy)) in enumerate(acting):
            _, on_ramp, d = strip.shear(x, y, t)
            moved_live |= on_ramp
            if hm is not None:
                foreign_live |= on_ramp & (hm != si)
            if not on_ramp.any():
                continue
            seq = float(step * n_strips + pos)
            if vx:
                xn = x + d
                if sink is not None:
                    sink.emit_axis(ids, x, xn, 1, seq)
                x = xn
            if vy:
                yn = y + d
                if sink is not None:
                    sink.emit_axis(ids, y, yn, 2, seq)
                y = yn

        if step == 0 and compact_fixed and not moved_live.all():
            alive = moved_live
            run.x_end[ids[~alive]] = x[~alive]
            run.y_end[ids[~alive]] = y[~alive]
            x, y, ids = x[alive], y[alive], ids[alive]
            if hm is not None:
                hm = hm[alive]
            moved_live = moved_live[alive]
            foreign_live = foreign_live[alive]
        if step == snap:
            run.x_m[ids] = x
            run.y_m[ids] = y

    run.x_end[ids] = x
    run.y_end[ids] = y
    run.moved[ids] = moved_live
    run.foreign[ids] = foreign_live


# -- lone orbits ---------------------------------------------------------------
#
# A lone orbit sits on no ramp but its home strip's, at every position of
# its path.  Its home ramp then moves it by the same displacement every
# step and every other strip leaves it alone, so the full engine's float
# additions reduce to one per moving coordinate and step.

# Per direction, the ramps are looked up in _BINS equal bins over [0, 1); a
# bin counts as touched by a ramp within _MARGIN of it.  The margin
# absorbs the rounding of the ramp test and the drift of x - y under the
# additions; _lone_orbits checks that bound per sample.
_BINS = 1 << 16
_MARGIN = 1e-9


def _ramp_owners(strips) -> dict[str, np.ndarray]:
    """Per direction, the index of the one strip whose ramp touches each
    bin: -1 for none, -2 for several."""
    owners = {d: np.full(_BINS, -1, dtype=np.int32) for d in DIRECTIONS}
    for si, s in enumerate(strips):
        lo = math.floor((s.offset + s.smoothing - _MARGIN) * _BINS)
        hi = math.floor((s.offset + s.width - s.smoothing + _MARGIN) * _BINS)
        bins = np.arange(lo, hi + 1) % _BINS
        table = owners[s.direction]
        table[bins] = np.where(table[bins] == -1, si, -2)
    return owners


def _bins(direction: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bin of each point's transverse coordinate mod 1 (exact: no rounding)."""
    c = transverse_lift(direction, x, y)
    return np.floor(c * _BINS).astype(np.int64) & (_BINS - 1)


def _lone_orbits(scenario: Scenario, t: float, n_steps: int,
                 x0: np.ndarray, y0: np.ndarray, home: np.ndarray):
    """Pick out the samples that are lone orbits for n_steps steps.

    The test may over-flag (a lone orbit left to the full engine costs
    only time) but never under-flags: a sample called lone is on no ramp
    but its home strip's under the exact ``StripSpec.shear`` test at every
    one of its n_steps + 1 positions.  Returns ``(lone, groups)``:
    ``groups`` lists ``(direction, ids, shift)`` per home direction for the
    lone orbits on their home ramp, with their displacement per step.
    """
    strips = scenario.strips
    n = x0.size
    owners = _ramp_owners(strips)
    lone = np.zeros(n, dtype=bool)
    shift = np.zeros(n)
    moving_family = np.full(n, -1, dtype=np.int8)  # home direction if moving
    for si, strip in enumerate(strips):
        idx = np.nonzero(home == si)[0]
        if idx.size == 0:
            continue
        s, on_ramp, d = strip.shear(x0[idx], y0[idx], t)
        h = s % 1.0
        # a moving orbit must stay on its home ramp while x - y drifts
        inside = ((strip.smoothing + _MARGIN < h)
                  & (h < strip.width - strip.smoothing - _MARGIN))
        lone[idx] = ~on_ramp | inside
        shift[idx] = d
        moving_family[idx[on_ramp]] = DIRECTIONS.index(strip.direction)
    # start: no ramp but the home strip's within the margin, in any
    # direction; the home direction's coordinate keeps within the margin
    for direction, owner in owners.items():
        near = owner[_bins(direction, x0, y0)]
        lone &= (near == -1) | (near == home)
    # rounding of the path's coordinates stays well inside the margin
    # (false for non-finite starts)
    reach = np.maximum(np.abs(x0), np.abs(y0)) + n_steps * np.abs(shift)
    lone &= (n_steps + 2) * (reach + 2.0) * 2.0 ** -48 < _MARGIN

    busy = {d: owner != -1 for d, owner in owners.items()}
    groups = []
    for code, direction in enumerate(DIRECTIONS):
        ids = np.nonzero(lone & (moving_family == code))[0]
        vx, vy = DIRECTION_VECTORS[direction]
        others = [(o, busy[o]) for o in DIRECTIONS if o != direction]
        x, y, d = x0[ids], y0[ids], shift[ids]
        hit = np.zeros(ids.size, dtype=bool)
        for _ in range(n_steps):
            if not ids.size:
                break
            if vx:
                x = x + d
            if vy:
                y = y + d
            for o, table in others:
                hit |= table[_bins(o, x, y)]
            if 4 * np.count_nonzero(hit) > hit.size:  # drop them in bulk
                keep = ~hit
                lone[ids[hit]] = False
                ids, x, y, d = ids[keep], x[keep], y[keep], d[keep]
                hit = np.zeros(ids.size, dtype=bool)
        lone[ids[hit]] = False
        if not hit.all():
            groups.append((direction, ids[~hit], d[~hit]))
    return lone, groups


def _follow_lone_orbits(groups, x0, y0, home, n_strips: int, n_steps: int,
                        sink: _EventSink | None, snap: int,
                        run: BatchRun) -> None:
    """Move each lone orbit by its shift once per step, as its home strip's
    application does in the full engine, and emit the crossings under that
    application's sequence number."""
    for direction, ids, d in groups:
        vx, vy = DIRECTION_VECTORS[direction]
        run.moved[ids] = True
        x, y = x0[ids], y0[ids]
        pos = (n_strips - 1 - home[ids]).astype(float)  # home's acting slot
        for step in range(n_steps):
            seq = pos + float(step * n_strips)
            if vx:
                xn = x + d
                if sink is not None:
                    sink.emit_axis(ids, x, xn, 1, seq)
                x = xn
            if vy:
                yn = y + d
                if sink is not None:
                    sink.emit_axis(ids, y, yn, 2, seq)
                y = yn
            if step == snap:
                run.x_m[ids] = x
                run.y_m[ids] = y
        run.x_end[ids] = x
        run.y_end[ids] = y


def assemble_words(run: BatchRun, n_samples: int,
                   max_key: float | None = None,
                   only: np.ndarray | None = None) -> dict[int, tuple[int, ...]]:
    """Group crossing events into per-sample letter tuples, in path order.

    ``max_key`` keeps events with key < max_key (e.g. the first m steps);
    ``only`` restricts to the given sample indices.
    """
    if run.event_sample is None:
        raise ValueError("batch was run without collect=True")
    s, k, letters = run.event_sample, run.event_key, run.event_letter
    mask = None
    if max_key is not None:
        mask = k < max_key
    if only is not None:
        keep = np.zeros(n_samples, dtype=bool)
        keep[only] = True
        mask = keep[s] if mask is None else (mask & keep[s])
    if mask is not None:
        s, k, letters = s[mask], k[mask], letters[mask]
    if s.size == 0:
        return {}
    order = np.lexsort((k, s))
    s, letters = s[order], letters[order]
    bounds = np.searchsorted(s, np.arange(n_samples + 1))
    letter_list = letters.tolist()
    out: dict[int, tuple[int, ...]] = {}
    for i in np.unique(s):
        lo, hi = bounds[i], bounds[i + 1]
        out[int(i)] = tuple(letter_list[lo:hi])
    return out


def wrapped_return(x_m, y_m, x0, y0, tol: float) -> np.ndarray:
    """Torus-wrapped m-step return test."""
    dx = np.abs(((x_m - x0) + 0.5) % 1.0 - 0.5)
    dy = np.abs(((y_m - y0) + 0.5) % 1.0 - 0.5)
    return (dx < tol) & (dy < tol)
