"""Vectorized trajectory engine shared by the estimator and the grid oracle.

Positions are kept as plane lifts so crossing words fall out of floor
differences.  Each strip application emits crossing events keyed by
(application sequence number + crossing parameter), which sorts the
letters of a sample's word globally (the event arrays themselves come in
no particular order).  Exact piecewise translations: no integration error.

Given each sample's home strip, run_batch first picks out the lone orbits
(samples that only ever sit on their home ramp) and moves them along their
home direction in the same pass; they trace one straight segment and emit
no events.  Only the rest run through the full engine, which tests every
sample against all 3N strips every step.

One rule flags a sample that has no exact word: its start or end point
lies on a cut line, or a foreign strip moved it and one of its moves
starts or ends on a cut line.  A sample that only its home strip moves
traces one straight segment, whose word its end points alone decide, so
its steps are never checked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .surface import (CUT_LINE_TOL, DIRECTION_AXES, DIRECTIONS, Scenario,
                      frac, near_cut_line, transverse_lift)


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
    def __init__(self, n: int):
        self.sample = [np.empty(0, dtype=np.int64)]
        self.key = [np.empty(0)]
        self.letter = [np.empty(0, dtype=np.int8)]
        self.at_end = np.zeros(n, dtype=bool)

    def emit_axis(self, ids, old, new, letter_code, seq: float):
        """Emit the cut-line crossings of the moves old -> new along one
        axis under the application's sequence number ``seq``, and flag in
        ``at_end`` the moves with a crossing parameter within CUT_LINE_TOL
        of 0 or 1: they start or end on a cut line."""
        c0, c1 = np.floor(old), np.floor(new)
        nz = np.nonzero(c0 != c1)[0]
        ids, old, new, c0 = ids[nz], old[nz], new[nz], c0[nz]
        counts = (c1[nz] - c0).astype(np.int64)
        for j in range(1, int(np.abs(counts).max(initial=0)) + 1):
            sel = np.abs(counts) >= j
            up = counts[sel] > 0
            k = np.where(up, c0[sel] + j, c0[sel] - (j - 1))
            tpar = (k - old[sel]) / (new[sel] - old[sel])
            self.at_end[ids[sel][(tpar < CUT_LINE_TOL)
                                 | (tpar > 1.0 - CUT_LINE_TOL)]] = True
            self.sample.append(ids[sel])
            self.key.append(seq + tpar)
            self.letter.append(
                np.where(up, letter_code, -letter_code).astype(np.int8))

    def arrays(self):
        return tuple(map(np.concatenate, (self.sample, self.key, self.letter)))


def run_batch(scenario: Scenario, t: float, n_steps: int,
              x0: np.ndarray, y0: np.ndarray, home: np.ndarray,
              collect: bool = False,
              m_snapshot: int | None = None,
              compact_fixed: bool = True) -> BatchRun:
    """Iterate n_steps composed time-t maps over a batch of lifted points.

    ``home`` gives each sample's home strip (-1 for none); a sample that
    any other strip moves is ``foreign``.  Samples whose lift is unchanged
    after the first step are exactly fixed forever and are dropped from
    the iteration (their flags stay put).  The lone orbits are followed
    along their home strip alone and only the other samples run through
    the full engine; every position and flag is the same bit for bit, but
    lone orbits emit no crossing events.  With ``collect``, ``degenerate``
    flags every sample that has no exact word: a start or end point on a
    cut line, or a foreign sample with a move that starts or ends on one.
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
    sink = _EventSink(n) if collect else None

    rest = np.arange(n, dtype=np.int64)
    if n_steps > 0:
        rest = rest[~_lone_orbits(scenario, t, n_steps, x0, y0, home, snap,
                                  run)]
    _run_engine(scenario, t, n_steps, x0, y0, rest, home[rest], sink, snap,
                compact_fixed, run)

    if collect:
        run.event_sample, run.event_key, run.event_letter = sink.arrays()
        run.degenerate = sink.at_end & run.foreign
        for c in (x0, y0, run.x_end, run.y_end):
            run.degenerate |= near_cut_line(c)
    return run


def _run_engine(scenario: Scenario, t: float, n_steps: int,
                x0: np.ndarray, y0: np.ndarray, ids: np.ndarray,
                hm: np.ndarray, sink: _EventSink | None, snap: int,
                compact_fixed: bool, run: BatchRun) -> None:
    """The full engine: every step tests every sample against all strips.

    Follows the samples ``ids`` of the batch and writes their end points,
    step-``snap`` snapshot and flags into ``run``.
    """
    strips = scenario.strips
    n_strips = len(strips)
    xy = [x0[ids], y0[ids]]
    moved_live = np.zeros(ids.size, dtype=bool)
    foreign_live = np.zeros(ids.size, dtype=bool)
    # acting order: last listed strip acts first
    acting = [(si, strips[si], DIRECTION_AXES[strips[si].direction])
              for si in reversed(range(n_strips))]

    for step in range(n_steps):
        for pos, (si, strip, axes) in enumerate(acting):
            _, on_ramp, d = strip.shear(*xy, t)
            moved_live |= on_ramp
            foreign_live |= on_ramp & (hm != si)
            if not on_ramp.any():
                continue
            seq = float(step * n_strips + pos)
            for a in axes:
                new = xy[a] + d
                if sink is not None:
                    sink.emit_axis(ids, xy[a], new, a + 1, seq)
                xy[a] = new

        if step == 0 and compact_fixed and not moved_live.all():
            alive = moved_live
            run.x_end[ids[~alive]], run.y_end[ids[~alive]] = (
                c[~alive] for c in xy)
            xy, ids, hm = [c[alive] for c in xy], ids[alive], hm[alive]
            moved_live = moved_live[alive]
            foreign_live = foreign_live[alive]
        if step == snap:
            run.x_m[ids], run.y_m[ids] = xy

    run.x_end[ids], run.y_end[ids] = xy
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
                 x0: np.ndarray, y0: np.ndarray, home: np.ndarray,
                 snap: int, run: BatchRun) -> np.ndarray:
    """Pick out the samples that are lone orbits for n_steps steps, follow
    them as their home strip's applications in the engine would, and write
    their end points, snapshots and ``moved`` flags into ``run``; return
    the lone mask.

    The test may over-flag (a lone orbit left to the full engine costs
    only time) but never under-flags: a sample called lone is on no ramp
    but its home strip's under the exact ``StripSpec.shear`` test at every
    one of its n_steps + 1 positions.
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
        h = frac(s)
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
    for code, direction in enumerate(DIRECTIONS):
        ids = np.nonzero(lone & (moving_family == code))[0]
        axes = DIRECTION_AXES[direction]
        others = [(o, busy[o]) for o in DIRECTIONS if o != direction]
        xy, d = [x0[ids], y0[ids]], shift[ids]
        snapshot = list(xy)  # replaced at step snap
        hit = np.zeros(ids.size, dtype=bool)
        for step in range(n_steps):
            if not ids.size:
                break
            for a in axes:
                xy[a] = xy[a] + d
            for o, table in others:
                hit |= table[_bins(o, *xy)]
            if step == snap:
                snapshot = list(xy)
            # drop the hit samples in bulk, and all that are left at the end
            if 4 * np.count_nonzero(hit) > hit.size or step == n_steps - 1:
                keep = ~hit
                lone[ids[hit]] = False
                ids, d, hit = ids[keep], d[keep], hit[keep]
                xy = [c[keep] for c in xy]
                snapshot = [c[keep] for c in snapshot]
        run.moved[ids] = True
        run.x_end[ids], run.y_end[ids] = xy
        if snap >= 0:
            run.x_m[ids], run.y_m[ids] = snapshot
    return lone


def assemble_words(run: BatchRun, n_samples: int,
                   only: np.ndarray | None = None) -> dict[int, tuple[int, ...]]:
    """Group crossing events into per-sample letter tuples, in path order.

    ``only`` restricts to the given sample indices.  Lone orbits emit no
    events, so their tuples are empty.
    """
    if run.event_sample is None:
        raise ValueError("batch was run without collect=True")
    s, k, letters = run.event_sample, run.event_key, run.event_letter
    if only is not None:
        keep = np.zeros(n_samples, dtype=bool)
        keep[only] = True
        mask = keep[s]
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
    dx = np.abs(frac((x_m - x0) + 0.5) - 0.5)
    dy = np.abs(frac((y_m - y0) + 0.5) - 0.5)
    return (dx < tol) & (dy < tol)
