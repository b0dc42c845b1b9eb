"""Vectorized trajectory engine shared by the estimator and the grid oracle.

Positions are kept as plane lifts so crossing words fall out of floor
differences.  Each step emits all its crossing events at once, keyed by
(application sequence number + crossing parameter), which sorts the
letters of a sample's word globally (the event arrays themselves come in
no particular order).  Exact piecewise translations: no integration error.

Given each sample's home strip, run_batch first picks out the lone orbits
(samples that only ever sit on their home ramp), each tested once per
direction against the ramps shifted along its path, and moves them along
their home direction: one straight segment each, with no events.  Only
the rest run through the full engine, which tests every sample against
all 3N strips every step.  Along with each live sample's position it
carries per strip whether that strip is not the sample's home and, when
collecting events, the floor of each coordinate, updated once per move;
both are sliced with the positions when the samples that never moved are
dropped.

One rule flags a sample that has no exact word: its start or end point
lies on a cut line, or a foreign strip moved it and one of its moves
starts or ends on a cut line.  A sample that only its home strip moves
traces one straight segment, whose word its floor differences alone
decide (``surface.straight_letters``), so its steps are never checked.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .surface import (CUT_LINE_TOL, DIRECTION_AXES, DIRECTION_VECTORS,
                      DIRECTIONS, TRANSVERSE_GRADIENT, Scenario, frac,
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

    rest = np.arange(n, dtype=np.int64)
    if n_steps > 0:
        rest = rest[~_lone_orbits(scenario, t, n_steps, x0, y0, home, snap,
                                  run)]
    events = _run_engine(scenario, t, n_steps, x0, y0, rest, home[rest],
                         collect, snap, compact_fixed, run)

    if collect:
        run.event_sample, run.event_key, run.event_letter, on_cut = (
            np.concatenate(c) for c in zip(*events))
        run.degenerate[run.event_sample[on_cut]] = True
        run.degenerate &= run.foreign
        for c in (x0, y0, run.x_end, run.y_end):
            run.degenerate |= near_cut_line(c)
    return run


def _run_engine(scenario: Scenario, t: float, n_steps: int,
                x0: np.ndarray, y0: np.ndarray, ids: np.ndarray,
                hm: np.ndarray, collect: bool, snap: int,
                compact_fixed: bool, run: BatchRun) -> list[tuple]:
    """The full engine: every step tests every sample against all strips.

    Writes the end points, snapshot and flags of the samples ``ids`` into
    ``run``; with ``collect``, returns their crossing events.
    """
    strips = scenario.strips
    n_strips = len(strips)
    xy = [x0[ids], y0[ids]]
    floors = [np.floor(c) for c in xy] if collect else []
    away = [hm != si for si in range(n_strips)]
    moved_live = np.zeros(ids.size, dtype=bool)
    foreign_live = np.zeros(ids.size, dtype=bool)
    # acting order: last listed strip acts first
    acting = [(si, strips[si], DIRECTION_AXES[strips[si].direction])
              for si in reversed(range(n_strips))]
    events = [(np.empty(0, dtype=np.int64), np.empty(0),
               np.empty(0, dtype=np.int8), np.empty(0, dtype=bool))]

    for step in range(n_steps):
        moves = []
        for pos, (si, strip, axes) in enumerate(acting):
            _, on_ramp, d = strip.shear(*xy, t)
            moved_live |= on_ramp
            foreign_live |= on_ramp & away[si]
            # skipping keeps a -0.0 coordinate as it is (-0.0 + 0.0 is 0.0)
            if not on_ramp.any():
                continue
            seq = float(step * n_strips + pos)
            for a in axes:
                new = xy[a] + d
                if collect:  # the moves that change the floor
                    floor = np.floor(new)
                    cross = (floors[a] != floor).nonzero()[0]
                    moves.append((ids[cross], xy[a][cross], new[cross],
                                  floors[a][cross], floor[cross], a + 1, seq))
                    floors[a] = floor
                xy[a] = new
        if moves:
            events.append(_crossings(moves))

        if step == 0 and compact_fixed and not moved_live.all():
            alive = moved_live
            run.x_end[ids[~alive]], run.y_end[ids[~alive]] = (
                c[~alive] for c in xy)
            xy, floors, away = ([c[alive] for c in cs]
                                for cs in (xy, floors, away))
            ids = ids[alive]
            moved_live = moved_live[alive]
            foreign_live = foreign_live[alive]
        if step == snap:
            run.x_m[ids], run.y_m[ids] = xy

    run.x_end[ids], run.y_end[ids] = xy
    run.moved[ids] = moved_live
    run.foreign[ids] = foreign_live
    return events


def _crossings(moves: list[tuple]) -> tuple:
    """Crossing events of one step's moves ``(ids, old, new, floor of old,
    floor of new, letter code, seq)`` along one axis each: sample, key
    ``seq`` + crossing parameter, signed letter, and whether the move starts
    or ends on a cut line (a parameter within CUT_LINE_TOL of 0 or 1).  A
    move is repeated once per line it crosses; a non-finite one emits none."""
    ids, old, new, c0, c1 = (np.concatenate(c)
                             for c in list(zip(*moves))[:5])
    code, seq = np.repeat([m[5:] for m in moves], [m[0].size for m in moves],
                          axis=0).T
    counts = c1 - c0
    n = np.where(np.isfinite(counts), np.abs(counts), 0).astype(np.int64)
    move = np.repeat(np.arange(n.size), n)
    j = np.arange(1, move.size + 1) - np.repeat(np.cumsum(n) - n, n)
    up = counts[move] > 0
    k = np.where(up, c0[move] + j, c0[move] - (j - 1))
    tpar = (k - old[move]) / (new[move] - old[move])
    return (ids[move], seq[move] + tpar,
            np.where(up, code[move], -code[move]).astype(np.int8),
            (tpar < CUT_LINE_TOL) | (tpar > 1.0 - CUT_LINE_TOL))


# -- lone orbits ---------------------------------------------------------------
#
# A lone orbit sits on no ramp but its home strip's, at every position of
# its path: its home ramp moves it by the same d every step, so the full
# engine's float additions reduce to one per moving coordinate and step.
# Its transverse coordinate c in its home direction stays put, and in a
# foreign one runs through c + k * shift, k = 0..n_steps, with shift = d *
# (gradient . home direction).  So each sample is tested once per direction
# against a cover: the c with some c + k * shift within a margin of a ramp.
# The margin absorbs the rounding of the ramp test, of the cover and of the
# path's additions: Scenario.lone_margin, worked out once per batch.


def _cover(ramps, shift: float, n_steps: int, margin: float):
    """The cover of the strips ``ramps`` under ``shift`` for n_steps steps:
    its interval starts and ends mod 1, each sorted; wrapping ones split."""
    lo = np.array([s.offset + s.smoothing - margin for s in ramps])
    starts = frac(lo[:, None] - np.arange(n_steps + 1) * shift).ravel()
    ends = starts + np.repeat([s.ramp_width + 2.0 * margin for s in ramps],
                              n_steps + 1)
    wrap = ends >= 1.0
    return (np.sort(np.append(starts, np.zeros(np.count_nonzero(wrap)))),
            np.sort(np.append(ends, ends[wrap] - 1.0)))


def _covered(cover, c) -> np.ndarray:
    """How many intervals of the cover hold each transverse coordinate c."""
    starts, ends = cover
    c = frac(c)
    return np.searchsorted(starts, c, "right") - np.searchsorted(ends, c, "left")


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
    # a non-finite start is never lone and does not widen the margin
    finite = np.isfinite(x0) & np.isfinite(y0)
    margin = scenario.lone_margin(t, n_steps, max(
        np.abs(c[finite]).max(initial=0.0) for c in (x0, y0)))
    lone = np.zeros(x0.size, dtype=bool)
    shift = np.zeros(x0.size)
    moving_family = np.full(x0.size, -1, np.int8)  # home direction if moving
    for si, strip in enumerate(scenario.strips):
        idx = np.nonzero(home == si)[0]
        s, on_ramp, d = strip.shear(x0[idx], y0[idx], t)
        h = frac(s)
        # a moving orbit must stay on its home ramp while x - y drifts
        inside = ((strip.smoothing + margin < h)
                  & (h < strip.width - strip.smoothing - margin))
        lone[idx] = finite[idx] & (~on_ramp | inside)
        shift[idx] = d
        moving_family[idx[on_ramp]] = DIRECTIONS.index(strip.direction)

    # per direction, one cover per shift: only a moving orbit's home ramp
    # may hold its c (a still orbit near its home ramp is left out)
    vectors = np.array([DIRECTION_VECTORS[o] for o in DIRECTIONS])
    for code, direction in enumerate(DIRECTIONS):
        ramps = [s for s in scenario.strips if s.direction == direction]
        steps = shift * (vectors @ TRANSVERSE_GRADIENT[direction])[moving_family]
        c = transverse_lift(direction, x0, y0)
        ordered = np.sort(steps[lone])  # np.unique would import numpy.ma
        for step in ordered[np.diff(ordered, prepend=np.nan) != 0].tolist():
            ids = np.nonzero(lone & (steps == step))[0]
            cover = _cover(ramps, step, n_steps if step else 0, margin)
            lone[ids] = _covered(cover, c[ids]) == (moving_family[ids] == code)

    for code, direction in enumerate(DIRECTIONS):
        ids = np.nonzero(lone & (moving_family == code))[0]
        xy, d = [x0[ids], y0[ids]], shift[ids]
        for step in range(n_steps if ids.size else 0):
            for a in DIRECTION_AXES[direction]:
                xy[a] = xy[a] + d
            if step == snap:
                run.x_m[ids], run.y_m[ids] = xy
        run.moved[ids] = True
        run.x_end[ids], run.y_end[ids] = xy
    return lone


def assemble_words(run: BatchRun, only: np.ndarray | None = None
                   ) -> dict[int, tuple[int, ...]]:
    """Group crossing events into per-sample letter tuples, in path order.

    ``only`` restricts to the given sample indices.  Lone orbits emit no
    events, so their tuples are empty.  The events are copied only if
    ``only`` drops some; one sort by (sample, key) puts each sample's
    letters in a run, and the run lengths are the per-sample event counts.
    """
    if run.event_sample is None:
        raise ValueError("batch was run without collect=True")
    s, k, letters = run.event_sample, run.event_key, run.event_letter
    if only is not None:
        keep = np.zeros(run.moved.size, dtype=bool)
        keep[only] = True
        mask = keep[s]
        if not mask.all():
            s, k, letters = s[mask], k[mask], letters[mask]
        del keep, mask
    letter_list = letters[np.lexsort((k, s))].tolist()
    counts = np.bincount(s, minlength=run.moved.size)
    samples = np.flatnonzero(counts)
    ends = np.cumsum(counts[samples]).tolist()
    return {i: tuple(letter_list[lo:hi])
            for i, lo, hi in zip(samples.tolist(), [0] + ends, ends)}


def wrapped_return(x_m, y_m, x0, y0, tol: float) -> np.ndarray:
    """Torus-wrapped m-step return test."""
    dx = np.abs(frac((x_m - x0) + 0.5) - 0.5)
    dy = np.abs(frac((y_m - y0) + 0.5) - 0.5)
    return (dx < tol) & (dy < tol)
