"""Vectorized trajectory engine shared by the estimator and the grid oracle.

Positions are kept as plane lifts so crossing words fall out of floor
differences.  Each strip application emits crossing events keyed by
(application sequence number + crossing parameter), which sorts the
letters of a sample's word globally.  Exact piecewise translations: no
integration error.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .surface import CUT_LINE_TOL, DIRECTION_VECTORS, Scenario, near_cut_line


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
            self.key.append(seq + tpar)
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
    With ``collect``, ``degenerate`` flags every sample that has no exact
    word: a crossing at a segment end, or an end point on a cut line.
    """
    strips = scenario.strips
    n_strips = len(strips)
    n = x0.size
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    ids = np.arange(n, dtype=np.int64)
    hm = home.copy() if home is not None else None

    moved_live = np.zeros(n, dtype=bool)
    foreign_live = np.zeros(n, dtype=bool)
    moved = np.zeros(n, dtype=bool)
    foreign = np.zeros(n, dtype=bool)
    x_end = x.copy()
    y_end = y.copy()
    x_m = y_m = None

    sink = _EventSink() if collect else None
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
                if collect:
                    sink.emit_axis(ids, x, xn, 1, seq)
                x = xn
            if vy:
                yn = y + d
                if collect:
                    sink.emit_axis(ids, y, yn, 2, seq)
                y = yn

        if step == 0 and compact_fixed and not moved_live.all():
            alive = moved_live
            x_end[ids[~alive]] = x[~alive]
            y_end[ids[~alive]] = y[~alive]
            x, y, ids = x[alive].copy(), y[alive].copy(), ids[alive]
            if hm is not None:
                hm = hm[alive]
            moved_live = moved_live[alive].copy()
            foreign_live = foreign_live[alive].copy()
        if m_snapshot is not None and step == m_snapshot - 1:
            x_m = np.asarray(x0, dtype=float).copy()
            y_m = np.asarray(y0, dtype=float).copy()
            x_m[ids] = x
            y_m[ids] = y

    x_end[ids] = x
    y_end[ids] = y
    moved[ids] = moved_live
    foreign[ids] = foreign_live
    degenerate = np.zeros(n, dtype=bool)
    ev_s = ev_k = ev_l = None
    if collect:
        ev_s, ev_k, ev_l = sink.arrays()
        degenerate |= near_cut_line(x_end) | near_cut_line(y_end)
        for bad_ids in sink.degenerate_ids:
            degenerate[bad_ids] = True
    return BatchRun(
        x_end=x_end, y_end=y_end, x_m=x_m, y_m=y_m,
        moved=moved, foreign=foreign, degenerate=degenerate,
        event_sample=ev_s, event_key=ev_k, event_letter=ev_l,
        applications_per_step=n_strips,
    )


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
