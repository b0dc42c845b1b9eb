"""Flat one-holed torus, shear strips, and exact homotopy-class reading.

The surface is the unit square with opposite sides identified, minus an
open axis-aligned square of half-width ``hole_halfwidth`` centered at the
identified vertex (0, 0).  Cutting along the two circles {x = 0} and
{y = 0} (both meet the hole) leaves a disk, so the signed sequence of
integer-line crossings of a lifted path reads off its exact class in
pi_1 = F(a, b): each crossing of x in Z contributes a^{+-1}, each
crossing of y in Z contributes b^{+-1}.

Strips are straight annuli in one of three directions:

========= ============ ==================== ===========
direction core curve   transverse coord     class word
========= ============ ==================== ===========
H         along (1,0)  y                    a
V         along (0,1)  x                    b
D         along (1,1)  u = x - y            ab
========= ============ ==================== ===========

In its shear chart every strip is a band of width ``width`` over a core
loop of unit length, so width = area = traversal period of the full-band
profile.  Each torus rule is written once here: ``frac`` reduces mod 1,
``near_cut_line`` tests for a cut line, ``clears_hole`` tests a band
against the hole and ``per_copy_flux`` sums the flux.  The per-direction
tables live here too (the move vector, the coordinates it moves, the hole
clearance and the gradient of ``transverse_lift``), as does
``document_lines``, the one reader of ``key = value`` documents.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DegenerateCrossing, InfeasibleScenario
from .words import Word, reduce_letters

DIRECTIONS = ("H", "V", "D")
DIRECTION_VECTORS = {"H": (1.0, 0.0), "V": (0.0, 1.0), "D": (1.0, 1.0)}
# the coordinates (0 = x, 1 = y) that a strip of each direction moves
DIRECTION_AXES = {d: [i for i in (0, 1) if v[i]]
                  for d, v in DIRECTION_VECTORS.items()}
# the gradient of transverse_lift: y (H), x (V), x - y (D)
TRANSVERSE_GRADIENT = {"H": (0.0, 1.0), "V": (1.0, 0.0), "D": (1.0, -1.0)}
# Hole clearance required of the transverse band, in units of hole_halfwidth:
# the hole projects to |y| < hh, |x| < hh and |x - y| < 2 hh.
HOLE_CLEARANCE = {"H": 1.0, "V": 1.0, "D": 2.0}

# A coordinate within CUT_LINE_TOL of an integer lies on a cut line and has
# no exact crossing word; a sample flagged for one is re-run from its start
# plus k * NUDGE.
CUT_LINE_TOL = 1e-12
NUDGE = 1e-9

# Default moving-band fraction of the strip width.  The narrow ramp keeps
# per-step drift below the overlap spacing of the default experiments while
# making foreign-band interactions measure-(ramp^2) rare; the time-step map
# and all conserved quantities are unchanged (steeper profile, smaller
# moving area).
DEFAULT_RAMP_FRACTION = 0.125

# Grid phases sit 2^-10 off a round decimal so that ramp edges never fall
# on coarse-grid cell boundaries used by the enumeration oracle.
PHASE_EPS = 2.0 ** -10
DEFAULT_PHASE_H = 0.31 + PHASE_EPS
DEFAULT_PHASE_V = 0.31 + PHASE_EPS
AUTO = "auto"


def frac(c):
    """The one reduction mod 1, ``c - floor(c)``, on floats and arrays alike:
    equal to ``c % 1.0`` (Python's or numpy's) bit for bit, with -0.0 mapped
    to 0.0 and a non-finite c to nan, but several times faster on arrays.
    A float stays a float and, as with ``%``, raises no warning."""
    if isinstance(c, np.ndarray):
        return c - np.floor(c)
    # np.floor, unlike math.floor, keeps the sign of -0.0
    return c - float(np.floor(c)) if math.isfinite(c) else math.nan


def clears_hole(direction: str, offset: float, width: float,
                hole_halfwidth: float) -> bool:
    """The one hole-clearance test of a band [offset, offset + width]."""
    clearance = HOLE_CLEARANCE[direction] * hole_halfwidth
    return offset >= clearance and offset + width <= 1.0 - clearance


def transverse_lift(direction: str, x, y):
    """Transverse coordinate of a direction in the plane lift: y (H), x (V)
    or x - y (D).  Works on floats and numpy arrays alike."""
    if direction == "H":
        return y
    if direction == "V":
        return x
    return x - y


@dataclass(frozen=True)
class HoledTorus:
    hole_halfwidth: float

    def __post_init__(self):
        if not 0.0 < self.hole_halfwidth < 0.1:
            raise ValueError("hole_halfwidth must lie in (0, 0.1)")


@dataclass(frozen=True)
class StripSpec:
    direction: str
    offset: float
    width: float
    orientation: int
    smoothing: float
    copy_id: int

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if not 0.0 < self.width < 1.0:
            raise ValueError("width must lie in (0, 1)")
        if self.smoothing < 0.0 or 2.0 * self.smoothing >= self.width:
            raise ValueError("need 0 <= 2*smoothing < width")

    @property
    def ramp_width(self) -> float:
        return self.width - 2.0 * self.smoothing

    def shear(self, x, y, t: float):
        """The strip kernel, on floats or numpy arrays alike.

        Returns ``(s, on_ramp, shift)``: the transverse coordinate ``s``
        relative to the band start in the plane lift (``frac(s)`` is the
        chart coordinate ``h``), the ramp test ``smoothing < h < width -
        smoothing``, and the along-strip displacement of the time-t map,
        ``orientation * t / ramp_width`` on the ramp and 0 off it.
        """
        s = transverse_lift(self.direction, x, y) - self.offset
        h = frac(s)
        on_ramp = (self.smoothing < h) & (h < self.width - self.smoothing)
        return s, on_ramp, on_ramp * (self.orientation * t / self.ramp_width)

    def transverse(self, x: float, y: float) -> float:
        """Transverse chart coordinate relative to the band start, mod 1."""
        return frac(self.shear(x, y, 0.0)[0])


@dataclass(frozen=True)
class OverlapReport:
    pairwise_overlaps: tuple[tuple[int, int, float], ...]
    bad_area_budget: float
    min_overlap_spacing: float


@dataclass(frozen=True)
class Scenario:
    surface: HoledTorus
    strips: tuple[StripSpec, ...]
    N: int
    T: float
    m: int
    validation: OverlapReport | None = None

    @property
    def tau(self) -> float:
        return self.T / self.m

    def with_validation(self, report: OverlapReport) -> "Scenario":
        return replace(self, validation=report)

    def lone_margin(self, t: float, n_steps: int, start: float) -> float:
        """Twice a bound on the rounding of a lone orbit's n_steps steps of
        time t (its ramp tests, cover and additions; see batch) from a start
        whose coordinates are at most ``start`` in absolute value."""
        drift = max((abs(t) / s.ramp_width for s in self.strips), default=0.0)
        return (n_steps + 2) * (start + n_steps * drift + 2.0) * 2.0 ** -47


# -- overlap geometry -------------------------------------------------------


def _interval_intersects_mod1(a0: float, alen: float, b0: float, blen: float) -> bool:
    """Do the open intervals (a0, a0+alen) and (b0, b0+blen) meet on R/Z?"""
    a0, b0 = frac(a0), frac(b0)
    for shift in (-1.0, 0.0, 1.0):
        lo = max(a0, b0 + shift)
        hi = min(a0 + alen, b0 + shift + blen)
        if hi - lo > 1e-15:
            return True
    return False


def _triple_overlap(h: StripSpec, v: StripSpec, d: StripSpec) -> bool:
    # x in (v.o, v.o+v.w), y in (h.o, h.o+h.w) forces
    # u = x - y in (v.o - h.o - h.w, v.o + v.w - h.o).
    u0 = v.offset - h.offset - h.width
    ulen = v.width + h.width
    return _interval_intersects_mod1(u0, ulen, d.offset, d.width)


def _along_windows(strip: StripSpec, others: Sequence[StripSpec]):
    """Along-strip windows (start, length) where foreign overlaps project."""
    windows = []
    for other in others:
        if other.direction == strip.direction:
            continue
        pair = {strip.direction, other.direction}
        if pair == {"H", "V"}:
            windows.append((other.offset, other.width))
        elif pair == {"H", "D"}:
            if strip.direction == "H":
                windows.append((other.offset + strip.offset,
                                other.width + strip.width))
            else:  # D strip, along coordinate s = y
                windows.append((other.offset, other.width))
        else:  # {"V", "D"}
            if strip.direction == "V":
                windows.append((strip.offset - other.offset - other.width,
                                other.width + strip.width))
            else:
                windows.append((other.offset - strip.offset - strip.width,
                                other.width + strip.width))
    return windows


def _min_circular_gap(windows: list[tuple[float, float]]) -> float:
    """Shortest stretch of the unit circle between windows (start, length)
    that no window covers; 0 if they cover it all."""
    if not windows:
        return 1.0
    spans = sorted((frac(s), frac(s) + ln) for s, ln in windows)
    # covered so far: up to the end that wraps furthest past 1
    reach = max(hi for _, hi in spans) - 1.0
    gaps = []
    for lo, hi in spans:
        if lo > reach:
            gaps.append(lo - reach)
        reach = max(reach, hi)
    return min(gaps, default=0.0)


def validate_scenario(scenario: Scenario) -> OverlapReport:
    """Check all scenario invariants; return the filled overlap report.

    Raises InfeasibleScenario naming the first violated constraint.
    """
    strips = scenario.strips
    N = scenario.N
    if len(strips) != 3 * N:
        raise InfeasibleScenario(f"expected {3 * N} strips, found {len(strips)}")
    flux = per_copy_flux(scenario)
    for copy_id in range(N):
        dirs = sorted(s.direction for s in strips if s.copy_id == copy_id)
        if dirs != ["D", "H", "V"]:
            raise InfeasibleScenario(
                f"copy {copy_id} must hold one strip of each direction, got {dirs}")
        if flux[copy_id] != (0.0, 0.0):
            raise InfeasibleScenario(
                f"copy {copy_id} has nonzero flux {flux[copy_id]}")
    for s in strips:
        if not clears_hole(s.direction, s.offset, s.width,
                           scenario.surface.hole_halfwidth):
            raise InfeasibleScenario(
                f"strip {s.direction}@{s.offset:.6g} meets the hole zone")
    for i, s1 in enumerate(strips):
        for s2 in strips[i + 1:]:
            if s1.direction == s2.direction and _interval_intersects_mod1(
                    s1.offset, s1.width, s2.offset, s2.width):
                raise InfeasibleScenario(
                    f"parallel strips {s1.direction}@{s1.offset:.6g} and "
                    f"@{s2.offset:.6g} overlap")
    hs = [s for s in strips if s.direction == "H"]
    vs = [s for s in strips if s.direction == "V"]
    ds = [s for s in strips if s.direction == "D"]
    for h in hs:
        for v in vs:
            for d in ds:
                if _triple_overlap(h, v, d):
                    raise InfeasibleScenario(
                        f"triple overlap of H@{h.offset:.6g}, "
                        f"V@{v.offset:.6g} and D@{d.offset:.6g}")

    # Two strips of different directions meet in a parallelogram of unit
    # Jacobian in the product of their shear charts: area width * width.
    pairs = [(i, j, s1.width * s2.width)
             for i, s1 in enumerate(strips) for j, s2 in enumerate(strips)
             if i < j and s1.direction != s2.direction]
    total = sum(a for _, _, a in pairs)
    spacing = min(
        (_min_circular_gap(_along_windows(s, [t for t in strips if t is not s]))
         for s in strips), default=1.0)
    return OverlapReport(
        pairwise_overlaps=tuple(pairs),
        bad_area_budget=scenario.m * total,
        min_overlap_spacing=spacing,
    )


def per_copy_flux(scenario: Scenario) -> dict[int, tuple[float, float]]:
    """Flux of each copy across the two cut circles, keyed by copy id."""
    out: dict[int, list[float]] = {}
    for strip in scenario.strips:
        vx, vy = DIRECTION_VECTORS[strip.direction]
        acc = out.setdefault(strip.copy_id, [0.0, 0.0])
        acc[0] += strip.orientation * vx
        acc[1] += strip.orientation * vy
    return {k: (v[0], v[1]) for k, v in out.items()}


# -- scenario construction ---------------------------------------------------


def _grid_offsets(phase: float, n: int) -> list[float]:
    return [frac(phase + i / n) for i in range(n)]


def _auto_phase_d(N: int, T: float, phase_h: float, phase_v: float,
                  hole_halfwidth: float) -> float:
    """Deterministic search for the diagonal-family phase.

    The triple-overlap condition only constrains theta = (phase_V -
    phase_H - phase_D) mod 1/N to avoid a window of length 3T; theta is
    started at T/2 + 1/(2N) (which aligns the foreign-band windows seen
    by moving points of the other two families) and scanned until all
    diagonal bands clear the hole zone.
    """
    cell = 1.0 / N
    base = T / 2.0 + cell / 2.0 + PHASE_EPS
    step = cell / 256.0
    lo, hi = 2.0 * T + 4.0 * step, cell - T - 4.0 * step
    if lo >= hi:
        raise InfeasibleScenario(
            "no triple-free diagonal placement: 3T leaves no room in 1/N cell")
    deltas = [0.0]
    for j in range(1, 129):
        deltas.extend((j * step, -j * step))
    for delta in deltas:
        theta = base + delta
        if not lo <= theta <= hi:
            continue
        phase_d = (phase_v - phase_h - theta) % cell
        if all(clears_hole("D", o, T, hole_halfwidth)
               for o in _grid_offsets(phase_d, N)):
            return phase_d
    raise InfeasibleScenario(
        "no diagonal phase satisfies both the triple-overlap window and the "
        "hole clearance")


def require_scenario_ranges(N: int, T: float, m: int):
    """Raise ValueError unless N >= 1, 0 < T <= 1/(4N) and m >= 1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not 0.0 < T <= 1.0 / (4 * N):
        raise ValueError("need 0 < T <= 1/(4N) to fit 3N strips and the hole")
    if m < 1:
        raise ValueError("m must be >= 1")


def build_scenario(N: int, T: float, m: int, hole_halfwidth: float,
                   phases: tuple[float, float, float | str] | None = None,
                   ramp_fraction: float = DEFAULT_RAMP_FRACTION) -> Scenario:
    """Place 3N strips (one H, V, D per copy) and validate the layout.

    Offsets are arithmetic 1/N grids with per-direction phases; phase_D
    may be ``"auto"``.  Each ramp is ``ramp_fraction`` of its strip, so
    smoothing = width * (1 - ramp_fraction) / 2.  Raises ValueError for
    out-of-range arguments and InfeasibleScenario when the constraints
    cannot be met.
    """
    require_scenario_ranges(N, T, m)
    surface = HoledTorus(hole_halfwidth)
    if not 0.0 < ramp_fraction <= 1.0:
        raise ValueError("ramp_fraction must lie in (0, 1]")
    smoothing = T * (1.0 - ramp_fraction) / 2.0

    if phases is None:
        phases = (DEFAULT_PHASE_H, DEFAULT_PHASE_V, AUTO)
    phase_h, phase_v, phase_d = phases
    if not all(math.isfinite(p) for p in phases if p != AUTO):
        raise ValueError("phases must be finite")
    if phase_d == AUTO:
        phase_d = _auto_phase_d(N, T, phase_h, phase_v, hole_halfwidth)
    offsets = {"H": _grid_offsets(phase_h, N),
               "V": _grid_offsets(phase_v, N),
               "D": _grid_offsets(float(phase_d), N)}

    strips = []
    for i in range(N):
        for direction, orientation in (("H", 1), ("V", 1), ("D", -1)):
            strips.append(StripSpec(
                direction=direction,
                offset=frac(float(offsets[direction][i])),
                width=T,
                orientation=orientation,
                smoothing=smoothing,
                copy_id=i,
            ))
    scenario = Scenario(surface=surface, strips=tuple(strips), N=N, T=T, m=m)
    report = validate_scenario(scenario)
    return scenario.with_validation(report)


# -- crossing words ----------------------------------------------------------


def near_cut_line(c):
    """The one cut-line test: is c within CUT_LINE_TOL of an integer?
    Works on floats and numpy arrays alike."""
    return np.abs(c - np.rint(c)) < CUT_LINE_TOL


def segment_crossings(p: tuple[float, float], q: tuple[float, float]):
    """Ordered (t, letter) crossings of integer lines along the lifted segment."""
    if any(near_cut_line(c) for c in (*p, *q)):
        raise DegenerateCrossing(f"segment {p} -> {q} ends on a cut line")
    events = []
    for axis, letter in ((0, 1), (1, 2)):
        lo, hi = p[axis], q[axis]
        delta = hi - lo
        if delta == 0.0:
            continue
        sign = 1 if delta > 0 else -1
        k0 = math.floor(min(lo, hi)) + 1
        k1 = math.floor(max(lo, hi))
        for k in range(k0, k1 + 1):
            events.append(((k - lo) / delta, letter * sign))
    events.sort()
    for (t1, _), (t2, _) in zip(events, events[1:]):
        if t2 - t1 < CUT_LINE_TOL:
            raise DegenerateCrossing(
                f"simultaneous crossings on segment {p} -> {q}")
    return events


def crossing_word(p: tuple[float, float], q: tuple[float, float]) -> Word:
    """Exact crossing word of a lifted segment avoiding the lifted holes.

    Letters read a^{+-1} per crossing of x in Z (sign = crossing
    direction) and b^{+-1} per crossing of y in Z, ordered along the
    segment.
    """
    return Word(reduce_letters(letter for _, letter in segment_crossings(p, q)),
                _reduced=True)


def straight_letters(p: tuple[float, float], q: tuple[float, float]):
    """``crossing_word(p, q).letters`` off the floor differences alone, if
    p -> q runs along (1, 0), (0, 1) or (1, 1), its ends lie off the cut
    lines and it meets no lattice point, as a home-only path does (every
    band clears the hole): a^nx (H), b^ny (V), or alternating letters led
    by the axis nearer its next cut line (D)."""
    nx, ny = (math.floor(b) - math.floor(a) for a, b in zip(p, q))
    a, b = (1 if nx > 0 else -1), (2 if ny > 0 else -2)
    if not (nx and ny):
        return (a,) * abs(nx) + (b,) * abs(ny)
    # moving up, the larger fractional part is nearer its next cut line
    pair = (a, b) if (frac(p[0]) > frac(p[1])) == (nx > 0) else (b, a)
    n = abs(nx) + abs(ny)
    return (pair * (n // 2 + 1))[:n]


def _segment_hits_square(p, q, L, hh) -> bool:
    """Does the lifted segment p -> q enter the hole around lattice point L?"""
    dx, dy = q[0] - p[0], q[1] - p[1]
    # parameter window where |x(t) - L| < hh on both axes
    t0, t1 = 0.0, 1.0
    for delta, start, center in ((dx, p[0], L[0]), (dy, p[1], L[1])):
        if delta == 0.0:
            if abs(start - center) >= hh:
                return False
        else:
            a = (center - hh - start) / delta
            b = (center + hh - start) / delta
            t0 = max(t0, min(a, b))
            t1 = min(t1, max(a, b))
    return t1 - t0 > 1e-15


def _segment_hits_hole(p, q, hole_halfwidth: float):
    """The first lattice point whose lifted hole the segment p -> q enters,
    scanning x then y upwards, or None."""
    hh = hole_halfwidth
    x_lo, x_hi = min(p[0], q[0]) - hh, max(p[0], q[0]) + hh
    y_lo, y_hi = min(p[1], q[1]) - hh, max(p[1], q[1]) + hh
    for lx in range(math.floor(x_lo), math.ceil(x_hi) + 1):
        if not x_lo <= lx <= x_hi:
            continue
        for ly in range(math.floor(y_lo), math.ceil(y_hi) + 1):
            if y_lo <= ly <= y_hi and _segment_hits_square(p, q, (lx, ly), hh):
                return (lx, ly)
    return None


_DETOUR_OFFSETS = ((2.5, 0.4), (0.4, 2.5), (-2.5, 0.4), (0.4, -2.5),
                   (2.5, 2.5), (-2.5, 2.5), (2.5, -2.5), (-2.5, -2.5))


def closing_word(end: tuple[float, float], start: tuple[float, float],
                 hole_halfwidth: float) -> tuple[Word, list]:
    """Hole-avoiding chain of at most 3 segments from end to (a lift of) start.

    The wrapped shortest displacement is tried straight; if it enters a
    lifted hole the path detours around the offending lattice square via
    deterministic waypoint candidates (the +x side first).  Returns the
    crossing word together with the lifted segment chain.
    """
    dx = frac((start[0] - end[0]) + 0.5) - 0.5
    dy = frac((start[1] - end[1]) + 0.5) - 0.5
    target = (end[0] + dx, end[1] + dy)
    if dx == 0.0 and dy == 0.0:
        return Word(), []
    offender = _segment_hits_hole(end, target, hole_halfwidth)
    if offender is None:
        chain = [(end, target)]
    else:
        candidates: list[list[tuple[float, float]]] = []
        for ox, oy in _DETOUR_OFFSETS:
            candidates.append([(offender[0] + ox * hole_halfwidth,
                                offender[1] + oy * hole_halfwidth)])
        # two-waypoint routes skirting the square on one side
        for side in (2.5, -2.5):
            ly = offender[1] + side * hole_halfwidth
            lx = offender[0] + side * hole_halfwidth
            candidates.append([(end[0], ly), (target[0], ly)])
            candidates.append([(lx, end[1]), (lx, target[1])])
        chain = None
        for waypoints in candidates:
            pts = [end, *waypoints, target]
            segs = list(zip(pts, pts[1:]))
            if all(_segment_hits_hole(a, b, hole_halfwidth) is None
                   for a, b in segs):
                chain = segs
                break
        if chain is None:
            raise DegenerateCrossing(
                f"no hole-avoiding closing path from {end} to {start}")
    letters = []
    for a, b in chain:
        letters.extend(letter for _, letter in segment_crossings(a, b))
    return Word(reduce_letters(letters), _reduced=True), chain


def closing_letters(end_x, end_y, start_x, start_y, hole_halfwidth):
    """closing_word's letters for arrays of end and start points, where the
    straight segment is taken.  Returns (letter, declined): per sample the
    one signed letter of the segment (0 for none), and a mask of the
    samples that need the scalar closing_word.

    The wrapped displacement is at most 1/2 per axis, so the segment crosses
    at most one cut line per axis.  A sample is declined when an end of the
    segment lies within CUT_LINE_TOL of a cut line, or when a lattice point
    lies in the segment's bounding box padded by ``hole_halfwidth``: that
    box holds every hole the segment could enter.  A segment that crosses
    both axes holds the lattice point where its two cut lines meet, so an
    accepted segment has at most one letter and needs no ordering.
    """
    hh = hole_halfwidth
    declined = np.zeros(end_x.shape, dtype=bool)
    lattice_in_box = np.ones(end_x.shape, dtype=bool)
    letter = np.zeros(end_x.shape, dtype=np.int64)
    for end, start, code in ((end_x, start_x, 1), (end_y, start_y, 2)):
        # the same float ops as closing_word and segment_crossings
        target = end + (frac((start - end) + 0.5) - 0.5)
        lo, hi = np.minimum(end, target), np.maximum(end, target)
        declined |= near_cut_line(end) | near_cut_line(target)
        lattice_in_box &= np.ceil(lo - hh) <= hi + hh
        crosses = np.floor(lo) < np.floor(hi)
        letter += crosses * np.where(target > end, code, -code)
    return letter, declined | lattice_in_box


# -- serialization -----------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def scenario_to_text(scenario: Scenario) -> str:
    lines = [
        "# stripflow scenario v1",
        f"N = {scenario.N}",
        f"T = {_fmt(scenario.T)}",
        f"m = {scenario.m}",
        f"hole_halfwidth = {_fmt(scenario.surface.hole_halfwidth)}",
    ]
    for s in scenario.strips:
        lines.append(
            f"strip = {s.direction} {_fmt(s.offset)} {_fmt(s.width)} "
            f"{s.orientation:+d} {_fmt(s.smoothing)}")
    return "\n".join(lines) + "\n"


def document_lines(text: str):
    """The one reader of ``key = value`` documents: per line that is not
    blank once its ``#`` comment is cut, yield (raw line, key, value) with
    key and value stripped, or (raw line, None, None) for a line without
    ``=``, which each caller rejects with its own error."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, eq, value = line.partition("=")
            yield (raw, key.strip(), value.strip()) if eq else (raw, None, None)


def scenario_from_text(text: str) -> Scenario:
    """Parse and validate a scenario document; every malformed document
    raises InfeasibleScenario."""
    fields: dict[str, str] = {}
    strip_rows = []
    for raw, key, value in document_lines(text):
        if key is None:
            raise InfeasibleScenario(f"unparseable scenario line: {raw!r}")
        if key == "strip":
            strip_rows.append(value.split())
        else:
            fields[key] = value
    try:
        N = int(fields["N"])
        T = float(fields["T"])
        m = int(fields["m"])
        surface = HoledTorus(float(fields["hole_halfwidth"]))
        require_scenario_ranges(N, T, m)
        strips = []
        for row in strip_rows:
            if len(row) != 5:
                raise InfeasibleScenario(f"strip row needs 5 fields, got {row}")
            strips.append(StripSpec(
                direction=row[0], offset=float(row[1]), width=float(row[2]),
                orientation=int(row[3]), smoothing=float(row[4]),
                copy_id=len(strips) // 3))
    except KeyError as exc:
        raise InfeasibleScenario(f"scenario document missing field {exc}") from exc
    except ValueError as exc:
        raise InfeasibleScenario(f"bad scenario document: {exc}") from exc
    scenario = Scenario(surface=surface, strips=tuple(strips), N=N, T=T, m=m)
    return scenario.with_validation(validate_scenario(scenario))
