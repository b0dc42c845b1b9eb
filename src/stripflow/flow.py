"""Shear dynamics of the strip flows and the derived conserved quantities.

Each strip carries a piecewise-linear transverse profile c: [0, w] -> [0, 1]
(zero on the two smoothing margins, slope 1/(w - 2*smoothing) on the ramp)
whose derivative is the along-strip velocity.  The time-t map of a strip is
an exact piecewise translation, computed by ``StripSpec.shear``; the
scenario map is the ordered composition of all strip maps (last listed acts
first).

``Profile``, ``strip_profile``, ``apply_strip`` and ``apply_composed`` are
the scalar reference the vectorized engine in ``batch`` is checked against.
``_generator_fold`` is the one pullback chain: it runs the inverse strip
maps in the plane lift, which carries the winding bookkeeping for free, and
sums the composition's generating function along the way.
``apply_composed_inverse`` reads the pulled-back point off it and
``generator_value`` the generator at one point.  One series of generator grids
feeds ``hofer_upper_bound`` and ``calabi``: the grid is folded once at
t = 0, in row blocks and without the moves, which are all by +-0.0 there,
into the one grid array the series holds; per time node only its points on
some ramp are folded again, in blocks.  That is exact, as a point on no
ramp, the origin among them, is never moved, so its terms do not depend on t.
``calabi_region_decomposition`` gives Calabi in closed form.
``flux_check`` and ``per_copy_flux`` (defined in ``surface``, which
validates with it) certify that the composition is Hamiltonian.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidityWindowExceeded
from .surface import (DIRECTION_AXES, DIRECTION_VECTORS,  # noqa: F401
                      TRANSVERSE_GRADIENT, Scenario, StripSpec, frac,
                      per_copy_flux)

# Sign of each strip's contribution to the generating function: the strip
# Hamiltonian is +sigma*c(h) for H strips and -sigma*c(h) for V and D strips
# (with h the transverse chart coordinate and omega = dx ^ dy).
_HAMILTONIAN_SIGN = {"H": 1.0, "V": -1.0, "D": -1.0}


@dataclass(frozen=True)
class Profile:
    """Piecewise-linear cutoff across a strip of the given width."""

    width: float
    smoothing: float

    def __post_init__(self):
        if not 0.0 <= 2.0 * self.smoothing < self.width:
            raise ValueError("need 0 <= 2*smoothing < width")

    @property
    def ramp(self) -> float:
        return self.width - 2.0 * self.smoothing

    def value(self, h: float) -> float:
        """c(h): 0 on the low margin, linear ramp, 1 on the high margin."""
        return min(1.0, max(0.0, (h - self.smoothing) / self.ramp))

    def velocity(self, h: float) -> float:
        """c'(h) (one-sided at the kinks)."""
        if self.smoothing < h < self.width - self.smoothing:
            return 1.0 / self.ramp
        return 0.0


def strip_profile(strip: StripSpec) -> Profile:
    return Profile(width=strip.width, smoothing=strip.smoothing)


# -- point maps ---------------------------------------------------------------


def apply_strip(strip: StripSpec, profile: Profile, t: float,
                p: tuple[float, float]):
    """Time-t map of one strip flow on a lifted point.

    Returns (image point, displacement segment or None).  Points off the
    ramp are fixed; ramp points translate along the strip direction by
    orientation * t * c'(h).  Exactly area preserving.
    """
    h = strip.transverse(p[0], p[1])
    speed = profile.velocity(h) if h <= profile.width else 0.0
    if t < 0:
        raise ValueError("t must be >= 0 (invert by reversing composition)")
    if speed == 0.0:
        return p, None
    d = strip.orientation * t * speed
    vx, vy = DIRECTION_VECTORS[strip.direction]
    q = (p[0] + d * vx, p[1] + d * vy)
    return q, (p, q)


def apply_composed(scenario: Scenario, t: float, p: tuple[float, float]):
    """One composed step: every strip map in scenario order, last listed first.

    Returns (image point, list of lifted displacement segments in the order
    they are traversed).
    """
    segments = []
    q = p
    for strip in reversed(scenario.strips):
        q, seg = apply_strip(strip, strip_profile(strip), t, q)
        if seg is not None:
            segments.append(seg)
    return q, segments


def apply_composed_inverse(scenario: Scenario, t: float, p: tuple[float, float]):
    """Inverse of apply_composed: reverse order, shears run backwards."""
    x, y = _generator_fold(scenario, t, np.array([p[0]]), np.array([p[1]]))[2]
    return (float(x[0]), float(y[0]))


# -- generating function -------------------------------------------------------


def _profile_lift(strip: StripSpec, s):
    """C~(s): the profile read on the transverse line, lifted (period 1 -> +1)."""
    return np.floor(s) + np.clip((frac(s) - strip.smoothing) / strip.ramp_width,
                                 0.0, 1.0)


def _generator_fold(scenario: Scenario, t: float, x, y):
    """The pullback chain on lifted points: the un-normalized generating
    function G(t), the mask of the points some strip met on its ramp, and
    the points pulled back by the inverse time-t map as [x, y].

    Term j is the j-th strip Hamiltonian composed with the inverses of the
    maps of strips 0..j-1 (those act after it in the composition); working
    in the plane lift keeps every term single valued, and zero total flux
    makes the sum descend to the torus.  A point no strip meets on its ramp
    is never moved, so its terms do not depend on t.  x and y broadcast; at
    t = 0 every move is by +-0.0, a no-op, so the moves are skipped and an
    H or V term on a row x column pair costs one row or column.
    """
    g = np.zeros(np.broadcast(x, y).shape)
    met = np.zeros(g.shape, dtype=bool)
    xy = [x, y]
    for strip in scenario.strips:
        # d is this strip's inverse time-t displacement: it advances the chain
        s, on_ramp, d = strip.shear(*xy, -t)
        g += _HAMILTONIAN_SIGN[strip.direction] * strip.orientation \
            * _profile_lift(strip, s)
        met |= on_ramp
        if t:
            for a in DIRECTION_AXES[strip.direction]:
                xy[a] = xy[a] + d
    return g, met, xy


def _generator_on_arrays(scenario: Scenario, t: float, x, y):
    """G(t) at lifted points, normalized to vanish at (0, 0), i.e. on the
    hole's plateau."""
    x = np.append(np.asarray(x, dtype=float), 0.0)
    y = np.append(np.asarray(y, dtype=float), 0.0)
    g = _generator_fold(scenario, t, x, y)[0]
    return g[:-1] - g[-1]


def generator_value(scenario: Scenario, t: float, p: tuple[float, float]) -> float:
    """G(t) at a single point, normalized to 0 near the hole."""
    return float(_generator_on_arrays(scenario, t, [p[0]], [p[1]])[0])


def require_grid_sizes(**sizes: int):
    """Raise ValueError unless every named grid size is at least 1."""
    for name, n in sizes.items():
        if n < 1:
            raise ValueError(f"{name} must be >= 1")


def g12(x) -> str:
    """``x`` to 12 significant digits, as ``:.12g`` gives it, also for an
    int too large for a float."""
    try:
        return format(x, ".12g")
    except OverflowError:
        import decimal  # only such an int loads it

        return format(decimal.Decimal(x).normalize(), ".12g")


def require_budget(key: str, value, need: float, limit: float, unit: str):
    """The one form of every cost bound: ValueError if need > limit."""
    if need > limit:
        raise ValueError(f"{key}={g12(value)} needs {g12(need)} {unit}, "
                         f"more than {g12(limit)}")


def cell_centers(n: int):
    """The n x n grid of cell centers of the unit square, raveled (x, y)."""
    xs = (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    return gx.ravel(), gy.ravel()


def _generator_grid(scenario: Scenario, t: float, n: int):
    """G(t) on the n x n grid, one full fold: the reference for the series."""
    return _generator_on_arrays(scenario, t, *cell_centers(n))


# -- validity window, Hofer bound, Calabi --------------------------------------


def require_validity(scenario: Scenario, t: float):
    """Enforce the overlap-stability window: nominal drift t/T per strip
    must lie in [0, minimal overlap spacing); a nan drift lies outside."""
    spacing = scenario.validation.min_overlap_spacing
    drift = t / scenario.T
    if not 0.0 <= drift < spacing:
        raise ValidityWindowExceeded(
            f"drift {drift:.6g} per strip lies outside [0, overlap spacing "
            f"{spacing:.6g})")


def copy_oscillation_bound(scenario: Scenario) -> float:
    """Combinatorial bound on the potential oscillation within one copy
    (strips 3c..3c+2): the sum of the absolute signed jumps of its strips
    (3 for H/V/D)."""
    strips = scenario.strips
    return max((sum((abs(s.orientation) for s in strips[c:c + 3]), 0.0)
                for c in range(0, len(strips), 3)), default=0.0)


@dataclass(frozen=True)
class HoferBound:
    numeric: float
    analytic: float
    oscillation_bound: float
    oscillations: tuple[float, ...]


# Grid points per block of the generator series, at t = 0 and per node.
_CHUNK_SAMPLES = 1 << 14
# The series holds one float64 grid and at worst one int64 ramp index per
# point, 16 bytes per point, and sweeps the grid once at t = 0 and once per
# time node (about 2e7 grid points a second at N = 8); a larger one is
# refused before it is allocated.
MAX_SERIES_BYTES = 1 << 31
MAX_SERIES_POINTS = 10**10


def require_series_size(space_samples: int, time_samples: int):
    """Raise ValueError if the generator series would hold more than
    MAX_SERIES_BYTES or sweep more than MAX_SERIES_POINTS grid points."""
    require_budget("space_samples", space_samples, 16 * space_samples ** 2,
                   MAX_SERIES_BYTES, "bytes")
    require_budget("time_samples", time_samples,
                   (time_samples + 1) * space_samples ** 2, MAX_SERIES_POINTS,
                   "grid points")


@functools.lru_cache(maxsize=1)
def _generator_series(scenario: Scenario, tau: float, time_samples: int,
                      space_samples: int):
    """Per midpoint time node, the oscillation and the mean of the generator
    on one space grid; the sweep asks for both in turn, so the last is kept.

    The grid is folded at t = 0 into the one grid ``g``, in row blocks of
    ``_CHUNK_SAMPLES`` points, keeping the flat indices of its ramp points;
    per node only those are folded again, in blocks of ``_CHUNK_SAMPLES``
    with the origin appended.  The rest, the origin too, are never moved, so
    their sums are the t = 0 ones bit for bit: the origin is subtracted once,
    and every node equals ``_generator_grid``.  About 11 bytes per point.
    """
    require_series_size(space_samples, time_samples)
    n = space_samples
    xs = (np.arange(n) + 0.5) / n
    g, blocks = np.empty(n * n), []
    rows = max(1, _CHUNK_SAMPLES // n)
    for r in range(0, n, rows):
        fold, ramp, _ = _generator_fold(scenario, 0.0, xs[r:r + rows, None],
                                        xs[None, :])
        g[r * n:r * n + fold.size] = fold.ravel()
        blocks.append(np.flatnonzero(ramp) + r * n)
    idx = np.concatenate(blocks)
    del blocks
    origin, oscs, means = None, [], []
    for i in range(time_samples):
        t = (i + 0.5) / time_samples * tau
        # at least one block, so a grid with no ramp point folds the origin
        for c in range(0, max(idx.size, 1), _CHUNK_SAMPLES):
            k = idx[c:c + _CHUNK_SAMPLES]
            raw = _generator_fold(scenario, t, np.append(xs[k // n], 0.0),
                                  np.append(xs[k % n], 0.0))[0]
            if origin is None:
                origin = raw[-1]
                g -= origin
            g[k] = raw[:-1] - origin
        oscs.append(float(g.max() - g.min()))
        means.append(float(g.mean()))
    return tuple(oscs), tuple(means)


def hofer_upper_bound(scenario: Scenario, tau: float, time_samples: int = 8,
                      space_samples: int = 400) -> HoferBound:
    """Riemann estimate of the Hofer length of {Phi^t, t <= tau}.

    numeric = tau * mean over midpoint time nodes of (max G - min G) on a
    space grid; analytic = 2 * K * tau with K the combinatorial per-copy
    oscillation bound.  Raises ValidityWindowExceeded outside the window.
    """
    require_grid_sizes(time_samples=time_samples, space_samples=space_samples)
    require_validity(scenario, tau)
    if not scenario.strips:
        return HoferBound(0.0, 0.0, 0.0, ())
    oscs = _generator_series(scenario, tau, time_samples, space_samples)[0]
    k = copy_oscillation_bound(scenario)
    return HoferBound(
        numeric=tau * float(np.mean(oscs)),
        analytic=2.0 * k * tau,
        oscillation_bound=k,
        oscillations=oscs,
    )


def calabi(scenario: Scenario, tau: float, time_samples: int = 8,
           space_samples: int = 400) -> float:
    """Calabi value of Phi^tau: the space-time integral of the generator.

    The hole plateau is normalized to zero, so integrating over the full
    square equals integrating over the surface.
    """
    require_grid_sizes(time_samples=time_samples, space_samples=space_samples)
    require_validity(scenario, tau)
    if not scenario.strips:
        return 0.0
    means = _generator_series(scenario, tau, time_samples, space_samples)[1]
    return tau * float(np.mean(means))


def generator_drift_rate(scenario: Scenario) -> float:
    """Exact d/dt of the surface integral of G(t).

    Term j is dragged by the inverse flows of the strips listed before it;
    each ordered cross-direction pair contributes sign_j * (-sigma_i) *
    (dir_i . grad_j): the ramp widths cancel against the intersection area,
    so the rate is an integer combination (N for the standard H/V/D layout).
    """
    rate = 0.0
    strips = scenario.strips
    for j, sj in enumerate(strips):
        gj = TRANSVERSE_GRADIENT[sj.direction]
        sign_j = _HAMILTONIAN_SIGN[sj.direction] * sj.orientation
        for si in strips[:j]:
            di = DIRECTION_VECTORS[si.direction]
            rate += sign_j * (-si.orientation) * (di[0] * gj[0] + di[1] * gj[1])
    return rate


def calabi_region_decomposition(scenario: Scenario, tau: float) -> float:
    """Closed-form Calabi value from the region decomposition.

    tau * integral of the static potential G(0) (per strip the transverse
    integral of C~ over one period is (1 - offset - width) + smoothing +
    ramp/2, with the diagonal floor correction -1/2) plus the exact
    pairwise drag term: the generator integral changes at the constant
    rate generator_drift_rate while the overlap combinatorics is stable,
    contributing tau^2/2 * rate.
    """
    total = 0.0
    for strip in scenario.strips:
        level = (1.0 - strip.offset - strip.width) + strip.smoothing \
            + (strip.width - 2.0 * strip.smoothing) / 2.0
        if strip.direction == "D":
            level += -0.5
        total += _HAMILTONIAN_SIGN[strip.direction] * strip.orientation * level
    return tau * total + 0.5 * tau * tau * generator_drift_rate(scenario)


# -- flux ----------------------------------------------------------------------


def flux_check(scenario: Scenario) -> tuple[float, float]:
    """Total flux per unit time across the two cut circles: the sum of the
    exact integer ``per_copy_flux``; (0, 0) iff the flow is Hamiltonian."""
    flux = per_copy_flux(scenario).values()
    return float(sum(f[0] for f in flux)), float(sum(f[1] for f in flux))
