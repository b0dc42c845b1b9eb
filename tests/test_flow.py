"""Flow engine: shear maps, generator, Hofer bound, Calabi, flux."""
import hashlib
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stripflow import flow
from stripflow.errors import ValidityWindowExceeded
from stripflow.flow import (HoferBound, Profile, apply_composed,
                            apply_composed_inverse, apply_strip, calabi,
                            calabi_region_decomposition, copy_oscillation_bound,
                            flux_check, generator_drift_rate, generator_value,
                            hofer_upper_bound, per_copy_flux, require_validity,
                            strip_profile, cell_centers, _generator_grid)
from stripflow.surface import HoledTorus, Scenario, StripSpec, build_scenario
from stripflow.counting import CountingQM
from stripflow.estimator import grid_estimate, rho_estimate


def _scenario(N=1, T=0.16, m=16, **kw):
    return build_scenario(N, T, m, 0.02, **kw)


def test_profile_values_and_velocity():
    pr = Profile(width=0.1, smoothing=0.0)
    assert pr.value(0.0) == 0.0
    assert pr.value(0.1) == 1.0
    assert pr.velocity(0.05) == pytest.approx(10.0)
    assert pr.velocity(0.0) == 0.0
    # quadrature of c' recovers the unit flux c(w) - c(0)
    hs = (np.arange(2000) + 0.5) / 2000 * pr.width
    assert np.mean([pr.velocity(h) for h in hs]) * pr.width == pytest.approx(1.0, abs=1e-2)
    with pytest.raises(ValueError):
        Profile(width=0.1, smoothing=0.05)


def test_profile_rejects_nan_smoothing():
    with pytest.raises(ValueError, match="smoothing"):
        Profile(width=0.1, smoothing=math.nan)


def test_profile_with_smoothing_margins():
    pr = Profile(width=0.16, smoothing=0.07)
    assert pr.ramp == pytest.approx(0.02)
    assert pr.velocity(0.05) == 0.0
    assert pr.velocity(0.08) == pytest.approx(50.0)
    assert pr.value(0.16) == 1.0


def test_apply_strip_fixed_outside():
    s = _scenario(ramp_fraction=1.0)
    strip = s.strips[0]
    p = (0.2, 0.2)
    q, seg = apply_strip(strip, strip_profile(strip), 0.5, p)
    assert q == p and seg is None


def test_apply_strip_full_period_loop():
    s = _scenario(ramp_fraction=1.0)
    strip = s.strips[0]  # H strip, c' = 1/T everywhere inside
    p = (0.5, strip.offset + strip.width / 2)
    q, seg = apply_strip(strip, strip_profile(strip), s.T, p)
    assert q[0] == pytest.approx(p[0] + 1.0, abs=1e-12)
    assert q[1] == p[1]
    assert seg == (p, q)


def test_apply_strip_matches_substep_integration():
    s = _scenario(ramp_fraction=1.0)
    strip = s.strips[2]  # D strip, orientation -1
    pr = strip_profile(strip)
    p = (0.62, 0.1)
    assert strip.transverse(*p) < strip.width
    q, _ = apply_strip(strip, pr, s.tau, p)
    # 1e4-substep Euler integration of the shear ODE
    x, y = p
    dt = s.tau / 10_000
    for _ in range(10_000):
        h = strip.transverse(x, y)
        v = strip.orientation * pr.velocity(h)
        x, y = x + v * dt, y + v * dt
    assert q[0] == pytest.approx(x, abs=1e-9)
    assert q[1] == pytest.approx(y, abs=1e-9)
    # displacement tau/T along -(1,1)
    assert q[0] - p[0] == pytest.approx(-s.tau / s.T, abs=1e-12)


def test_shear_additivity_on_strip():
    s = _scenario(ramp_fraction=1.0)
    strip = s.strips[1]
    pr = strip_profile(strip)
    p = (strip.offset + 0.3 * strip.width, 0.77)
    q1, _ = apply_strip(strip, pr, 0.001, p)
    q2, _ = apply_strip(strip, pr, 0.002, q1)
    q12, _ = apply_strip(strip, pr, 0.003, p)
    assert q2 == pytest.approx(q12, abs=1e-15)


def test_apply_composed_outside_everything():
    s = _scenario()
    q, path = apply_composed(s, s.tau, (0.2, 0.2))
    assert q == (0.2, 0.2) and path == []


def test_apply_composed_invertibility():
    s = _scenario(N=2, T=0.08, m=32)
    rng = random.Random(3)
    for _ in range(100):
        p = (rng.random(), rng.random())
        q, _ = apply_composed(s, s.tau, p)
        back = apply_composed_inverse(s, s.tau, q)
        assert max(abs(back[0] - p[0]), abs(back[1] - p[1])) < 1e-12


def _static_potential_oracle(scenario, p):
    """Independent region value: signed band crossings along the L-path
    (0,0) -> (x,0) -> (x,y), each strip integrated in its own transverse
    coordinate with the plane-lift convention."""
    x, y = p

    def clevel(strip, s):
        lo = strip.smoothing
        ramp = strip.width - 2 * strip.smoothing
        base = np.floor(s)
        rel = s - base
        return base + min(1.0, max(0.0, (rel - lo) / ramp))

    total = 0.0
    for strip in scenario.strips:
        if strip.direction == "H":
            inc = clevel(strip, y - strip.offset) - clevel(strip, -strip.offset)
            total += strip.orientation * inc
        elif strip.direction == "V":
            inc = clevel(strip, x - strip.offset) - clevel(strip, -strip.offset)
            total -= strip.orientation * inc
        else:
            inc = clevel(strip, x - y - strip.offset) - clevel(strip, -strip.offset)
            total -= strip.orientation * inc
    return total


def test_generator_static_matches_region_oracle():
    for s in (_scenario(), _scenario(N=2, T=0.06, m=8),
              _scenario(ramp_fraction=1.0)):
        rng = random.Random(7)
        for _ in range(200):
            p = (rng.random(), rng.random())
            assert generator_value(s, 0.0, p) == pytest.approx(
                _static_potential_oracle(s, p), abs=1e-12)


def test_generator_zero_near_hole_and_bounded():
    s = _scenario()
    assert generator_value(s, 0.0, (0.01, 0.01)) == 0.0
    assert generator_value(s, 0.0, (0.0, 0.0)) == 0.0
    g = _generator_grid(s, 0.0, 250)
    assert g.max() - g.min() <= 3.0 + 1e-12


def test_hofer_bound_and_validity():
    s = _scenario()
    bound = hofer_upper_bound(s, s.tau, time_samples=4, space_samples=250)
    assert isinstance(bound, HoferBound)
    assert bound.oscillation_bound == 3.0
    assert bound.analytic == pytest.approx(6.0 * s.tau)
    assert bound.numeric <= bound.analytic * 1.05
    with pytest.raises(ValidityWindowExceeded):
        hofer_upper_bound(s, s.T * s.validation.min_overlap_spacing * 1.01)


def test_hofer_bound_stable_under_doubling_N():
    a = _scenario(N=1, T=0.04, m=16, ramp_fraction=1.0)
    b = _scenario(N=2, T=0.04, m=16, ramp_fraction=1.0)
    ba = hofer_upper_bound(a, a.tau, time_samples=4, space_samples=250)
    bb = hofer_upper_bound(b, b.tau, time_samples=4, space_samples=250)
    assert ba.numeric / a.tau == pytest.approx(bb.numeric / b.tau, rel=0.05)


def test_hofer_and_calabi_share_one_generator_pass(monkeypatch):
    # the series folds the full grid once at t = 0 and then, per node, only
    # its ramp points and the origin, yet every node equals a full fold of
    # that node's grid bit for bit
    n, time_samples = 90, 4
    t0_points, node_points = [], []
    real_fold = flow._generator_fold

    def counted(scenario, t, x, y):
        if t == 0.0:
            t0_points.append(np.broadcast(x, y).size)
        else:
            node_points.append(np.size(x))
        return real_fold(scenario, t, x, y)

    monkeypatch.setattr(flow, "_generator_fold", counted)
    flow._generator_series.cache_clear()
    for N, kw in [(1, {}), (2, {}), (1, {"ramp_fraction": 1.0}),
                  (2, {"ramp_fraction": 1.0})]:
        t0_points.clear()
        node_points.clear()
        s = _scenario(N=N, T=0.16 / N, m=16 * N, **kw)
        ramp = int(real_fold(s, 0.0, *cell_centers(n))[1].sum())
        bound = hofer_upper_bound(s, s.tau, time_samples=time_samples,
                                  space_samples=n)
        cal = calabi(s, s.tau, time_samples=time_samples, space_samples=n)
        assert sum(t0_points) == n * n
        assert node_points == [ramp + 1] * time_samples
        grids = [_generator_grid(s, (i + 0.5) / time_samples * s.tau, n)
                 for i in range(time_samples)]
        assert [o.hex() for o in bound.oscillations] == \
            [float(g.max() - g.min()).hex() for g in grids]
        means = [float(g.mean()) for g in grids]
        assert cal.hex() == (s.tau * float(np.mean(means))).hex()
        # other arguments compute a new series
        t0_points.clear()
        calabi(s, s.tau, time_samples=2, space_samples=n)
        assert sum(t0_points) == n * n


# sha256 of the joined generator_value(s, 0.0, p).hex() over _T0_POINTS,
# recorded from a fold that still applied its +-0.0 moves at t = 0
_T0_DIGESTS = {
    (1, 0.125):
        "409a5b5258fc6237a659292acf7537f17be6cb16ba6868fbfee3f08d2e7689e5",
    (1, 1.0):
        "5af2852df45dce89bac13a1313eab7366bee8de85e4270db18de948809a70f9c",
    (2, 0.125):
        "c18bb8a0ad1e37e0657281a79a516ee3c2f4598a65ecf375fa54d0a245dc2f27",
    (2, 1.0):
        "408b63fcf9d27715a57cc3aafc940cdceb275afb84ee7117cad6028b03e18922",
}
_rng = random.Random(5)
_T0_POINTS = [(_rng.uniform(-0.5, 1.5), _rng.uniform(-0.5, 1.5))
              for _ in range(200)]


@pytest.mark.parametrize("N, ramp_fraction", list(_T0_DIGESTS))
def test_generator_series_across_row_blocks(monkeypatch, N, ramp_fraction):
    # 97 rows in blocks of 9: 11 blocks, the last of 7 rows
    n, time_samples = 97, 3
    monkeypatch.setattr(flow, "_CHUNK_SAMPLES", 9 * n + 5)
    blocks = []
    real_fold = flow._generator_fold

    def counted(scenario, t, x, y):
        if t == 0.0:
            blocks.append(np.broadcast(x, y).shape)
        return real_fold(scenario, t, x, y)

    monkeypatch.setattr(flow, "_generator_fold", counted)
    flow._generator_series.cache_clear()
    s = _scenario(N=N, T=0.16 / N, m=16 * N, ramp_fraction=ramp_fraction)
    oscs, means = flow._generator_series(s, s.tau, time_samples, n)
    assert blocks == [(9, n)] * 10 + [(7, n)]
    grids = [_generator_grid(s, (i + 0.5) / time_samples * s.tau, n)
             for i in range(time_samples)]
    assert [o.hex() for o in oscs] == \
        [float(g.max() - g.min()).hex() for g in grids]
    assert [v.hex() for v in means] == [float(g.mean()).hex() for g in grids]
    flow._generator_series.cache_clear()
    # t = 0 skips the moves, which leaves every point and value unchanged
    assert all(apply_composed_inverse(s, 0.0, p) == p for p in _T0_POINTS)
    values = " ".join(generator_value(s, 0.0, p).hex() for p in _T0_POINTS)
    assert hashlib.sha256(values.encode()).hexdigest() == \
        _T0_DIGESTS[N, ramp_fraction]


def test_generator_series_memory_stays_near_three_grids():
    # the refined-hofer grid: t = 0 sums, the node buffer and the ramp
    # mask; the old series held about 10 grid-sized arrays at once
    n = 800
    s = _scenario(N=2, T=0.08, m=32)
    flow._generator_series.cache_clear()
    tracemalloc.start()
    try:
        flow._generator_series(s, s.tau, 2, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        flow._generator_series.cache_clear()
    assert peak < 4 * 8 * n * n


@pytest.mark.parametrize("ramp_fraction, bytes_per_point",
                         [(0.125, 12), (1.0, 16)])
def test_generator_series_holds_one_grid(ramp_fraction, bytes_per_point):
    # the float64 node grid, the ramp points' flat indices (40 % of the
    # grid at ramp fraction 1) and one block's fold
    n = 800
    s = _scenario(N=2, T=0.08, m=32, ramp_fraction=ramp_fraction)
    flow._generator_series.cache_clear()
    tracemalloc.start()
    try:
        flow._generator_series(s, s.tau, 8, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        flow._generator_series.cache_clear()
    assert peak <= bytes_per_point * n * n


@pytest.mark.parametrize("N", [1, 2, 4])
@pytest.mark.parametrize("ramp_fraction", [0.125, 1.0])
def test_origin_generator_does_not_depend_on_t(N, ramp_fraction):
    # the series subtracts the origin's value once, at its first node
    s = _scenario(N=N, T=0.16 / N, m=16 * N, ramp_fraction=ramp_fraction)
    origin = np.zeros(1)
    at = [float(flow._generator_fold(s, t, origin, origin)[0][0]).hex()
          for t in [0.0] + [(i + 0.5) / 8 * s.tau for i in range(8)]]
    assert at == [at[0]] * 9


def test_generator_series_subtracts_a_nonzero_origin_once(monkeypatch):
    # the first strip shifted so that the origin sits on its low margin,
    # where the raw sum is -1, not 0; 90^2 points in blocks of 500
    n, time_samples = 90, 3
    monkeypatch.setattr(flow, "_CHUNK_SAMPLES", 500)
    s = _scenario(N=2, T=0.08, m=32)
    first = s.strips[0]
    s = replace(s, strips=(replace(first, offset=1 - first.smoothing / 2),)
                + s.strips[1:])
    origin = np.zeros(1)
    assert flow._generator_fold(s, s.tau, origin, origin)[0][0] == -1.0
    flow._generator_series.cache_clear()
    oscs, means = flow._generator_series(s, s.tau, time_samples, n)
    flow._generator_series.cache_clear()
    grids = [_generator_grid(s, (i + 0.5) / time_samples * s.tau, n)
             for i in range(time_samples)]
    assert [o.hex() for o in oscs] == \
        [float(g.max() - g.min()).hex() for g in grids]
    assert [v.hex() for v in means] == [float(g.mean()).hex() for g in grids]


def test_generator_series_without_ramp_points(monkeypatch):
    # no grid point lies on a ramp: each node folds the origin alone
    n, time_samples = 7, 3
    s = _scenario(N=2, T=0.08, m=32, ramp_fraction=2e-4)
    real_fold = flow._generator_fold
    assert int(real_fold(s, 0.0, *cell_centers(n))[1].sum()) == 0
    node_points = []

    def counted(scenario, t, x, y):
        if t != 0.0:
            node_points.append(np.size(x))
        return real_fold(scenario, t, x, y)

    monkeypatch.setattr(flow, "_generator_fold", counted)
    flow._generator_series.cache_clear()
    oscs, means = flow._generator_series(s, s.tau, time_samples, n)
    flow._generator_series.cache_clear()
    assert node_points == [1] * time_samples
    grids = [_generator_grid(s, (i + 0.5) / time_samples * s.tau, n)
             for i in range(time_samples)]
    assert [o.hex() for o in oscs] == \
        [float(g.max() - g.min()).hex() for g in grids]
    assert [v.hex() for v in means] == [float(g.mean()).hex() for g in grids]


@pytest.mark.parametrize("call", [
    lambda s: hofer_upper_bound(s, s.tau, time_samples=0),
    lambda s: hofer_upper_bound(s, s.tau, time_samples=-1),
    lambda s: hofer_upper_bound(s, s.tau, space_samples=0),
    lambda s: calabi(s, s.tau, time_samples=0),
    lambda s: calabi(s, s.tau, time_samples=-1),
    lambda s: calabi(s, s.tau, space_samples=0),
    lambda s: grid_estimate(s, CountingQM.from_text("ab"), grid=0),
    lambda s: grid_estimate(s, CountingQM.from_text("ab"), grid=-3),
], ids=["hofer-time-0", "hofer-time-neg", "hofer-space-0", "calabi-time-0",
        "calabi-time-neg", "calabi-space-0", "grid-0", "grid-neg"])
def test_grid_sizes_below_one_are_rejected(call):
    with pytest.raises(ValueError, match="must be >= 1"):
        call(_scenario())


def test_zero_strip_scenario():
    scen = Scenario(HoledTorus(0.02), (), 0, 0.1, 4)
    assert hofer_upper_bound(scen, 0.01).numeric == 0.0
    assert calabi(scen, 0.01) == 0.0
    assert flux_check(scen) == (0.0, 0.0)


def test_calabi_region_decomposition_match():
    for s in (_scenario(phases=(0.25, 0.55, 0.75)), _scenario(),
              _scenario(N=2, T=0.08, m=32)):
        quad = calabi(s, s.tau, time_samples=8, space_samples=400)
        oracle = calabi_region_decomposition(s, s.tau)
        assert quad == pytest.approx(oracle, rel=0.01, abs=1e-12)


def test_calabi_bounded_by_hofer():
    for s in (_scenario(), _scenario(N=2, T=0.08, m=32),
              _scenario(phases=(0.25, 0.55, 0.75))):
        bound = hofer_upper_bound(s, s.tau, time_samples=4, space_samples=200)
        cal = calabi(s, s.tau, time_samples=4, space_samples=200)
        assert abs(cal) <= bound.numeric + 1e-12


def test_generator_drift_rate_equals_N():
    for n in (1, 2, 4):
        s = _scenario(N=n, T=0.16 / n, m=16 * n)
        assert generator_drift_rate(s) == pytest.approx(float(n))


def _summed_per_copy_flux(scenario):
    total = [0.0, 0.0]
    for fa, fb in per_copy_flux(scenario).values():
        total[0] += fa
        total[1] += fb
    return tuple(total)


def test_flux_examples():
    s = _scenario(N=2, T=0.08, m=32)
    assert flux_check(s) == (0.0, 0.0)
    for fl in per_copy_flux(s).values():
        assert fl == (0.0, 0.0)
    lone = Scenario(HoledTorus(0.02),
                    (StripSpec("H", 0.3, 0.05, 1, 0.0),), 1, 0.05, 10)
    assert flux_check(lone) == (1.0, 0.0)
    for scen in (s, _scenario(), _scenario(N=4, T=0.04, m=64), lone):
        fa, fb = flux_check(scen)
        assert type(fa) is float and type(fb) is float
        assert (fa, fb) == _summed_per_copy_flux(scen)
    q = CountingQM.from_text("ab")
    with pytest.raises(ValueError, match="flux"):
        rho_estimate(lone, q, K=10, samples_per_strip=10)


def test_copy_oscillation_bound():
    assert copy_oscillation_bound(_scenario(N=4, T=0.04, m=64)) == 3.0


def test_require_validity_window():
    s = _scenario()
    require_validity(s, s.tau)
    require_validity(s, 0.0)
    with pytest.raises(ValidityWindowExceeded):
        require_validity(s, s.T * s.validation.min_overlap_spacing * 1.5)


@pytest.mark.parametrize("tau", [math.nan, -0.01, -1e-300])
@pytest.mark.parametrize("quantity", [hofer_upper_bound, calabi])
def test_hofer_and_calabi_reject_nan_or_negative_tau(quantity, tau):
    with pytest.raises(ValidityWindowExceeded):
        quantity(_scenario(), tau)


def test_composition_degenerates_to_single_strip():
    # a point on exactly one ramp whose image stays off all other ramps
    s = _scenario()
    strip = s.strips[0]
    p = (0.53, strip.offset + strip.width / 2)
    composed, path = apply_composed(s, s.tau, p)
    single, seg = apply_strip(strip, strip_profile(strip), s.tau, p)
    assert composed == single
    assert path == [seg]
