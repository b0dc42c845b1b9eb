"""Flow engine: shear maps, generator, Hofer bound, Calabi, flux."""
import random

import numpy as np
import pytest

from stripflow import flow
from stripflow.errors import ValidityWindowExceeded
from stripflow.flow import (HoferBound, Profile, apply_composed,
                            apply_composed_inverse, apply_strip, calabi,
                            calabi_region_decomposition, copy_oscillation_bound,
                            flux_check, generator_drift_rate, generator_value,
                            hofer_upper_bound, per_copy_flux, require_validity,
                            strip_profile, _generator_grid)
from stripflow.surface import (HoledTorus, Scenario, StripSpec, build_scenario,
                               validate_scenario)
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
    assert strip.contains(*p)
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
    # the series folds the full grid once and then only its ramp points,
    # yet every node equals a full fold of that node's grid bit for bit
    n, time_samples = 90, 4
    full_folds = []
    real_fold = flow._generator_fold

    def counted(scenario, t, x, y):
        if x.size == n * n + 1:
            full_folds.append(t)
        return real_fold(scenario, t, x, y)

    monkeypatch.setattr(flow, "_generator_fold", counted)
    flow._generator_series.cache_clear()
    for N, kw in [(1, {}), (2, {}), (1, {"ramp_fraction": 1.0}),
                  (2, {"ramp_fraction": 1.0})]:
        full_folds.clear()
        s = _scenario(N=N, T=0.16 / N, m=16 * N, **kw)
        bound = hofer_upper_bound(s, s.tau, time_samples=time_samples,
                                  space_samples=n)
        cal = calabi(s, s.tau, time_samples=time_samples, space_samples=n)
        assert full_folds == [0.0]
        grids = [_generator_grid(s, (i + 0.5) / time_samples * s.tau, n)
                 for i in range(time_samples)]
        assert [o.hex() for o in bound.oscillations] == \
            [float(g.max() - g.min()).hex() for g in grids]
        means = [float(g.mean()) for g in grids]
        assert cal.hex() == (s.tau * float(np.mean(means))).hex()
        # other arguments compute a new series
        full_folds.clear()
        calabi(s, s.tau, time_samples=2, space_samples=n)
        assert full_folds == [0.0]


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
    scen = scen.with_validation(validate_scenario(scen))
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
                    (StripSpec("H", 0.3, 0.05, 1, 0.0, 0),), 1, 0.05, 10)
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
    with pytest.raises(ValidityWindowExceeded):
        require_validity(s, s.T * s.validation.min_overlap_spacing * 1.5)


def test_composition_degenerates_to_single_strip():
    # a point on exactly one ramp whose image stays off all other ramps
    s = _scenario()
    strip = s.strips[0]
    p = (0.53, strip.offset + strip.width / 2)
    composed, path = apply_composed(s, s.tau, p)
    single, seg = apply_strip(strip, strip_profile(strip), s.tau, p)
    assert composed == single
    assert path == [seg]
