"""The vectorized engine checked against the scalar reference maps."""
import numpy as np
import pytest

from stripflow.batch import assemble_words, run_batch
from stripflow.flow import apply_composed
from stripflow.surface import build_scenario, crossing_word
from stripflow.words import Word

SCENARIOS = {
    "N1": dict(N=1, T=0.16, m=16),
    "N2": dict(N=2, T=0.08, m=32),
    "N2-full-ramp": dict(N=2, T=0.08, m=32, ramp_fraction=1.0),
}


def _on_ramp(strip, rng, k):
    return strip.offset + strip.smoothing + rng.random(k) * strip.ramp_width


def _point(coords):
    """Plane point with the given transverse coordinates (H: y, V: x, D: x - y)."""
    if "D" not in coords:
        return coords["V"], coords["H"]
    if "H" in coords:
        return coords["H"] + coords["D"], coords["H"]
    return coords["V"], coords["V"] - coords["D"]


def _seeded_points(scenario, seed):
    """Points on every ramp, plus points on two ramps of different
    directions at once (each on the other's foreign ramp)."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for s in scenario.strips:
        other = "V" if s.direction == "H" else "H"
        x, y = _point({s.direction: _on_ramp(s, rng, 20), other: rng.random(20)})
        xs.append(x)
        ys.append(y)
    for a in scenario.strips:
        for b in scenario.strips:
            if a.direction < b.direction:
                x, y = _point({a.direction: _on_ramp(a, rng, 5),
                               b.direction: _on_ramp(b, rng, 5)})
                assert a.shear(x, y, 0.0)[1].all()
                assert b.shear(x, y, 0.0)[1].all()
                xs.append(x)
                ys.append(y)
    return np.concatenate(xs), np.concatenate(ys)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("n_steps", [1, 3, 8])
def test_run_batch_matches_reference(name, n_steps):
    scenario = build_scenario(hole_halfwidth=0.02, **SCENARIOS[name])
    tau = scenario.tau
    x0, y0 = _seeded_points(scenario, seed=n_steps)
    run = run_batch(scenario, tau, n_steps, x0, y0, collect=True)
    assert not run.degenerate.any()
    words = assemble_words(run, x0.size)
    for i in range(x0.size):
        p = (float(x0[i]), float(y0[i]))
        word = Word()
        for _ in range(n_steps):
            p, segments = apply_composed(scenario, tau, p)
            for a, b in segments:
                word = word * crossing_word(a, b)
        assert abs(run.x_end[i] - p[0]) <= 1e-12
        assert abs(run.y_end[i] - p[1]) <= 1e-12
        assert Word(words.get(i, ())) == word


def test_run_batch_flags_end_point_on_cut_line():
    # one D-strip step moves (1.125, 0.625) down onto x = 1 without crossing
    # it; the end point has no closing word, so the sample must be flagged
    scenario = build_scenario(1, 0.05, 8, 0.02, smoothing=0.0)
    x0, y0 = np.array([1.125]), np.array([0.625])
    run = run_batch(scenario, scenario.tau, 1, x0, y0, collect=True)
    assert (run.x_end[0], run.y_end[0]) == (1.0, 0.5)
    assert run.degenerate[0]
