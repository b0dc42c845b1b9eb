"""Trajectory estimator: classification, iterate_word, rho estimates."""
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from stripflow import batch, estimator
from stripflow.counting import CountingQM, estimate_defect, homogenized
from stripflow.errors import (ConfigError, DegenerateCrossing,
                              ValidityWindowExceeded)
from stripflow.estimator import (NUDGE_RETRIES, RhoEstimate, deficiency,
                                 _class_core, _evaluate_batch, _nudged,
                                 grid_estimate, iterate_word, rho_estimate,
                                 rho_predicted, _per_class,
                                 _ramp_points, _ramp_scan, _record)
from stripflow.surface import (DIRECTION_VECTORS, NUDGE, HoledTorus, Scenario,
                               build_scenario, crossing_word, validate_scenario)
from stripflow.words import Word

AB = CountingQM.from_text("ab")
COMM = CountingQM.from_text("abAB")


def _scenario(N=1, T=0.16, m=16, **kw):
    return build_scenario(N, T, m, 0.02, **kw)


def test_deficiency_values():
    assert deficiency(AB) == -1.0
    assert deficiency(COMM) == 0.0


def test_stationary_point():
    s = _scenario()
    rec = iterate_word(s, AB, (0.2, 0.2), 64)
    assert rec.kind == "stationary"
    assert rec.word == Word()
    assert rec.end == (0.2, 0.2)


def test_h_strip_period_class_unsmoothed():
    # delta' = 0, sparse-window regime T*m << 1: ramp points traverse the
    # loop in m steps; find a clean one and check its class is a.
    s = _scenario(T=0.01, m=8, ramp_fraction=1.0)
    strip = s.strips[0]
    for frac in np.linspace(0.05, 0.95, 25):
        p = (0.52 + frac / 7, strip.offset + frac * strip.width)
        rec = iterate_word(s, AB, p, s.m)
        if rec.kind == "periodic":
            core, _ = rec.class_word.cyclic_reduce()
            assert core == Word.from_text("a")
            assert rec.period == s.m
            break
    else:
        pytest.fail("no clean H-strip point found")


def test_d_strip_period_class_unsmoothed():
    s = _scenario(T=0.01, m=8, ramp_fraction=1.0)
    strip = s.strips[2]
    for frac in np.linspace(0.05, 0.95, 25):
        u = strip.offset + frac * strip.width
        p = (u + 0.29, 0.29)
        rec = iterate_word(s, AB, p, s.m)
        if rec.kind == "periodic":
            assert homogenized(AB, rec.class_word) == -1.0  # class (ab)^-1
            break
    else:
        pytest.fail("no clean D-strip point found")


def test_iterate_word_narrow_ramp_loop_counts():
    s = _scenario()  # default ramp = width/8: 8 loops per m steps
    strip = s.strips[0]
    p = (0.53, strip.offset + strip.width / 2)
    rec = iterate_word(s, AB, p, 4 * s.m)
    assert rec.kind == "periodic"
    assert rec.word == Word.from_text("a" * 32)  # 8 loops/period * 4 periods
    core, _ = rec.class_word.cyclic_reduce()
    assert core == Word.from_text("a" * 8)


def test_iterate_word_nudges_degenerate_start():
    s = _scenario()
    rec = iterate_word(s, AB, (1.0, 0.5), 16)  # exactly on a cut line
    assert rec.kind in ("stationary", "periodic", "bad")


def test_iterate_word_nudges_end_point_on_cut_line():
    # the first step lands exactly on x = 1 (see test_batch); the nudged
    # re-run ends off the cut line and has a closing word
    s = _scenario(T=0.05, m=8, ramp_fraction=1.0)
    rec = iterate_word(s, AB, (1.125, 0.625), 1)
    assert rec.kind == "bad"
    assert rec.start == (1.125 + 1e-9, 0.625 + 1e-9)


@pytest.mark.parametrize("p", [(math.nan, 0.4), (math.inf, 0.4)],
                         ids=["nan", "inf"])
def test_iterate_word_rejects_non_finite_start(p):
    # one ValueError naming the point, before any array work warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            iterate_word(_scenario(), AB, p, 16)
    assert str(err.value) == f"start point {p!r} is not finite"


@pytest.mark.parametrize("grid", [60, 100])
def test_grid_estimate_nudges_end_points_on_cut_lines(grid):
    # some grid orbits end exactly on a cut line at these grid sizes
    s = _scenario(T=0.05, m=8, ramp_fraction=1.0)
    est = grid_estimate(s, AB, K=2 * s.m, grid=grid)
    assert np.isfinite(est.value)


def test_rho_predicted_examples():
    s4 = _scenario(N=4, T=0.04, m=64)
    pred = rho_predicted(s4, AB)
    assert pred.value == pytest.approx(-4 * s4.tau)
    assert rho_predicted(s4, COMM).value == 0.0
    empty = Scenario(HoledTorus(0.02), (), 0, 0.1, 4)
    empty = empty.with_validation(validate_scenario(empty))
    assert rho_predicted(empty, AB).value == 0.0


def test_rho_estimate_zero_strips():
    empty = Scenario(HoledTorus(0.02), (), 0, 0.1, 4)
    empty = empty.with_validation(validate_scenario(empty))
    est = rho_estimate(empty, AB, K=4, samples_per_strip=10)
    assert est.value == 0.0 and est.stderr == 0.0 and est.samples == 0


def test_rho_estimate_rejects_bad_K():
    s = _scenario()
    with pytest.raises(ValueError):
        rho_estimate(s, AB, K=10)  # not a multiple of m


def test_rho_estimate_matches_prediction():
    s = _scenario()
    est = rho_estimate(s, AB, samples_per_strip=3000, seed=5)
    assert isinstance(est, RhoEstimate)
    pred = rho_predicted(s, AB)
    assert est.value == pytest.approx(pred.value, rel=0.12)
    assert est.stderr < abs(pred.value)
    assert est.samples == 9000
    # accounting identity: per-class + bad contributions add to the value
    tallied = sum(c for _, c in est.per_class.values())
    assert abs(est.value - tallied) <= est.bad_area * (6 * s.N + 1) + 1e-12


def test_rho_estimate_deterministic():
    s = _scenario(N=2, T=0.08, m=32)
    a = rho_estimate(s, AB, samples_per_strip=500, seed=42)
    b = rho_estimate(s, AB, samples_per_strip=500, seed=42)
    assert a == b
    c = rho_estimate(s, AB, samples_per_strip=500, seed=43)
    assert a.value != c.value


def test_rho_estimate_orientation_antisymmetry():
    s = _scenario()
    flipped = Scenario(
        surface=s.surface,
        strips=tuple(type(st)(st.direction, st.offset, st.width,
                              -st.orientation, st.smoothing, st.copy_id)
                     for st in s.strips),
        N=s.N, T=s.T, m=s.m, validation=s.validation)
    a = rho_estimate(s, AB, samples_per_strip=2000, seed=7)
    b = rho_estimate(flipped, AB, samples_per_strip=2000, seed=7)
    assert a.value + b.value == pytest.approx(0.0, abs=2 * (a.stderr + b.stderr) + 1e-9)


def test_periodic_homogenization_consistency():
    # for periodic samples, hom(class)/m equals the K-word quotient within D/K
    s = _scenario()
    demp = estimate_defect(AB, 4)
    K = 4 * s.m
    strip = s.strips[2]
    found = 0
    for frac in np.linspace(0.05, 0.95, 12):
        u = strip.offset + strip.smoothing + frac * strip.ramp_width
        p = (u + 0.63, 0.63)
        rec = iterate_word(s, AB, p, K)
        if rec.kind != "periodic":
            continue
        exact = homogenized(AB, rec.class_word) / s.m
        finite = homogenized(AB, rec.word) / K
        assert abs(exact - finite) <= demp / K + 1e-12
        found += 1
    assert found >= 6


def test_grid_estimate_agrees_with_monte_carlo_small():
    # band width an exact number of grid cells keeps the enumeration
    # quantization-free
    s = _scenario(T=0.05, m=8, ramp_fraction=1.0)
    K = 2 * s.m
    grid = grid_estimate(s, AB, K=K, grid=240)
    mc = rho_estimate(s, AB, K=K, samples_per_strip=4000, seed=11)
    combined = np.hypot(grid.stderr, mc.stderr)
    assert abs(grid.value - mc.value) <= 3 * combined


def test_validity_propagates():
    s = _scenario(N=1, T=0.24, m=2, ramp_fraction=1.0)
    with pytest.raises(ValidityWindowExceeded):
        rho_estimate(s, AB, K=2, samples_per_strip=10)


def test_stationary_dominance_for_small_budget_scenario():
    # fraction classified periodic >= 1 - 2 * budget / strip area when the
    # overlap budget is small
    s = _scenario(T=0.008, m=4, ramp_fraction=1.0)
    est = rho_estimate(s, AB, samples_per_strip=4000, seed=21)
    budget = s.validation.bad_area_budget
    total_area = sum(st.width for st in s.strips)
    periodic_fraction = 1.0 - est.bad_area / sum(st.ramp_width for st in s.strips)
    assert periodic_fraction >= 1.0 - 2.0 * budget / total_area


def _patch_run_batch(monkeypatch, edit):
    """Make batch.run_batch pass each result through edit(call_index, run);
    returns the list of call indices seen."""
    real = batch.run_batch
    calls = []

    def patched(*args, **kwargs):
        run = real(*args, **kwargs)
        edit(len(calls), run)
        calls.append(len(calls))
        return run

    monkeypatch.setattr(batch, "run_batch", patched)
    return calls


def _flag_first_sample(call, run):
    run.degenerate[0] = True


def test_grid_estimate_raises_on_persistent_degeneracy(monkeypatch):
    s = _scenario(T=0.05, m=8, ramp_fraction=1.0)
    calls = _patch_run_batch(monkeypatch, _flag_first_sample)
    with pytest.raises(DegenerateCrossing):
        grid_estimate(s, AB, K=2 * s.m, grid=80)
    assert len(calls) == NUDGE_RETRIES + 1


def test_rho_estimate_raises_on_persistent_degeneracy(monkeypatch):
    s = _scenario(T=0.05, m=8, ramp_fraction=1.0)
    calls = _patch_run_batch(monkeypatch, _flag_first_sample)
    with pytest.raises(DegenerateCrossing):
        rho_estimate(s, AB, K=2 * s.m, samples_per_strip=50, workers=1)
    assert len(calls) == NUDGE_RETRIES + 1


def test_start_on_cut_line_takes_its_nudged_run():
    # the first sample starts on x = 1 on the H ramp: nothing nudges it in
    # advance, the start-point rule flags it and the one retry re-runs it
    # from start + NUDGE; the other samples keep their first run
    s = _scenario()
    x, y = _ramp_points(s.strips[0], 6, seed=3, strip_index=0)
    x[0] = 1.0
    home = np.zeros(x.size, dtype=np.int64)
    first = _evaluate_batch(s, AB, 2 * s.m, x, y, home)
    assert first[3].tolist() == [True] + [False] * 5
    nudged = _evaluate_batch(s, AB, 2 * s.m, x[:1] + NUDGE, y[:1] + NUDGE,
                             home[:1])
    assert not nudged[3][0] and nudged[1][0] == 1
    values, kinds, keys = _nudged(
        functools.partial(_evaluate_batch, s, AB, 2 * s.m), x, y, home)
    expected = [np.concatenate([a[:1], b[1:]])
                for a, b in zip(nudged[:3], first[:3])]
    assert values.tobytes() == expected[0].tobytes()
    assert kinds.tolist() == expected[1].tolist()
    assert keys.tolist() == expected[2].tolist()


def test_grid_estimate_without_ramp_cells_is_zero():
    # the one cell center (0.5, 0.5) lies on no ramp: nothing is iterated,
    # and the empty stratified sum is exactly zero, with no warning
    est = grid_estimate(_scenario(), AB, grid=1)
    assert est == RhoEstimate(value=0.0, stderr=0.0, per_class={},
                              bad_area=0.0, bad_contribution_bound=0.0,
                              samples=0)
    assert type(est.stderr) is float


def test_grid_estimate_retry_replaces_class_keys(monkeypatch):
    # the first run flags every sample; the nudged re-run finds them all
    # on foreign ramps, so no periodic class may survive from the first run
    def edit(call, run):
        if call == 0:
            run.degenerate[:] = True
        else:
            run.foreign[:] = True

    s = _scenario(T=0.05, m=8, ramp_fraction=1.0)
    _patch_run_batch(monkeypatch, edit)
    est = grid_estimate(s, AB, K=2 * s.m, grid=80)
    assert est.per_class == {}
    assert est.bad_area == pytest.approx(est.samples / 80 ** 2)


def test_rho_estimate_independent_of_workers(monkeypatch):
    monkeypatch.setattr(estimator, "_CHUNK_SAMPLES", 400)  # 2 strips a chunk
    s = _scenario(N=2, T=0.08, m=32)
    one = rho_estimate(s, AB, samples_per_strip=200, seed=9, workers=1)
    two = rho_estimate(s, AB, samples_per_strip=200, seed=9, workers=2)
    assert one == two


class _SerialPool:
    """Stand-in for ProcessPoolExecutor: records max_workers, starts no
    process and maps the tasks in this process."""
    seen: list[int] = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_rho_estimate_starts_no_more_workers_than_chunks(monkeypatch):
    monkeypatch.setattr(estimator, "_CHUNK_SAMPLES", 400)  # 2 strips a chunk
    monkeypatch.setattr(estimator.concurrent.futures, "ProcessPoolExecutor",
                        _SerialPool)
    monkeypatch.setattr(_SerialPool, "seen", [])
    monkeypatch.setenv("STRIPFLOW_WORKERS", "1000")
    s = _scenario(N=2, T=0.08, m=32)  # 6 strips: 3 chunks
    many = rho_estimate(s, AB, samples_per_strip=200, seed=9)
    assert _SerialPool.seen == [3]
    assert many == rho_estimate(s, AB, samples_per_strip=200, seed=9,
                                workers=1)


@pytest.mark.parametrize("raw", ["0", "-2", "two"])
def test_rho_estimate_rejects_bad_worker_counts(raw, monkeypatch):
    monkeypatch.setenv("STRIPFLOW_WORKERS", raw)
    with pytest.raises(ConfigError):
        rho_estimate(_scenario(), AB, samples_per_strip=10)


def test_ramp_points_distinct_for_seeds_mod_2_64():
    # negative seeds and seeds of 2^63 and above used to go through float64
    # and fall onto another seed's stream
    strip = _scenario().strips[0]
    seeds = (0, -5, -6, 2 ** 63, 2 ** 63 + 7, 2 ** 64 - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        firsts = {float(_ramp_points(strip, 1, seed, 0)[0][0]) for seed in seeds}
    assert len(firsts) == len(seeds)
    # seeds are taken mod 2^64
    assert (_ramp_points(strip, 5, -5, 0)[0] ==
            _ramp_points(strip, 5, 2 ** 64 - 5, 0)[0]).all()


def test_ramp_scan_matches_per_point_strip_tests():
    s = _scenario(N=2, T=0.08, m=32, ramp_fraction=1.0)
    rng = np.random.default_rng(41)
    x, y = rng.random(3000), rng.random(3000)
    home, count = _ramp_scan(s, x, y)
    for i in range(x.size):
        held = [j for j, strip in enumerate(s.strips)
                if strip.shear(float(x[i]), float(y[i]), 0.0)[1]]
        assert home[i] == (held[0] if held else -1)
        assert count[i] == len(held)
    assert (count > 1).any() and (count == 0).any()


def _per_class_loop(keys, area, contrib):
    """The per-sample fold that _per_class replaces."""
    out = {}
    for i, key in enumerate(keys):
        if key is None:
            continue
        a, c = out.get(key, (0.0, 0.0))
        out[key] = (a + area[i], c + contrib[i])
    return out


def test_per_class_equals_per_sample_fold():
    rng = np.random.default_rng(43)
    names = np.array([None, "", "a", "b", "BA", "aabb"], dtype=object)
    keys = names[rng.integers(0, names.size, 5000)]
    # magnitudes over 16 decades, so a different summation order shows
    area = rng.random(5000) * 10.0 ** rng.integers(-8, 8, 5000)
    contrib = rng.standard_normal(5000) * 10.0 ** rng.integers(-8, 8, 5000)
    fast = _per_class(zip(keys, area.tolist(), contrib.tolist()))
    slow = _per_class_loop(keys, area, contrib)
    assert list(fast) == list(slow) and len(fast) == 5
    for key, (a, c) in slow.items():
        assert (fast[key][0].hex(), fast[key][1].hex()) == \
            (float(a).hex(), float(c).hex())
    assert _per_class(zip([None] * 3, area[:3], contrib[:3])) == {}


def _per_class_unique(keys, area, contrib):
    """Grouping by np.unique and np.add.at, in order of first appearance."""
    held = np.nonzero(keys != None)[0]  # elementwise on an object array
    names, first, inverse = np.unique(keys[held].astype(str),
                                      return_index=True, return_inverse=True)
    sums = np.zeros((2, len(names)))
    np.add.at(sums[0], inverse, area[held])
    np.add.at(sums[1], inverse, contrib[held])
    return {str(names[j]): (float(sums[0, j]), float(sums[1, j]))
            for j in np.argsort(first)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_per_class_equals_unique_grouping(seed):
    rng = np.random.default_rng(seed)
    names = np.array([None, "", "a", "B", "BA", "abAB", "ab" * 40],
                     dtype=object)
    n = 3000
    keys = names[rng.integers(0, names.size, n)]
    area = rng.random(n) * 10.0 ** rng.integers(-8, 8, n)
    contrib = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    fold = _per_class(zip(keys.tolist(), area.tolist(), contrib.tolist()))
    grouped = _per_class_unique(keys, area, contrib)
    assert list(fold) == list(grouped)
    assert {k: (a.hex(), c.hex()) for k, (a, c) in fold.items()} == \
        {k: (a.hex(), c.hex()) for k, (a, c) in grouped.items()}


def test_record_per_class_memory_does_not_grow_with_class_length():
    # every sample of a class holds the same key object, as in _evaluate_batch
    n, word = 2000, "BA" * 5000
    keys = np.full(n, word, dtype=object)
    contrib, weights = np.full(n, 0.5), np.ones(n)
    kinds = np.ones(n, dtype=np.int64)
    tracemalloc.start()
    try:
        record = _record(1.0, contrib, weights, kinds, keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(record[-1]) == [word]
    assert peak < 5 * 2**20, peak


@pytest.mark.parametrize("direction", sorted(DIRECTION_VECTORS))
def test_class_core_is_the_minimal_rotation_of_a_segment_word(direction):
    # H, V and D segments of either orientation, a D one led by either axis
    # and crossing one axis once more than the other or not
    vx, vy = DIRECTION_VECTORS[direction]
    rng = np.random.default_rng(ord(direction))
    for _ in range(200):
        x, y = rng.uniform(-2.0, 2.0, 2)
        if direction == "D":  # x - y at least 0.02 off an integer
            y = x - (math.floor(x - y) + rng.uniform(0.02, 0.98))
        length = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.0, 12.0)
        p, q = (x, y), (x + length * vx, y + length * vy)
        core = crossing_word(p, q).letters
        fx, fy = (math.floor(b) - math.floor(a) for a, b in zip(p, q))
        best = min((core[i:] + core[:i] for i in range(len(core))), default=())
        assert _class_core(fx, fy) == best
