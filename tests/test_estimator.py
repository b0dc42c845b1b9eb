"""Trajectory estimator: classification, iterate_word, rho estimates."""
import concurrent.futures
import functools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from stripflow import batch, estimator
from stripflow.config import DEFAULT_SEED
from stripflow.counting import CountingQM, estimate_defect, homogenized
from stripflow.errors import (ConfigError, DegenerateCrossing,
                              ValidityWindowExceeded)
from stripflow.estimator import (NUDGE_RETRIES, RhoEstimate, deficiency,
                                 _class_core, _evaluate_batch, _nudged,
                                 grid_estimate, iterate_word, rho_estimate,
                                 rho_predicted, _per_class,
                                 _ramp_points, _ramp_scan, _record)
from stripflow.surface import (DIRECTION_VECTORS, NUDGE, HoledTorus, Scenario,
                               build_scenario, crossing_word)
from stripflow.words import Word

SRC = Path(__file__).resolve().parent.parent / "src"
AB = CountingQM.from_text("ab")
COMM = CountingQM.from_text("abAB")


def _scenario(N=1, T=0.16, m=16, **kw):
    return build_scenario(N, T, m, 0.02, **kw)


def test_deficiency_values():
    assert deficiency(AB) == -1.0
    assert deficiency(COMM) == 0.0


def test_stationary_point():
    s = _scenario()
    rec = iterate_word(s, (0.2, 0.2), 64)
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
        rec = iterate_word(s, p, s.m)
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
        rec = iterate_word(s, p, s.m)
        if rec.kind == "periodic":
            assert homogenized(AB, rec.class_word) == -1.0  # class (ab)^-1
            break
    else:
        pytest.fail("no clean D-strip point found")


def test_iterate_word_narrow_ramp_loop_counts():
    s = _scenario()  # default ramp = width/8: 8 loops per m steps
    strip = s.strips[0]
    p = (0.53, strip.offset + strip.width / 2)
    rec = iterate_word(s, p, 4 * s.m)
    assert rec.kind == "periodic"
    assert rec.word == Word.from_text("a" * 32)  # 8 loops/period * 4 periods
    core, _ = rec.class_word.cyclic_reduce()
    assert core == Word.from_text("a" * 8)


def test_iterate_word_nudges_degenerate_start():
    s = _scenario()
    rec = iterate_word(s, (1.0, 0.5), 16)  # exactly on a cut line
    assert rec.kind in ("stationary", "periodic", "bad")


def test_iterate_word_nudges_end_point_on_cut_line():
    # the first step lands exactly on x = 1 (see test_batch); the nudged
    # re-run ends off the cut line and has a closing word
    s = _scenario(T=0.05, m=8, ramp_fraction=1.0)
    rec = iterate_word(s, (1.125, 0.625), 1)
    assert rec.kind == "bad"
    assert rec.start == (1.125 + 1e-9, 0.625 + 1e-9)


@pytest.mark.parametrize("p", [(math.nan, 0.4), (math.inf, 0.4)],
                         ids=["nan", "inf"])
def test_iterate_word_rejects_non_finite_start(p):
    # one ValueError naming the point, before any array work warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            iterate_word(_scenario(), p, 16)
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
    assert rho_predicted(empty, AB).value == 0.0


def test_rho_estimate_zero_strips():
    empty = Scenario(HoledTorus(0.02), (), 0, 0.1, 4)
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
                              -st.orientation, st.smoothing)
                     for st in s.strips),
        N=s.N, T=s.T, m=s.m)
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
        rec = iterate_word(s, p, K)
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
    monkeypatch.setenv("STRIPFLOW_WORKERS", "1")
    with pytest.raises(DegenerateCrossing):
        rho_estimate(s, AB, K=2 * s.m, samples_per_strip=50)
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
    monkeypatch.setenv("STRIPFLOW_WORKERS", "1")
    one = rho_estimate(s, AB, samples_per_strip=200, seed=9)
    monkeypatch.setenv("STRIPFLOW_WORKERS", "2")
    two = rho_estimate(s, AB, samples_per_strip=200, seed=9)
    assert one == two


def _hex(est: RhoEstimate):
    """Every field of an estimate, floats by float.hex, per_class in order."""
    return (est.value.hex(), est.stderr.hex(), est.bad_area.hex(),
            est.bad_contribution_bound.hex(), est.samples,
            [(key, area.hex(), contrib.hex())
             for key, (area, contrib) in est.per_class.items()])


def _block_spies(monkeypatch):
    """Count the lone passes of their own (outside run_batch) and the
    run_batch calls, and list the run_batch calls' starts."""
    seen = {"lone_pass": 0, "run_batch": []}
    real_lone, real_run = batch.lone_pass, batch.run_batch

    def lone_pass(*args, **kwargs):
        seen["lone_pass"] += 1
        return real_lone(*args, **kwargs)

    def run_batch(scenario, t, n_steps, x0, y0, *args, **kwargs):
        seen["run_batch"].append(np.array(x0))
        with monkeypatch.context() as mp:
            mp.setattr(batch, "lone_pass", real_lone)
            return real_run(scenario, t, n_steps, x0, y0, *args, **kwargs)

    monkeypatch.setattr(batch, "lone_pass", lone_pass)
    monkeypatch.setattr(batch, "run_batch", run_batch)
    return seen


def test_blocks_change_no_estimate(monkeypatch):
    # blocks of 32 samples: many lone passes and several pooled run_batch
    # calls.  A sample of strip 0 that is a lone orbit from x = 1 and the
    # first grid column, pooled, start on a cut line: both take nudged
    # re-runs.
    s = _scenario(N=2, T=0.08, m=32)
    assert s.strips[0].direction == "H"
    real_points, real_centers = estimator._ramp_points, estimator.cell_centers
    _, y = real_points(s.strips[0], 300, 5, 0)
    _, rest = batch.lone_pass(s, s.tau, 4 * s.m, np.ones(y.size), y,
                              np.zeros(y.size, dtype=np.int64))
    cut = np.setdiff1d(np.arange(y.size), rest)[-1]
    assert cut >= 32  # not in the first block

    def points(strip, n, seed, strip_index, lo=0, hi=None):
        x, y = real_points(strip, n, seed, strip_index, lo, hi)
        if strip_index == 0 and lo <= cut < lo + x.size:
            x[cut - lo] = 1.0
        return x, y

    def centers(n):
        gx, gy = real_centers(n)
        gx[gx == gx.min()] = 0.0
        return gx, gy

    monkeypatch.setattr(estimator, "_ramp_points", points)
    monkeypatch.setattr(estimator, "cell_centers", centers)
    monkeypatch.setenv("STRIPFLOW_WORKERS", "1")
    rho_one = rho_estimate(s, AB, samples_per_strip=300, seed=5)
    grid_one = grid_estimate(s, AB, grid=100)
    monkeypatch.setattr(estimator, "_BLOCK_SAMPLES", 32)
    seen = _block_spies(monkeypatch)
    rho_blocks = rho_estimate(s, AB, samples_per_strip=300, seed=5)
    grid_blocks = grid_estimate(s, AB, grid=100)
    assert seen["lone_pass"] == -(-1800 // 32) + -(-grid_one.samples // 32)
    assert sum(x.size == 32 for x in seen["run_batch"]) >= 2
    assert [x.size for x in seen["run_batch"] if (x == 1.0 + NUDGE).any()] \
        == [1]
    assert any((x == NUDGE).any() for x in seen["run_batch"])
    assert _hex(rho_blocks) == _hex(rho_one)
    assert _hex(grid_blocks) == _hex(grid_one)
    assert rho_one.per_class and grid_one.per_class


def test_blocks_classify_each_lone_orbit_once(monkeypatch):
    # a lone orbit is valued off its block's lone pass: neither the pooled
    # run_batch calls nor a second lone pass classify it again
    s = _scenario(N=2, T=0.08, m=32, ramp_fraction=0.2)
    monkeypatch.setattr(estimator, "_BLOCK_SAMPLES", 64)
    monkeypatch.setenv("STRIPFLOW_WORKERS", "1")
    real = batch._lone_orbits
    lone_starts = []

    def spy(scenario, t, n_steps, x0, y0, *rest):
        lone = real(scenario, t, n_steps, x0, y0, *rest)
        lone_starts.extend(zip(x0[lone].tolist(), y0[lone].tolist()))
        return lone

    monkeypatch.setattr(batch, "_lone_orbits", spy)
    est = rho_estimate(s, AB, samples_per_strip=300, seed=5)
    assert 0 < len(lone_starts) < est.samples
    assert len(set(lone_starts)) == len(lone_starts)


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
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _SerialPool)
    monkeypatch.setattr(_SerialPool, "seen", [])
    monkeypatch.setenv("STRIPFLOW_WORKERS", "1000")
    s = _scenario(N=2, T=0.08, m=32)  # 6 strips: 3 chunks
    many = rho_estimate(s, AB, samples_per_strip=200, seed=9)
    assert _SerialPool.seen == [3]
    monkeypatch.setenv("STRIPFLOW_WORKERS", "1")
    assert many == rho_estimate(s, AB, samples_per_strip=200, seed=9)


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


def _numpy_ramp_points(strip, n, seed, strip_index):
    """_ramp_points drawn through numpy.random: the stream the in-package
    Philox kernel reproduces."""
    key = np.array([seed % 2 ** 64, strip_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    along = rng.random(n)
    h = strip.smoothing + rng.random(n) * strip.ramp_width
    if strip.direction == "H":
        return along, strip.offset + h
    if strip.direction == "V":
        return strip.offset + h, along
    return strip.offset + h + along, along


@pytest.mark.parametrize("seed", [0, 1, DEFAULT_SEED, 2 ** 63, 2 ** 64 - 1,
                                  -5])
def test_ramp_points_match_numpy_philox_bit_for_bit(seed):
    # every block boundary (n = 1..5), a long stream and each direction
    for strip in _scenario().strips:
        for strip_index in (0, 7, 95):
            for n in (1, 2, 3, 4, 5, 1000, 20001):
                got = _ramp_points(strip, n, seed, strip_index)
                want = _numpy_ramp_points(strip, n, seed, strip_index)
                assert [c.tobytes() for c in got] == \
                    [c.tobytes() for c in want], (strip.direction,
                                                  strip_index, n)


def test_ramp_points_draw_any_range_of_the_stream():
    # points lo..hi-1 are those of the whole draw, across Philox blocks
    for strip in _scenario().strips:
        whole = _ramp_points(strip, 23, 11, 2)
        for lo, hi in ((0, 23), (0, 1), (3, 9), (5, 6), (7, 23), (8, 8)):
            part = _ramp_points(strip, 23, 11, 2, lo, hi)
            assert [c.tobytes() for c in part] == \
                [c[lo:hi].tobytes() for c in whole], (lo, hi)


def test_sweep_never_imports_numpy_random(tmp_path):
    """A one-worker sweep loads neither numpy.random, nor the worker pool,
    nor the property suite."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("N_list = 1\nsamples_per_strip = 50\nspace_samples = 40\n"
                   f"time_samples = 2\noutput = {tmp_path / 'tiny.csv'}\n")
    probe = ("import sys, numpy\n"
             "by_numpy = 'numpy.random' in sys.modules\n"
             "from stripflow.cli import main\n"
             f"assert main(['sweep', {str(cfg)!r}]) == 0\n"
             "print(by_numpy, *(name in sys.modules for name in ("
             "'numpy.random', 'concurrent.futures', 'stripflow.properties')))\n")
    env = dict(os.environ, STRIPFLOW_WORKERS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    by_numpy, random, pool, props = done.stdout.split()[-4:]
    assert (pool, props) == ("False", "False")
    if by_numpy == "True":
        pytest.skip("numpy < 2 imports numpy.random with numpy itself")
    assert random == "False"


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_record_per_class_equals_the_fold(seed):
    """_record's per-class table, from np.bincount over class codes, is
    the per-sample fold of _per_class, float for float and in order."""
    rng = np.random.default_rng(seed)
    names = np.array([None, "", "a", "B", "BA", "abAB", "ab" * 40],
                     dtype=object)
    n = 3000
    keys = names[rng.integers(0, names.size, n)]
    # equal keys held by distinct objects, as after several blocks
    keys[::7] = [None if k is None else "".join(k) for k in keys[::7]]
    contrib = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    weights = 1.0 / rng.integers(1, 4, n)
    kinds = np.ones(n, dtype=np.int64)
    for area in (1.0, 0.3, 1e-7):
        table = _record(area, contrib, weights, kinds, keys)[-1]
        fold = _per_class(zip(keys.tolist(), (weights * area / n).tolist(),
                              (contrib * area / n).tolist()))
        assert list(table) == list(fold) and len(fold) == 6
        assert {k: (a.hex(), c.hex()) for k, (a, c) in table.items()} == \
            {k: (a.hex(), c.hex()) for k, (a, c) in fold.items()}
    none = np.full(n, None, dtype=object)
    assert _record(1.0, contrib, weights, kinds, none)[-1] == {}


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
