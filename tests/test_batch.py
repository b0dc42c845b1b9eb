"""The vectorized engine checked against the scalar reference maps."""
from dataclasses import replace

import numpy as np
import pytest

from stripflow import batch, estimator
from stripflow.batch import assemble_words, run_batch, wrapped_return
from stripflow.counting import CountingQM, homogenized_tuple
from stripflow.estimator import (RETURN_TOL, _ramp_points, _ramp_scan,
                                 iterate_word)
from stripflow.flow import apply_composed
from stripflow.surface import build_scenario, crossing_word, near_cut_line
from stripflow.words import Word, cyclic_core, reduce_letters

AB = CountingQM.from_text("ab")

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
    run = run_batch(scenario, tau, n_steps, x0, y0,
                    _ramp_scan(scenario, x0, y0)[0], collect=True)
    assert not run.degenerate.any()
    events = assemble_words(run, x0.size)
    for i in range(x0.size):
        p = (float(x0[i]), float(y0[i]))
        word = Word()
        for _ in range(n_steps):
            p, segments = apply_composed(scenario, tau, p)
            for a, b in segments:
                word = word * crossing_word(a, b)
        assert abs(run.x_end[i] - p[0]) <= 1e-12
        assert abs(run.y_end[i] - p[1]) <= 1e-12
        assert estimator._path_word(run, x0, y0, i, events) == word


def test_run_batch_flags_end_point_on_cut_line():
    # one D-strip step moves (1.125, 0.625) down onto x = 1 without crossing
    # it; the end point has no closing word, so the sample must be flagged
    scenario = build_scenario(1, 0.05, 8, 0.02, ramp_fraction=1.0)
    x0, y0 = np.array([1.125]), np.array([0.625])
    run = run_batch(scenario, scenario.tau, 1, x0, y0,
                    _ramp_scan(scenario, x0, y0)[0], collect=True)
    assert (run.x_end[0], run.y_end[0]) == (1.0, 0.5)
    assert run.degenerate[0]


def test_run_batch_flags_start_on_cut_line():
    # an H orbit that starts 5e-13 past x = 1 and moves away from it never
    # crosses it, but its segment has no exact crossing word either
    scenario = build_scenario(1, 0.16, 16, 0.02)
    x0, y0 = np.array([1.0 + 5e-13, 0.6]), np.array([0.39, 0.39])
    run, lone = _fast_run(scenario, scenario.tau, 1, x0, y0,
                          home=np.array([0, 0]), collect=True)
    assert lone.all() and run.moved.all()
    assert not near_cut_line(run.x_end).any()
    assert run.degenerate.tolist() == [True, False]


# -- the lone-orbit fast path against the full engine ----------------------------


def _no_lone_orbits(scenario, t, n_steps, x0, y0, *rest):
    return np.zeros(x0.size, bool)


def _full_engine(*args, **kwargs):
    """run_batch with the lone-orbit filter off: every sample goes through
    the full 3N-strip engine."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "_lone_orbits", _no_lone_orbits)
        return run_batch(*args, **kwargs)


def _fast_run(*args, **kwargs):
    """run_batch, and the mask of the samples its lone-orbit filter
    followed (none if the filter did not run)."""
    seen = []

    def spy(*a, **k):
        seen.append(real(*a, **k))
        return seen[-1]

    real = batch._lone_orbits
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "_lone_orbits", spy)
        run = run_batch(*args, **kwargs)
    return run, seen[0] if seen else np.zeros(run.moved.size, bool)


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _events(run, keep=None):
    """Crossing events in one canonical order, optionally only those of the
    samples in the mask ``keep``; the two paths emit them in different
    orders, which assemble_words does not depend on."""
    s, k, letters = run.event_sample, run.event_key, run.event_letter
    if keep is not None:
        sel = keep[s]
        s, k, letters = s[sel], k[sel], letters[sel]
    order = np.lexsort((letters, k, s))
    return s[order], k[order], letters[order]


def _event_words(run, n, max_key=None):
    """Reduced per-sample words from the crossing events, optionally only
    the events keyed below ``max_key`` (the first steps)."""
    sample, key, letter = run.event_sample, run.event_key, run.event_letter
    if max_key is not None:
        sel = key < max_key
        run = replace(run, event_sample=sample[sel], event_key=key[sel],
                      event_letter=letter[sel])
    words = assemble_words(run, n)
    return [reduce_letters(words.get(i, ())) for i in range(n)]


def _assert_estimator_words_exact(scenario, fast, full, x0, y0, m):
    """Every moved non-foreign sample: the word the estimator reads off its
    segment, and a periodic one's m-step core, equal the full engine's
    reduced event words; periodic classes depend on the winding alone."""
    n = x0.size
    kinds = estimator._kinds(fast, x0, y0)
    assert (kinds == estimator._kinds(full, x0, y0)).all()
    k_words = _event_words(full, n)
    m_words = _event_words(full, n,
                           max_key=float(m * full.applications_per_step))
    classes = {}
    moved = np.nonzero(fast.moved & ~fast.foreign & ~fast.degenerate)[0]
    windings = map(tuple, estimator._windings(fast, x0, y0, moved).tolist())
    for i, w in zip(moved.tolist(), windings):
        path = estimator._path_word(fast, x0, y0, i, {})
        assert path.letters == k_words[i]
        if kinds[i] == 1:
            core = estimator._periodic_core(path, w)
            assert core == cyclic_core(m_words[i])
            key = estimator._canonical_class(core)
            assert classes.setdefault(w, key) == key


def _assert_fast_path_exact(scenario, n_steps, x0, y0, home, m_snapshot=None,
                            collect=True, compact_fixed=True):
    args = (scenario, scenario.tau, n_steps, x0, y0)
    kwargs = dict(home=home, collect=collect, m_snapshot=m_snapshot,
                  compact_fixed=compact_fixed)
    fast, lone = _fast_run(*args, **kwargs)
    full = _full_engine(*args, **kwargs)
    for field in ("x_end", "y_end", "x_m", "y_m", "moved", "foreign",
                  "degenerate"):
        assert _same_bits(getattr(fast, field), getattr(full, field)), field
    assert fast.applications_per_step == full.applications_per_step
    if not collect:
        assert fast.event_sample is None and full.event_sample is None
        return
    # lone orbits emit nothing; the engine's samples emit as before
    for a, b in zip(_events(fast), _events(full, keep=~lone)):
        assert _same_bits(a, b)
    if m_snapshot is not None and 1 <= m_snapshot <= n_steps:
        _assert_estimator_words_exact(scenario, fast, full, x0, y0, m_snapshot)


def _lone_count(scenario, n_steps, x0, y0, home):
    return int(_fast_run(scenario, scenario.tau, n_steps, x0, y0,
                         home=home)[1].sum())


def _sample_batch(scenario, n, seed):
    """The estimator's seeded ramp samples, plus points on two ramps."""
    xs, ys, homes = [], [], []
    for si, strip in enumerate(scenario.strips):
        x, y = _ramp_points(strip, n, seed, si)
        xs.append(x)
        ys.append(y)
        homes.append(np.full(n, si))
    x, y = _seeded_points(scenario, seed)
    xs.append(x)
    ys.append(y)
    homes.append(_ramp_scan(scenario, x, y)[0])
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(homes)


@pytest.mark.parametrize("ramp_fraction", [0.125, 1.0])
@pytest.mark.parametrize("N", [1, 2, 4])
def test_fast_path_matches_full_engine(N, ramp_fraction):
    scenario = build_scenario(N, 0.16 / N, 16 * N, 0.02,
                              ramp_fraction=ramp_fraction)
    m = scenario.m
    x0, y0, home = _sample_batch(scenario, 150, seed=N)
    if ramp_fraction < 1.0:
        assert _lone_count(scenario, 4 * m, x0, y0, home) > x0.size // 2
    _assert_fast_path_exact(scenario, 4 * m, x0, y0, home, m_snapshot=m)


@pytest.mark.parametrize("collect,compact_fixed,m_snapshot",
                         [(False, True, 16), (True, False, 16),
                          (True, True, None), (True, True, 0),
                          (True, True, 64), (True, True, 65)])
def test_fast_path_matches_full_engine_options(collect, compact_fixed,
                                               m_snapshot):
    scenario = build_scenario(1, 0.16, 16, 0.02)
    x0, y0, home = _sample_batch(scenario, 200, seed=5)
    _assert_fast_path_exact(scenario, 64, x0, y0, home, m_snapshot=m_snapshot,
                            collect=collect, compact_fixed=compact_fixed)


def test_fast_path_without_smoothing():
    scenario = build_scenario(1, 0.05, 8, 0.02, ramp_fraction=1.0)
    x0, y0, home = _sample_batch(scenario, 300, seed=11)
    assert _lone_count(scenario, 32, x0, y0, home) > 0
    _assert_fast_path_exact(scenario, 32, x0, y0, home, m_snapshot=8)


def test_fast_path_lone_orbits_that_do_not_return():
    # at ramp_fraction 0.3 a lone orbit travels 1/0.3 loops in m steps, so
    # it does not return and is bad
    scenario = build_scenario(1, 0.16, 4, 0.02, ramp_fraction=0.3)
    m = scenario.m
    x0, y0, home = _sample_batch(scenario, 400, seed=13)
    run, lone = _fast_run(scenario, scenario.tau, m, x0, y0, home=home,
                          collect=True, m_snapshot=m)
    returned = wrapped_return(run.x_m, run.y_m, x0, y0, RETURN_TOL)
    assert (lone & run.moved & ~returned).sum() > 100
    _assert_fast_path_exact(scenario, m, x0, y0, home, m_snapshot=m)


def _edge_points(scenario, rng, offsets):
    """Points whose transverse coordinate sits at ``offsets`` from every
    band and ramp edge of every strip, each with that strip as home."""
    xs, ys, homes = [], [], []
    for si, s in enumerate(scenario.strips):
        other = "V" if s.direction == "H" else "H"
        edges = (s.offset, s.offset + s.smoothing,
                 s.offset + s.width - s.smoothing, s.offset + s.width)
        h = np.array([e + o for e in edges for o in offsets])
        x, y = _point({s.direction: h, other: rng.random(h.size)})
        xs.append(x)
        ys.append(y)
        homes.append(np.full(h.size, si))
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(homes)


@pytest.mark.parametrize("name", ["N2", "N2-full-ramp"])
def test_fast_path_at_band_and_ramp_edges(name):
    scenario = build_scenario(hole_halfwidth=0.02, **SCENARIOS[name])
    rng = np.random.default_rng(17)
    offsets = [-1e-10, -1e-11, 0.0, 1e-11, 1e-10]
    x0, y0, home = _edge_points(scenario, rng, offsets)
    _assert_fast_path_exact(scenario, 4 * scenario.m, x0, y0, home,
                            m_snapshot=scenario.m)


def test_fast_path_d_home_at_own_ramp_edge():
    scenario = build_scenario(2, 0.08, 32, 0.02)
    rng = np.random.default_rng(19)
    offsets = [-2e-9, -1e-9, -1e-12, -3e-16, -1e-16, 0.0, 1e-16, 3e-16,
               1e-12, 1e-9, 2e-9]
    x0, y0, home = _edge_points(scenario, rng, offsets)
    d_home = np.array([scenario.strips[i].direction == "D" for i in home])
    x0, y0, home = x0[d_home], y0[d_home], home[d_home]
    # the well-inside ones are lone; the margin catches the rest
    assert 0 < _lone_count(scenario, 4 * scenario.m, x0, y0, home) < x0.size
    _assert_fast_path_exact(scenario, 4 * scenario.m, x0, y0, home,
                            m_snapshot=scenario.m)


def test_fast_path_home_ramp_without_the_point():
    # points on one strip's ramp, or on no ramp, each given a home strip
    # whose ramp does not hold them: of another direction, or of the same
    # direction in another copy
    scenario = build_scenario(2, 0.08, 32, 0.02)
    rng = np.random.default_rng(23)
    n_strips = len(scenario.strips)
    xs, ys, homes = [], [], []
    for si, strip in enumerate(scenario.strips):
        for shift in (1, 3):
            x, y = _ramp_points(strip, 25, 23 + shift, si)
            xs.append(x)
            ys.append(y)
            homes.append(np.full(25, (si + shift) % n_strips))
    x, y = rng.random(400), rng.random(400)
    off_ramps = _ramp_scan(scenario, x, y)[0] < 0
    xs.append(x[off_ramps])
    ys.append(y[off_ramps])
    homes.append(rng.integers(0, n_strips, off_ramps.sum()))
    x0, y0, home = np.concatenate(xs), np.concatenate(ys), np.concatenate(homes)
    run, lone = _fast_run(scenario, scenario.tau, 4 * scenario.m, x0, y0,
                          home=home)
    assert (lone & ~run.moved).sum() >= off_ramps.sum() // 2
    _assert_fast_path_exact(scenario, 4 * scenario.m, x0, y0, home,
                            m_snapshot=scenario.m)


def test_fast_path_far_lifts():
    # the same torus points, lifted 2^20 and 2^44 cells away: the rounding
    # of far coordinates exceeds the filter's margin, so they must be left
    # to the full engine
    scenario = build_scenario(1, 0.16, 16, 0.02)
    x0, y0, home = _sample_batch(scenario, 100, seed=29)
    for lift in (2.0 ** 20, 2.0 ** 44):
        _assert_fast_path_exact(scenario, 64, x0 + lift, y0 - lift, home,
                                m_snapshot=16)


def test_lone_step_onto_cut_line_is_not_flagged():
    # at N = 1 with the default layout the H ramp moves (0.5, 0.39) by
    # about 0.5 per step: the first step ends on x = 1 to within rounding,
    # but only its home strip moves the lone orbit, so it traces one
    # straight segment and its end points alone decide its word
    scenario = build_scenario(1, 0.16, 16, 0.02)
    x0, y0, home = np.array([0.5]), np.array([0.39]), np.array([0])
    assert scenario.strips[0].direction == "H"
    run, lone = _fast_run(scenario, scenario.tau, 2, x0, y0, home=home,
                          collect=True)
    assert lone[0] and abs(run.x_end[0] - 1.5) < 1e-12
    assert not run.degenerate[0]
    assert estimator._path_word(run, x0, y0, 0, {}) == Word.from_text("a")
    _assert_fast_path_exact(scenario, 2, x0, y0, home)


# Samples on two ramps that a foreign strip moves, at N = 2 without
# smoothing, where every ramp moves a point by 1/16 a step.  One move of
# each starts or ends on a cut line, though neither end of its path does.
@pytest.mark.parametrize("start,steps", [
    # home H; the D ramp moves it by -(1/16, 1/16): its first step ends on
    # x = 0 without crossing it, and its second crosses it at parameter 0
    ((0.0625, 0.3115234375), 2),
    # home V; the H ramp moves it once, then V moves it up: its second step
    # crosses y = 1 at parameter 1, and its third starts there
    ((0.3115234375, 0.875), 3),
])
def test_foreign_move_onto_cut_line_is_flagged(start, steps):
    scenario = build_scenario(2, 0.08, 16, 0.02, ramp_fraction=1.0)
    x0, y0 = np.array([start[0]]), np.array([start[1]])
    home = _ramp_scan(scenario, x0, y0)[0]
    run, lone = _fast_run(scenario, scenario.tau, steps, x0, y0, home=home,
                          collect=True)
    assert not lone[0] and run.foreign[0] and run.degenerate[0]
    assert not near_cut_line(np.concatenate(
        [x0, y0, run.x_end, run.y_end])).any()
    _assert_fast_path_exact(scenario, steps, x0, y0, home)


def _event_oracle(scenario, q, K, x, y, home):
    """The estimator's values, kinds and class keys computed from the full
    engine's crossing events alone, one sample at a time."""
    m = scenario.m
    pattern = q.pattern.letters
    run = _full_engine(scenario, scenario.tau, K, x, y, home=home,
                       collect=True, m_snapshot=m)
    n = x.size
    returned = wrapped_return(run.x_m, run.y_m, x, y, RETURN_TOL)
    periodic = returned & ~run.foreign & run.moved
    kinds = np.where(run.moved, 2, 0)
    kinds[periodic] = 1
    values = np.zeros(n)
    keys = np.full(n, None, dtype=object)
    m_words = _event_words(run, n,
                           max_key=float(m * run.applications_per_step))
    k_words = _event_words(run, n)
    # flagged samples are re-run, so the estimator skips them
    for i in np.nonzero(periodic & ~run.degenerate)[0].tolist():
        core = cyclic_core(m_words[i])
        keys[i] = estimator._canonical_class(core)
        values[i] = homogenized_tuple(pattern, core) / m
    hh = scenario.surface.hole_halfwidth
    for i in np.nonzero(~periodic & run.moved & ~run.degenerate)[0].tolist():
        start, end = (float(x[i]), float(y[i])), (float(run.x_end[i]),
                                                  float(run.y_end[i]))
        close, _ = estimator.closing_word(end, start, hh)
        values[i] = homogenized_tuple(
            pattern, reduce_letters(k_words[i] + close.letters)) / K
    return values, kinds, keys, run.degenerate


# at ramp_fraction 0.3 and m = 4 most lone orbits do not return (see
# test_fast_path_lone_orbits_that_do_not_return)
@pytest.mark.parametrize("N,m,ramp_fraction", [(1, 16, 0.125), (2, 32, 0.125),
                                               (1, 4, 0.3), (2, 32, 1.0)])
def test_evaluate_batch_matches_event_words(N, m, ramp_fraction, monkeypatch):
    scenario = build_scenario(N, 0.16 / N, m, 0.02,
                              ramp_fraction=ramp_fraction)
    K = 2 * scenario.m
    x0, y0, home = _sample_batch(scenario, 150, seed=31 + N)
    expected = _event_oracle(scenario, AB, K, x0, y0, home)

    runs, assembled, reduced = [], [], []
    real_run, real_assemble = batch.run_batch, batch.assemble_words
    real_reduce = estimator.reduce_letters

    def spy_run(*args, **kwargs):
        runs.append(real_run(*args, **kwargs))
        return runs[-1]

    def spy_assemble(run, n, only=None):
        assembled.append(only)
        return real_assemble(run, n, only=only)

    def spy_reduce(raw):
        reduced.append(raw)
        return real_reduce(raw)

    monkeypatch.setattr(batch, "run_batch", spy_run)
    monkeypatch.setattr(batch, "assemble_words", spy_assemble)
    monkeypatch.setattr(estimator, "reduce_letters", spy_reduce)
    values, kinds, keys, degenerate = estimator._evaluate_batch(
        scenario, AB, K, x0, y0, home)
    assert _same_bits(values, expected[0])
    assert (kinds == expected[1]).all()
    assert keys.tolist() == expected[2].tolist()
    assert _same_bits(degenerate, expected[3])
    # only the samples a foreign strip moved read their crossing events
    foreign = runs[0].foreign
    assert all(foreign[only].all() for only in assembled)
    assert len(reduced) == int((foreign & (kinds == 2) & ~degenerate).sum())
    non_foreign = ~foreign & (kinds > 0)
    if ramp_fraction == 1.0:  # every moved sample meets a foreign ramp
        assert not non_foreign.any() and reduced
    else:
        assert non_foreign.sum() > x0.size // 2


def _iterate_points(scenario, seed):
    """Estimator samples (lone or not), points on two ramps and points on
    no ramp."""
    x0, y0, _ = _sample_batch(scenario, 12, seed)
    rng = np.random.default_rng(seed)
    return [(float(a), float(b)) for a, b in zip(x0, y0)] + \
        [tuple(p) for p in rng.random((5, 2)).tolist()]


@pytest.mark.parametrize("N,m,ramp_fraction", [(1, 16, 0.125), (2, 32, 0.125),
                                               (1, 4, 0.3)])
def test_iterate_word_matches_full_engine(N, m, ramp_fraction):
    scenario = build_scenario(N, 0.16 / N, m, 0.02,
                              ramp_fraction=ramp_fraction)
    kinds = set()
    for K in (scenario.m // 2, 2 * scenario.m):
        for p in _iterate_points(scenario, seed=37 + N):
            rec = iterate_word(scenario, AB, p, K)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(batch, "_lone_orbits", _no_lone_orbits)
                assert iterate_word(scenario, AB, p, K) == rec
            kinds.add(rec.kind)
    assert kinds == ({"stationary", "bad"} if ramp_fraction == 0.3
                     else {"stationary", "periodic", "bad"})
