"""The vectorized engine checked against the scalar reference maps."""
import hashlib
import math
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from stripflow import batch, estimator
from stripflow.batch import BatchRun, assemble_words, run_batch, wrapped_return
from stripflow.config import load_config
from stripflow.counting import CountingQM, homogenized_tuple
from stripflow.estimator import (RETURN_TOL, _ramp_points, _ramp_scan,
                                 iterate_word)
from stripflow.flow import apply_composed
from stripflow.surface import (DIRECTION_AXES, DIRECTION_VECTORS, DIRECTIONS,
                               TRANSVERSE_GRADIENT, build_scenario,
                               closing_letters, closing_word, crossing_word,
                               frac, near_cut_line, scenario_from_text,
                               segment_crossings, straight_letters,
                               transverse_lift)
from stripflow.words import Word, cyclic_core, reduce_letters

AB = CountingQM.from_text("ab")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
    events = assemble_words(run)
    for i in range(x0.size):
        p = (float(x0[i]), float(y0[i]))
        word = Word()
        for _ in range(n_steps):
            p, segments = apply_composed(scenario, tau, p)
            for a, b in segments:
                word = word * crossing_word(a, b)
        assert abs(run.x_end[i] - p[0]) <= 1e-12
        assert abs(run.y_end[i] - p[1]) <= 1e-12
        path = (events.get(i, ()) if run.foreign[i] else straight_letters(
            (x0[i], y0[i]), (run.x_end[i], run.y_end[i])))
        assert Word(path) == word


def test_run_batch_flags_end_point_on_cut_line():
    # one D-strip step moves (1.125, 0.625) down onto x = 1 without crossing
    # it; the end point has no closing word, so the sample must be flagged
    scenario = build_scenario(1, 0.05, 8, 0.02, ramp_fraction=1.0)
    x0, y0 = np.array([1.125]), np.array([0.625])
    run = run_batch(scenario, scenario.tau, 1, x0, y0,
                    _ramp_scan(scenario, x0, y0)[0], collect=True)
    assert (run.x_end[0], run.y_end[0]) == (1.0, 0.5)
    assert run.degenerate[0]


def _crossing_moves(rng):
    """One step's moves, as the engine passes them to _crossings: per axis,
    samples crossing 0, 1, 2 and 6250 lines up and down, and samples whose
    new coordinate is nan or inf (or both coordinates nan)."""
    moves = []
    for code, seq in ((1, 3.0), (2, 3.0), (1, 4.0)):
        d = np.array([0.0, 1.0, 2.0, 6250.0] * 2) + rng.uniform(0.1, 0.4, 8)
        old = rng.uniform(-5.0, 5.0, 8)
        new = old + d * np.repeat([1.0, -1.0], 4)
        old = np.append(old, [0.5, 0.5, -2.5, np.nan])
        new = np.append(new, [np.nan, np.inf, -np.inf, np.nan])
        ids = rng.permutation(100)[:old.size]
        moves.append((ids, old, new, np.floor(old), np.floor(new), code, seq))
    return moves


def test_crossings_equal_segment_crossings_per_move():
    moves = _crossing_moves(np.random.default_rng(11))
    sample, key, letter, on_cut = batch._crossings(moves)
    expected = []
    for ids, old, new, _, _, code, seq in moves:
        for i, a, b in zip(ids.tolist(), old.tolist(), new.tolist()):
            if not (math.isfinite(a) and math.isfinite(b)):
                continue
            ends = [(a, 0.5), (b, 0.5)] if code == 1 else [(0.5, a), (0.5, b)]
            expected += [(i, seq + t, c) for t, c in segment_crossings(*ends)]
    order = np.lexsort((key, sample))
    assert sorted(expected) == list(zip(sample[order].tolist(),
                                        key[order].tolist(),
                                        letter[order].tolist()))
    assert letter.dtype == np.int8 and not on_cut.any()
    assert sample.size == len(expected) > 2 * 2 * 6250


def test_crossings_flag_a_move_that_ends_on_a_cut_line():
    old, new = np.array([0.5, 0.75]), np.array([1.0, 2.25])
    moves = [(np.array([0, 1]), old, new, np.floor(old), np.floor(new), 1,
              0.0)]
    sample, key, letter, on_cut = batch._crossings(moves)
    assert sample.tolist() == [0, 1, 1] and letter.tolist() == [1, 1, 1]
    assert on_cut.tolist() == [True, False, False]


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
    words = assemble_words(run)
    return [reduce_letters(words.get(i, ())) for i in range(n)]


def _min_rotation(core):
    """The minimal rotation of a letter tuple by letter code, by brute force."""
    return min((core[i:] + core[:i] for i in range(len(core))), default=())


def _assert_estimator_words_exact(scenario, fast, full, x0, y0, m):
    """Every moved non-foreign sample: the word the estimator reads off its
    floor differences equals the full engine's reduced event word, and a
    periodic one's class, built from its winding alone, is the minimal
    rotation of the full engine's m-step core."""
    n = x0.size
    kinds = estimator._kinds(fast, x0, y0)
    assert (kinds == estimator._kinds(full, x0, y0)).all()
    k_words = _event_words(full, n)
    m_words = _event_words(full, n,
                           max_key=float(m * full.applications_per_step))
    moved = np.nonzero(fast.moved & ~fast.foreign & ~fast.degenerate)[0]
    windings = estimator._windings(fast, x0, y0, moved).tolist()
    for i, w in zip(moved.tolist(), windings):
        path = straight_letters((x0[i], y0[i]), (fast.x_end[i], fast.y_end[i]))
        assert path == k_words[i]
        if kinds[i] == 1:
            assert estimator._class_core(*w) == _min_rotation(
                cyclic_core(m_words[i]))


def _assert_same_positions_and_flags(fast, full):
    for field in ("x_end", "y_end", "x_m", "y_m", "moved", "foreign",
                  "degenerate"):
        assert _same_bits(getattr(fast, field), getattr(full, field)), field
    assert fast.applications_per_step == full.applications_per_step


def _assert_fast_path_exact(scenario, n_steps, x0, y0, home, m_snapshot=None,
                            collect=True, compact_fixed=True):
    args = (scenario, scenario.tau, n_steps, x0, y0)
    kwargs = dict(home=home, collect=collect, m_snapshot=m_snapshot,
                  compact_fixed=compact_fixed)
    fast, lone = _fast_run(*args, **kwargs)
    full = _full_engine(*args, **kwargs)
    _assert_same_positions_and_flags(fast, full)
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


# -- word assembly ---------------------------------------------------------------


def _word_batch(ramp_fraction):
    """An N = 2 batch at K = 4m with its crossing events."""
    scenario = build_scenario(2, 0.08, 32, 0.02, ramp_fraction=ramp_fraction)
    x0, y0, home = _sample_batch(scenario, 300, seed=3)
    return run_batch(scenario, scenario.tau, 4 * scenario.m, x0, y0,
                     home=home, collect=True)


@pytest.mark.parametrize("ramp_fraction", [0.125, 1.0])
def test_assemble_words_keeps_no_copy_of_the_events(ramp_fraction):
    """With ``only`` holding every sample that has events, assembly copies
    no event array: its transient memory stays under 24 B an event, beside
    the 17 B an event takes."""
    run = _word_batch(ramp_fraction)
    only = np.unique(run.event_sample)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        words = assemble_words(run, only=only)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_events = run.event_sample.size
    assert sum(map(len, words.values())) == n_events > 10_000
    assert (peak - retained) / n_events <= 24, (peak - retained) / n_events


@pytest.mark.parametrize("ramp_fraction", [0.125, 1.0])
def test_assemble_words_only_restricts_the_full_dict(ramp_fraction):
    """``only`` gives the full dict restricted to it, in the same order,
    whether or not it drops an event."""
    run = _word_batch(ramp_fraction)
    full = assemble_words(run)
    assert list(full) == sorted(full)
    assert set(full) == set(run.event_sample.tolist())
    quiet = np.setdiff1d(np.arange(run.moved.size), run.event_sample)
    assert quiet.size > 0
    everyone = np.concatenate([np.unique(run.event_sample), quiet[::7]])
    assert list(assemble_words(run, only=everyone).items()) == \
        list(full.items())
    rng = np.random.default_rng(3)
    subset = rng.choice(run.moved.size, run.moved.size // 3, replace=False)
    kept = set(subset.tolist())
    expected = [(i, w) for i, w in full.items() if i in kept]
    assert 0 < len(expected) < len(full)
    assert list(assemble_words(run, only=subset).items()) == expected


def _digest(value):
    """sha256 of an array's dtype, shape and bytes (or of an int's repr)."""
    if not isinstance(value, np.ndarray):
        return hashlib.sha256(repr(value).encode()).hexdigest()
    head = f"{value.dtype.str}{value.shape}".encode()
    return hashlib.sha256(head + value.tobytes()).hexdigest()


# Every BatchRun field, with the events in one canonical order, of two
# fixed N = 2 batches (K = 4m, snapshot at m): any change to the engine's
# float ops, event keys or flags changes a digest.
PINNED_DIGESTS = {
    0.125: {
        "x_end":
            "56936ac4c45e62cb579888fd3a22925e7c076da355d60e7abec17386f690fdb7",
        "y_end":
            "017362af4561f3479478205bec986a9643708565024928c84f831c5c27af4624",
        "x_m":
            "d471eb0a1d8eb7888aca786bdb22113d0f3b03d9ab2a48de5c0bfe23eaced0fb",
        "y_m":
            "7546b6b9db92ac074cc943e445ae4c149bc6e84cfb372bc4a7c47b99e46d24cb",
        "moved":
            "9d46b8c48d710bfbfb04c11349312ea774f865b4b01684e9434bb08174f18384",
        "foreign":
            "36c57ea3a2dd021c78f854b86f7433faf42be47561b3e82e4e2ebe0fb35ba068",
        "degenerate":
            "35dae8a7cb479f55e276639188d56216fe63fc90848997ae3811acafc6a19e89",
        "event_sample":
            "0cb04fc4b435aedbe40b78130566ecf5fa4bdf17f1b7f26a6d5a8866c51d31b6",
        "event_key":
            "831db9d21a53a912682125482a2a73b41ad3528774e208b973aac21527bbbea2",
        "event_letter":
            "c85e800065507b43669ab3564f6fc2b960d6c19a0117c790f7b737b84bc0dd1a",
        "applications_per_step":
            "e7f6c011776e8db7cd330b54174fd76f7d0216b612387a5ffcfb81e6f0919683",
    },
    1.0: {
        "x_end":
            "5dcff7bb3a72d9a384a6318996282cd4b2912bbf192ab7e83cbb5a35e7c3b458",
        "y_end":
            "fd32580287ef3c14be07ebaca899a698740365798e2fa76473212be71f8f2ad4",
        "x_m":
            "9435a7092624ef140253fc54fb56a3b0f1f36cb6471296ac4b90681601ff91ce",
        "y_m":
            "29b2d348014bc2ae040e41e85f88667e9e809bf530480123911c2fe5e4d79377",
        "moved":
            "9d46b8c48d710bfbfb04c11349312ea774f865b4b01684e9434bb08174f18384",
        "foreign":
            "9d46b8c48d710bfbfb04c11349312ea774f865b4b01684e9434bb08174f18384",
        "degenerate":
            "35dae8a7cb479f55e276639188d56216fe63fc90848997ae3811acafc6a19e89",
        "event_sample":
            "a10208d223862a7be89b33243ee45cf834f83eacc4a29a579590fcc0fed65239",
        "event_key":
            "d122e14fd9f646d4cb9ad390d19396af72dfb1371ca91292ce88b949b03ac92c",
        "event_letter":
            "a1487c576ce8ae5528a8ad269b052ad9c14325d4a350128dede7054984d6b4f3",
        "applications_per_step":
            "e7f6c011776e8db7cd330b54174fd76f7d0216b612387a5ffcfb81e6f0919683",
    },
}


@pytest.mark.parametrize("ramp_fraction", sorted(PINNED_DIGESTS))
def test_run_batch_bits_are_pinned(ramp_fraction):
    scenario = build_scenario(2, 0.08, 32, 0.02, ramp_fraction=ramp_fraction)
    m = scenario.m
    x0, y0, home = _sample_batch(scenario, 150, seed=2)
    run = run_batch(scenario, scenario.tau, 4 * m, x0, y0, home,
                    collect=True, m_snapshot=m)
    values = {f.name: getattr(run, f.name) for f in fields(BatchRun)}
    values.update(zip(("event_sample", "event_key", "event_letter"),
                      _events(run)))
    digests = {name: _digest(v) for name, v in values.items()}
    assert digests == PINNED_DIGESTS[ramp_fraction]


def _mixed_batch(scenario, n, seed):
    """``_sample_batch`` plus uniform points, most on no ramp (home -1):
    those never move, so the engine compacts them out after step 0."""
    x, y, home = _sample_batch(scenario, n, seed)
    u = np.random.default_rng(seed).random((2, 300))
    return (np.concatenate([x, u[0]]), np.concatenate([y, u[1]]),
            np.concatenate([home, _ramp_scan(scenario, *u)[0]]))


# As PINNED_DIGESTS, of a batch whose engine compacts at step 0, with and
# without collected events.
PINNED_COMPACTED_DIGESTS = {
    (0.125, False): {
        "x_end":
            "48f41e2359024d597d596c87f6f78b51f5a97d57a0c29b9ceab684bd7912286c",
        "y_end":
            "b507cf0e8126f88de69d9b78ea186d217b03d728c9f0be836de31a36082810a1",
        "x_m":
            "01570d082107c164d26c3babaa956edcf8470798d3d306333560459a16217434",
        "y_m":
            "165cb583b1ed420dd754a1d089ba8bab7bb77097dee2d1256132e0d8575241cb",
        "moved":
            "a0a2c66e9bfbfd9b854b80476ec76baef51f41ae4e0a890d45bc9b769e4e3234",
        "foreign":
            "e3053ef3b256c8dd51924fda81d8d9ae40fa0927d2c22dee69e923f81d6f82d9",
        "degenerate":
            "e3ecd9393b61a2de0454919fe86c105caff3f00694ad6148ee084f3a4791ee42",
        "event_sample":
            "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
        "event_key":
            "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
        "event_letter":
            "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
        "applications_per_step":
            "e7f6c011776e8db7cd330b54174fd76f7d0216b612387a5ffcfb81e6f0919683",
    },
    (0.125, True): {
        "x_end":
            "48f41e2359024d597d596c87f6f78b51f5a97d57a0c29b9ceab684bd7912286c",
        "y_end":
            "b507cf0e8126f88de69d9b78ea186d217b03d728c9f0be836de31a36082810a1",
        "x_m":
            "01570d082107c164d26c3babaa956edcf8470798d3d306333560459a16217434",
        "y_m":
            "165cb583b1ed420dd754a1d089ba8bab7bb77097dee2d1256132e0d8575241cb",
        "moved":
            "a0a2c66e9bfbfd9b854b80476ec76baef51f41ae4e0a890d45bc9b769e4e3234",
        "foreign":
            "e3053ef3b256c8dd51924fda81d8d9ae40fa0927d2c22dee69e923f81d6f82d9",
        "degenerate":
            "e3ecd9393b61a2de0454919fe86c105caff3f00694ad6148ee084f3a4791ee42",
        "event_sample":
            "adc2758daff900a8d9a51c12b2228fd3f4bfcd297f2b3eaafeab2d011728302b",
        "event_key":
            "a2b12dd262891699bf17bc389b3aeb60345f9a75c726e84a9b47f22be56f0f9c",
        "event_letter":
            "651346ea0a998fc9dc1744d8d3b7b7804bee7e699e1671c0c5972e24673c5bae",
        "applications_per_step":
            "e7f6c011776e8db7cd330b54174fd76f7d0216b612387a5ffcfb81e6f0919683",
    },
    (1.0, False): {
        "x_end":
            "c367c9cbfbd9b1a7d41f70dcd23ec96994da42804a1ec7c1cc5a5d6aaa391e55",
        "y_end":
            "0415b9f8784c4fa6da288bf70e5a31979c180f39f11cc4bbc4289e6538d1bc7c",
        "x_m":
            "77a8cddf95ea448e87f4e3b3138b02de20e7cd41ff8618de11439a61e5fd3b1f",
        "y_m":
            "74039e89a74a238d36f6c8beb9293980989520ab79b1c17223762dfc4693d64f",
        "moved":
            "bfaf22cf89203bd79900747ba51f0e328fd1318b8daa26f0ff5215eb1336aee1",
        "foreign":
            "bfaf22cf89203bd79900747ba51f0e328fd1318b8daa26f0ff5215eb1336aee1",
        "degenerate":
            "e3ecd9393b61a2de0454919fe86c105caff3f00694ad6148ee084f3a4791ee42",
        "event_sample":
            "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
        "event_key":
            "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
        "event_letter":
            "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
        "applications_per_step":
            "e7f6c011776e8db7cd330b54174fd76f7d0216b612387a5ffcfb81e6f0919683",
    },
    (1.0, True): {
        "x_end":
            "c367c9cbfbd9b1a7d41f70dcd23ec96994da42804a1ec7c1cc5a5d6aaa391e55",
        "y_end":
            "0415b9f8784c4fa6da288bf70e5a31979c180f39f11cc4bbc4289e6538d1bc7c",
        "x_m":
            "77a8cddf95ea448e87f4e3b3138b02de20e7cd41ff8618de11439a61e5fd3b1f",
        "y_m":
            "74039e89a74a238d36f6c8beb9293980989520ab79b1c17223762dfc4693d64f",
        "moved":
            "bfaf22cf89203bd79900747ba51f0e328fd1318b8daa26f0ff5215eb1336aee1",
        "foreign":
            "bfaf22cf89203bd79900747ba51f0e328fd1318b8daa26f0ff5215eb1336aee1",
        "degenerate":
            "e3ecd9393b61a2de0454919fe86c105caff3f00694ad6148ee084f3a4791ee42",
        "event_sample":
            "b19d7449fe60073798a458a98724082f93cd3d0626f6526f53fa6f18f81e2c9d",
        "event_key":
            "169c11908441125ffc50f10f743d4087b8124f15ee1fd4ebfcdc1a8a2455b729",
        "event_letter":
            "42a185cbb6906a3fcecf3d8e96e832262af335481f8dc49b42eddb1fe0d695ab",
        "applications_per_step":
            "e7f6c011776e8db7cd330b54174fd76f7d0216b612387a5ffcfb81e6f0919683",
    },
}


@pytest.mark.parametrize("ramp_fraction,collect",
                         sorted(PINNED_COMPACTED_DIGESTS))
def test_run_batch_bits_after_compaction_are_pinned(ramp_fraction, collect):
    scenario = build_scenario(2, 0.08, 32, 0.02, ramp_fraction=ramp_fraction)
    m = scenario.m
    x0, y0, home = _mixed_batch(scenario, 150, seed=4)
    run = run_batch(scenario, scenario.tau, 4 * m, x0, y0, home,
                    collect=collect, m_snapshot=m)
    # the off-ramp points never move: the engine drops them after step 0
    assert (home == -1).sum() > 150 and not run.moved[home == -1].any()
    values = {f.name: getattr(run, f.name) for f in fields(BatchRun)}
    if collect:
        values.update(zip(("event_sample", "event_key", "event_letter"),
                          _events(run)))
    digests = {name: _digest(v) for name, v in values.items()}
    assert digests == PINNED_COMPACTED_DIGESTS[ramp_fraction, collect]


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
    # the same torus points, lifted 2^20 and 2^44 cells away: the margin
    # grows with the lift, to about 5e-7 at 2^20, where the orbits well
    # inside their ramps are still lone, and to about 8 at 2^44, where every
    # orbit is left to the full engine
    scenario = build_scenario(1, 0.16, 16, 0.02)
    x0, y0, home = _sample_batch(scenario, 100, seed=29)
    for lift, lone in ((2.0 ** 20, True), (2.0 ** 44, False)):
        count = _lone_count(scenario, 64, x0 + lift, y0 - lift, home)
        assert (count > 0) == lone
        _assert_fast_path_exact(scenario, 64, x0 + lift, y0 - lift, home,
                                m_snapshot=16)


def _long_class_batch(n):
    """``n`` seeded ramp samples per strip of the long-class layout, where a
    lone orbit crosses 2 * 10^4 cut lines per axis in K = 4m steps."""
    scenario = load_config(CONFIGS / "long_classes.cfg").build(1)
    xs, ys = zip(*(_ramp_points(s, n, 31, si)
                   for si, s in enumerate(scenario.strips)))
    home = np.repeat(np.arange(len(scenario.strips)), n)
    return scenario, np.concatenate(xs), np.concatenate(ys), home


def _engine_ids(*args, **kwargs):
    """run_batch, and the samples it sent to the full engine."""
    seen = []

    def spy(*a):
        seen.append(a[5])
        return real(*a)

    real = batch._run_engine
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "_run_engine", spy)
        run = run_batch(*args, **kwargs)
    return run, np.concatenate(seen)


def test_long_reach_orbits_skip_the_full_engine():
    # the margin grows with the reach of the paths, so these orbits, which
    # end about 2 * 10^4 cells from their starts, are told lone
    scenario, x0, y0, home = _long_class_batch(10)
    K, m = 4 * scenario.m, scenario.m
    run, ids = _engine_ids(scenario, scenario.tau, K, x0, y0, home=home,
                           collect=True, m_snapshot=m)
    assert ids.size == 0 and run.moved.all()
    _assert_same_positions_and_flags(run, _full_engine(
        scenario, scenario.tau, K, x0, y0, home=home, collect=True,
        m_snapshot=m))


def test_non_finite_starts_are_never_lone():
    # long-reach lone orbits plus non-finite starts, some of them on their
    # home ramp (H and V test one coordinate); only the finite ones are
    # lone, and every sample ends as in the full engine.  Arithmetic on
    # the non-finite ones warns, as it would anywhere.
    scenario, x0, y0, home = _long_class_batch(4)
    inf, nan = np.inf, np.nan
    x0 = np.append(x0, [inf, -inf, x0[4], nan, nan, 0.5])
    y0 = np.append(y0, [y0[0], y0[1], -inf, y0[2], nan, inf])
    home = np.append(home, [0, 0, 1, 0, 2, 0])
    finite = np.isfinite(x0) & np.isfinite(y0)
    args = (scenario, scenario.tau, 4 * scenario.m, x0, y0)
    kwargs = dict(home=home, collect=True, m_snapshot=scenario.m)
    with np.errstate(invalid="ignore"):
        run, lone = _fast_run(*args, **kwargs)
        _assert_same_positions_and_flags(run, _full_engine(*args, **kwargs))
    assert (lone == finite).all()
    assert run.moved[~finite].sum() == 4


def _cover_points(ramps, shift, n_steps, direction, rng, margin):
    """Uniform points, plus points whose transverse coordinate in
    ``direction`` is a few margins from a ramp edge at a random step."""
    c = [rng.random(200)]
    for r in ramps:
        for edge in (r.offset + r.smoothing, r.offset + r.width - r.smoothing):
            for o in (-3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0):
                k = rng.integers(0, n_steps + 1, 4)
                c.append(edge + o * margin - k * shift)
    c = frac(np.concatenate(c))
    other = "V" if direction == "H" else "H"
    return _point({direction: c, other: rng.random(c.size)})


# far lifts and long paths (at ramp fraction 2e-4 a path reaches 10^4 cells
# in 64 steps) widen the margin, which must still bound their rounding
@pytest.mark.parametrize("ramp_fraction,lift,n_steps", [
    (0.125, 0.0, 64), (1.0, 0.0, 64), (0.125, 2.0 ** 20, 1),
    (1.0, 2.0 ** 20, 1), (2e-4, 0.0, 64)])
def test_cover_matches_the_ramp_test_at_every_step(ramp_fraction, lift,
                                                   n_steps):
    # each home strip's path against each direction's ramps: a path that
    # StripSpec.shear puts on a ramp at some step is covered, and a covered
    # path that it never puts on one passes within 2 margins of a ramp edge
    scenario = build_scenario(2, 0.08, 32, 0.02, ramp_fraction=ramp_fraction)
    margin = scenario.lone_margin(scenario.tau, n_steps, lift + 1.0)
    if ramp_fraction < 1e-3:
        assert margin > 1e-9
    rng = np.random.default_rng(41)
    over = clear = 0
    for home in scenario.strips:
        d = home.orientation * scenario.tau / home.ramp_width
        vx, vy = DIRECTION_VECTORS[home.direction]
        for direction in DIRECTIONS:
            ramps = [s for s in scenario.strips if s.direction == direction]
            gx, gy = TRANSVERSE_GRADIENT[direction]
            shift = (gx * vx + gy * vy) * d
            x, y = _cover_points(ramps, shift, n_steps, direction, rng,
                                 margin)
            xy = [x + lift, y - lift]
            cover = batch._cover(ramps, shift, n_steps, margin)
            covered = batch._covered(cover, transverse_lift(direction, *xy)) > 0
            hit = np.zeros(x.size, dtype=bool)
            near_edge = np.zeros(x.size, dtype=bool)
            for _ in range(n_steps + 1):
                for r in ramps:
                    s, on_ramp, _ = r.shear(*xy, 0.0)
                    hit |= on_ramp
                    for edge in (r.smoothing, r.width - r.smoothing):
                        gap = np.abs(frac(frac(s) - edge + 0.5) - 0.5)
                        near_edge |= gap <= 2 * margin
                for a in DIRECTION_AXES[home.direction]:
                    xy[a] = xy[a] + d
            assert covered[hit].all()
            assert near_edge[covered & ~hit].all()
            assert hit.any()
            over += np.count_nonzero(covered & ~hit)
            clear += np.count_nonzero(~covered)
    assert over > 0 and clear > 0


# every strip has its own width, smoothing and step, and the second copy
# runs the other way
UNEVEN = """\
N = 2
T = 0.08
m = 32
hole_halfwidth = 0.02
strip = H 0.31 0.07 +1 0.02
strip = V 0.30 0.09 +1 0.04
strip = D 0.21 0.06 -1 0.01
strip = H 0.80 0.085 -1 0.03
strip = V 0.82 0.05 -1 0.0
strip = D 0.70 0.075 +1 0.025
"""


def test_fast_path_on_strips_of_unequal_widths_and_smoothing():
    scenario = scenario_from_text(UNEVEN)
    K = 4 * scenario.m
    x0, y0, home = _sample_batch(scenario, 200, seed=43)
    assert 0 < _lone_count(scenario, K, x0, y0, home) < x0.size
    _assert_fast_path_exact(scenario, K, x0, y0, home, m_snapshot=scenario.m)


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
    assert straight_letters((0.5, 0.39), (run.x_end[0], run.y_end[0])) == (1,)
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
        keys[i] = Word(_min_rotation(core)).text()
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

    def spy_assemble(run, only=None):
        assembled.append(only)
        return real_assemble(run, only=only)

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
    # one reduction per distinct raw word: (path letters, closing letters)
    bad = np.nonzero((kinds == 2) & ~degenerate)[0]
    assert Counter(reduced) == Counter(
        path + close for path, close in _raw_words(runs[0], x0, y0, bad,
                                                   scenario))
    non_foreign = ~foreign & (kinds > 0)
    if ramp_fraction == 1.0:  # every moved sample meets a foreign ramp
        assert not non_foreign.any() and reduced
    else:
        assert non_foreign.sum() > x0.size // 2


def _raw_words(run, x0, y0, idx, scenario):
    """The distinct (path letters, closing letters) pairs of the samples
    ``idx``: a sample's path letters are its crossing events if a foreign
    strip moved it, else the crossing word of its segment."""
    events = assemble_words(run, only=idx[run.foreign[idx]])
    hh = scenario.surface.hole_halfwidth
    pairs = set()
    for i in idx.tolist():
        start = (float(x0[i]), float(y0[i]))
        end = (float(run.x_end[i]), float(run.y_end[i]))
        path = (events.get(i, ()) if run.foreign[i]
                else crossing_word(start, end).letters)
        pairs.add((path, closing_word(end, start, hh)[0].letters))
    return pairs


def test_evaluate_batch_reduces_each_raw_word_once(monkeypatch):
    """On full ramps every moved sample is bad and foreign, yet few distinct
    raw words reach reduce_letters; the values are the oracle's bit for
    bit."""
    scenario = build_scenario(2, 0.08, 32, 0.02, ramp_fraction=1.0)
    K = 2 * scenario.m
    x0, y0, home = _sample_batch(scenario, 300, seed=7)
    expected = _event_oracle(scenario, AB, K, x0, y0, home)
    reduced = []
    real_reduce = estimator.reduce_letters

    def spy_reduce(raw):
        reduced.append(raw)
        return real_reduce(raw)

    monkeypatch.setattr(estimator, "reduce_letters", spy_reduce)
    values, kinds, keys, degenerate = estimator._evaluate_batch(
        scenario, AB, K, x0, y0, home)
    assert _same_bits(values, expected[0])
    assert (kinds == expected[1]).all()
    assert keys.tolist() == expected[2].tolist()
    assert _same_bits(degenerate, expected[3])
    bad = np.count_nonzero((kinds == 2) & ~degenerate)
    assert bad > 1500
    assert 0 < len(reduced) < 0.05 * bad


def test_evaluate_batch_closes_bad_orbits_in_arrays(monkeypatch):
    """On full ramps every moved sample is bad: few of them reach the scalar
    closing_word, the array letters match it, and each distinct word is
    valued once."""
    scenario = build_scenario(2, 0.08, 32, 0.02, ramp_fraction=1.0)
    K = 2 * scenario.m
    x0, y0, home = _sample_batch(scenario, 300, seed=5)
    calls = {"closing_word": 0, "homogenized_tuple": 0}

    def counted(name):
        real = getattr(estimator, name)

        def count(*args):
            calls[name] += 1
            return real(*args)
        return count

    for name in calls:
        monkeypatch.setattr(estimator, name, counted(name))
    values, kinds, keys, degenerate = estimator._evaluate_batch(
        scenario, AB, K, x0, y0, home)
    bad = np.nonzero((kinds == 2) & ~degenerate)[0]
    assert bad.size > 1500
    assert calls["closing_word"] < 0.05 * bad.size

    run = run_batch(scenario, scenario.tau, K, x0, y0, home=home,
                    collect=True, m_snapshot=scenario.m)
    events = assemble_words(run, only=bad)
    hh = scenario.surface.hole_halfwidth
    letters, declined = closing_letters(run.x_end[bad], run.y_end[bad],
                                        x0[bad], y0[bad], hh)
    distinct = set()
    for i, letter, scalar in zip(bad.tolist(), letters.tolist(),
                                 declined.tolist()):
        close = closing_word((float(run.x_end[i]), float(run.y_end[i])),
                             (float(x0[i]), float(y0[i])), hh)[0].letters
        assert scalar or close == ((letter,) if letter else ())
        distinct.add((events.get(i, ()), close))
    assert 0 < calls["homogenized_tuple"] <= len(distinct) < bad.size // 10


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
