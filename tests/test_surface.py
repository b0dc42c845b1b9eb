"""Surface geometry: scenario building, crossing words, serialization."""
import dataclasses
import math
import random

import numpy as np
import pytest

from stripflow.errors import DegenerateCrossing, InfeasibleScenario
from stripflow.surface import (DIRECTION_VECTORS, DIRECTIONS, HoledTorus,
                               Scenario, StripSpec, build_scenario,
                               closing_letters, closing_word, crossing_word,
                               frac, scenario_from_text, scenario_to_text,
                               segment_crossings, straight_letters,
                               validate_scenario, _min_circular_gap,
                               _segment_hits_hole)
from stripflow.words import Word


def test_holed_torus_bounds():
    with pytest.raises(ValueError):
        HoledTorus(0.0)
    with pytest.raises(ValueError):
        HoledTorus(0.1)


def test_frac_equals_mod_one_bit_for_bit():
    edge = [0.0, -0.0, -1e-20, -5e-324, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53),
            2.0 ** 52 - 0.5, -(2.0 ** 52 - 0.5)]
    c = np.concatenate([np.random.default_rng(3).uniform(-100.0, 100.0, 20000),
                        edge])
    assert (frac(c).view(np.int64) == (c % 1.0).view(np.int64)).all()
    for v in edge + c[:200].tolist():
        assert type(frac(v)) is float
        assert frac(v).hex() == (v % 1.0).hex()
    assert frac(-0.0).hex() == "0x0.0p+0"
    for v in (math.inf, -math.inf, math.nan):
        assert math.isnan(frac(v)) and math.isnan(v % 1.0)
        with np.errstate(invalid="ignore"):
            both = (frac(np.array([v])), np.array([v]) % 1.0)
        assert np.isnan(both).all()


def test_strip_transverse_and_membership():
    h = StripSpec("H", 0.3, 0.1, 1, 0.0)
    assert h.transverse(0.77, 0.35) < h.width
    assert not h.transverse(0.77, 0.45) < h.width
    v = StripSpec("V", 0.3, 0.1, 1, 0.0)
    assert v.transverse(0.35, 0.9) < v.width
    d = StripSpec("D", 0.3, 0.1, -1, 0.0)
    assert d.transverse(0.75, 0.4) < d.width  # u = 0.35
    assert d.transverse(0.1, 0.75) < d.width  # u = -0.65 = 0.35 mod 1


def test_strip_spec_rejects_nan_smoothing():
    with pytest.raises(ValueError, match="smoothing"):
        StripSpec("H", 0.3, 0.1, 1, math.nan)


def test_overlap_report_follows_the_strips():
    s = build_scenario(2, 0.08, 32, 0.02)
    t = build_scenario(2, 0.08, 32, 0.02, phases=(0.1, 0.4, "auto"))
    assert t.validation.min_overlap_spacing != s.validation.min_overlap_spacing
    s2 = dataclasses.replace(s, strips=t.strips)
    assert s2.validation == validate_scenario(s2) != s.validation


def test_build_example_from_grid_phases():
    s = build_scenario(1, 0.05, 10, 0.02, phases=(0.3, 0.3, 0.15),
                       ramp_fraction=1.0)
    assert len(s.strips) == 3
    assert len(s.validation.pairwise_overlaps) == 3
    assert s.validation.bad_area_budget == pytest.approx(10 * 3 * 0.05 ** 2)


def test_build_rejects_triple_overlap_phases():
    # theta = (phase_V - phase_H - phase_D) mod 1 lands inside (-T, 2T)
    with pytest.raises(InfeasibleScenario):
        build_scenario(1, 0.05, 10, 0.02, phases=(0.3, 0.3, 0.04))


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_scenario(0, 0.05, 10, 0.02)
    with pytest.raises(ValueError):
        build_scenario(1, 0.3, 10, 0.02)  # T > 1/(4N)
    with pytest.raises(ValueError):
        build_scenario(1, 0.05, 0, 0.02)


def _min_gap_brute_force(windows):
    """Every free stretch of the circle starts at some window's end that no
    other window covers and runs to the nearest window start after it."""
    gaps = []
    for i, (s, ln) in enumerate(windows):
        end = frac(s) + ln
        if any(ln2 >= 1.0 or frac(end - s2) < ln2
               for j, (s2, ln2) in enumerate(windows) if j != i):
            continue
        if ln < 1.0:
            gaps.append(min(frac(s2 - end) or 1.0 for s2, _ in windows))
    return min(gaps, default=0.0)


def test_min_circular_gap_against_brute_force():
    # a window that wraps past 1 overlapping the first: free is (0.25, 0.85)
    assert _min_circular_gap([(0.0, 0.1), (0.85, 0.4)]) == pytest.approx(0.6)
    assert _min_circular_gap([]) == 1.0
    assert _min_circular_gap([(0.3, 1.2)]) == 0.0
    rng = random.Random(19)
    for _ in range(2000):
        windows = [(rng.uniform(-2.0, 2.0), rng.uniform(0.0, 0.6))
                   for _ in range(rng.randint(1, 6))]
        assert _min_circular_gap(windows) == pytest.approx(
            _min_gap_brute_force(windows), abs=1e-12), windows


def test_build_determinism_and_defaults():
    a = build_scenario(4, 0.04, 64, 0.02)
    b = build_scenario(4, 0.04, 64, 0.02)
    assert a == b
    assert len(a.strips) == 12
    assert a.validation.min_overlap_spacing > a.tau / a.T


def test_overlap_areas_against_grid_oracle():
    s = build_scenario(1, 0.05, 10, 0.02, phases=(0.3, 0.3, 0.15),
                       ramp_fraction=1.0)
    n = 1200
    xs = (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    inside = []
    for strip in s.strips:
        if strip.direction == "H":
            tr = (gy - strip.offset) % 1.0
        elif strip.direction == "V":
            tr = (gx - strip.offset) % 1.0
        else:
            tr = (gx - gy - strip.offset) % 1.0
        inside.append(tr < strip.width)
    # no point of 3 distinct directions
    assert not np.any(inside[0] & inside[1] & inside[2])
    for i, j, area in s.validation.pairwise_overlaps:
        measured = float((inside[i] & inside[j]).mean())
        assert measured == pytest.approx(area, rel=0.05)


def test_triple_overlap_detected_by_validator():
    strips = (
        StripSpec("H", 0.30, 0.05, 1, 0.0),
        StripSpec("V", 0.30, 0.05, 1, 0.0),
        StripSpec("D", 0.04, 0.05, -1, 0.0),  # u band meets the H/V corner
    )
    scen = Scenario(HoledTorus(0.02), strips, 1, 0.05, 10)
    with pytest.raises(InfeasibleScenario, match="triple"):
        validate_scenario(scen)


def test_crossing_word_examples():
    assert crossing_word((0.5, 0.5), (1.5, 0.5)) == Word.from_text("a")
    assert crossing_word((0.5, 0.5), (0.5, 0.5)) == Word()
    assert crossing_word((0.9, 0.8), (1.2, 1.3)) == Word.from_text("ab")
    assert crossing_word((1.2, 1.3), (0.9, 0.8)) == Word.from_text("BA")


def test_crossing_word_degenerate_endpoint():
    with pytest.raises(DegenerateCrossing):
        crossing_word((1.0, 0.5), (1.5, 0.5))


def _polyline_oracle(p, q, pieces=4000):
    word = []
    for i in range(pieces):
        a0 = i / pieces
        a1 = (i + 1) / pieces
        x0, y0 = p[0] + (q[0] - p[0]) * a0, p[1] + (q[1] - p[1]) * a0
        x1, y1 = p[0] + (q[0] - p[0]) * a1, p[1] + (q[1] - p[1]) * a1
        dx = math.floor(x1) - math.floor(x0)
        dy = math.floor(y1) - math.floor(y0)
        assert abs(dx) <= 1 and abs(dy) <= 1
        if dx and dy:  # order within the piece by parameter
            tx = (max(math.floor(x0), math.floor(x1)) - x0) / (x1 - x0)
            ty = (max(math.floor(y0), math.floor(y1)) - y0) / (y1 - y0)
            first = [(tx, 1 if dx > 0 else -1), (ty, 2 if dy > 0 else -2)]
            first.sort()
            word.extend(letter for _, letter in first)
        elif dx:
            word.append(1 if dx > 0 else -1)
        elif dy:
            word.append(2 if dy > 0 else -2)
    return Word(word)


def test_crossing_word_matches_polyline_oracle():
    rng = random.Random(5)
    for _ in range(80):
        p = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        q = (p[0] + rng.uniform(-2.3, 2.3), p[1] + rng.uniform(-2.3, 2.3))
        if abs(q[0] - round(q[0])) < 1e-6 or abs(q[1] - round(q[1])) < 1e-6:
            continue
        assert crossing_word(p, q) == _polyline_oracle(p, q)


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_straight_letters_equal_crossing_word(direction):
    # segments along one strip direction, away from the lattice points as a
    # home-only path is, moving n + (0, 1) along it for n = 0 .. 49999: 0 to
    # 10^5 letters, both ways, a D one led by either axis
    vx, vy = DIRECTION_VECTORS[direction]
    rng = np.random.default_rng(DIRECTIONS.index(direction))
    lengths = [0.0] + [n + rng.random() for n in (0, 1, 2, 10, 1000)] * 4
    lengths += [49999 + rng.random() for _ in range(2)]
    leads, longest = set(), 0
    for length in lengths:
        for sign in (1.0, -1.0):
            x, y = rng.uniform(-3.0, 3.0, 2)
            if direction == "D":  # x - y at least 0.02 off an integer
                y = x - (math.floor(x - y) + rng.uniform(0.02, 0.98))
                leads.add(frac(x) > frac(y))
            p, q = (x, y), (x + sign * length * vx, y + sign * length * vy)
            letters = straight_letters(p, q)
            assert letters == crossing_word(p, q).letters
            longest = max(longest, len(letters))
    assert longest >= (10**5 - 1 if direction == "D" else 49999)
    if direction == "D":
        assert leads == {True, False}


def test_closing_word_trivial_cases():
    word, chain = closing_word((0.4, 0.6), (0.4, 0.6), 0.02)
    assert word == Word() and chain == []
    word, chain = closing_word((0.7, 0.5), (0.2, 0.5), 0.02)
    assert word == Word()
    assert len(chain) == 1


def test_closing_word_detours_around_hole():
    hh = 0.02
    end, start = (0.97, 0.005), (0.03, 0.005)
    word, chain = closing_word(end, start, hh)
    assert 1 <= len(chain) <= 3
    for a, b in chain:
        assert not _segment_hits_hole(a, b, hh)
    # chain is connected and lands on a lift of start
    for (a, b), (c, d) in zip(chain, chain[1:]):
        assert b == c
    lx, ly = chain[-1][1]
    assert (lx - start[0]) % 1.0 == pytest.approx(0.0, abs=1e-12)
    assert (ly - start[1]) % 1.0 == pytest.approx(0.0, abs=1e-12)
    # abelianization must match the lift displacement
    letters = list(word)
    assert sum(1 if c == 1 else -1 for c in letters if abs(c) == 1) == \
        math.floor(lx) - math.floor(end[0])


def _closing_pairs(hh, rng):
    """End and start points where the array closing path is hard to get
    right: near a lattice point, near a cut line, half a unit apart on an
    axis, with no displacement, and at random."""
    n = 400
    lattice = rng.integers(-2, 3, size=(2, 2, n)).astype(float)
    near_hole = lattice + rng.uniform(-3 * hh, 3 * hh, size=(2, 2, n))
    near_line = rng.uniform(-1.5, 1.5, size=(2, 2, n))
    axis = rng.integers(0, 2, size=n)
    end_or_start = rng.integers(0, 2, size=n)
    near_line[end_or_start, axis, np.arange(n)] = (
        rng.integers(-1, 2, size=n) + rng.uniform(-1e-13, 1e-13, size=n))
    # dyadic coordinates, so that the differences are exactly +-0.5
    half = rng.integers(-64, 64, size=(2, 2, n)) / 64.0
    half[1, axis, np.arange(n)] = (half[0, axis, np.arange(n)]
                                   + rng.choice([-0.5, 0.5], size=n))
    still = np.repeat(rng.uniform(-1.0, 1.0, size=(1, 2, n)), 2, axis=0)
    still[1, :, : n // 2] += rng.integers(-2, 3, size=(2, n // 2))
    spread = rng.uniform(-1.5, 1.5, size=(2, 2, n))
    return np.concatenate([near_hole, near_line, half, still, spread], axis=2)


def test_closing_letters_match_closing_word():
    hh = 0.02
    rng = np.random.default_rng(17)
    (ex, ey), (sx, sy) = _closing_pairs(hh, rng)
    letters, declined = closing_letters(ex, ey, sx, sy, hh)
    for letter, e, s in zip(letters[~declined].tolist(),
                            zip(ex[~declined].tolist(), ey[~declined].tolist()),
                            zip(sx[~declined].tolist(), sy[~declined].tolist())):
        assert closing_word(e, s, hh)[0].letters == ((letter,) if letter
                                                     else ())
    # both paths run, and every letter occurs
    assert (~declined).sum() > 600 and declined.sum() > 300
    assert set(letters[~declined].tolist()) == {-2, -1, 0, 1, 2}
    zero = (ex == sx) & (ey == sy)
    assert (zero & ~declined).any()


# pairs the array path declines (a lattice point near the segment or an end
# on a cut line), with the closing words closing_word gave before the array
# path existed; None stands for DegenerateCrossing
DECLINED_CLOSINGS = [
    ((0.97, 0.005), (0.03, 0.005), (1,)),
    ((0.9, 0.9), (0.1, 0.1), (2, 1)),
    ((0.9, 0.01), (0.1, 0.4), (1,)),
    ((0.98, 0.3), (0.02, 0.99), (1, -2)),
    ((1e-14, 0.5), (0.3, 0.5), None),
    ((0.3, 0.2), (1e-14, 0.2), None),
    ((0.99, 0.99), (0.01, 0.01), None),
    ((0.2, -1e-14), (0.2, 0.4), None),
    ((0.0, 0.0), (0.5, 0.5), None),
]


@pytest.mark.parametrize("end,start,expected", DECLINED_CLOSINGS)
def test_declined_pairs_keep_their_closing_words(end, start, expected):
    hh = 0.02
    (ex, ey), (sx, sy) = np.array([[end], [start]]).transpose(0, 2, 1)
    assert closing_letters(ex, ey, sx, sy, hh)[1].all()
    if expected is None:
        with pytest.raises(DegenerateCrossing):
            closing_word(end, start, hh)
    else:
        assert closing_word(end, start, hh)[0].letters == expected


def test_random_closed_loops_reduce_to_identity():
    from geomutil import random_null_homotopic_loop

    rng = random.Random(9)
    for _ in range(60):
        segs = random_null_homotopic_loop(rng, 0.02)
        assert segs is not None
        word = Word()
        for a, b in segs:
            word = word * crossing_word(a, b)
        assert word == Word()


def test_loop_around_hole_is_peripheral():
    # a rectangle enclosing exactly one lifted hole carries a commutator class
    pts = [(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5), (0.5, 0.5)]
    word = Word()
    for a, b in zip(pts, pts[1:]):
        word = word * crossing_word(a, b)
    core, _ = word.cyclic_reduce()
    rotations = {core.letters[i:] + core.letters[:i] for i in range(len(core))}
    commutator = Word.from_text("abAB")
    assert commutator.letters in rotations or \
        commutator.inverse().letters in rotations


def test_winding_consistency():
    rng = random.Random(13)
    for _ in range(100):
        p = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        q = (p[0] + rng.uniform(-3, 3), p[1] + rng.uniform(-3, 3))
        if abs(q[0] - round(q[0])) < 1e-9 or abs(q[1] - round(q[1])) < 1e-9:
            continue
        events = segment_crossings(p, q)
        wind_a = sum(1 if c == 1 else -1 for _, c in events if abs(c) == 1)
        wind_b = sum(1 if c == 2 else -1 for _, c in events if abs(c) == 2)
        assert wind_a == math.floor(q[0]) - math.floor(p[0])
        assert wind_b == math.floor(q[1]) - math.floor(p[1])


def test_serialization_round_trip():
    s = build_scenario(2, 0.08, 32, 0.02)
    text = scenario_to_text(s)
    back = scenario_from_text(text)
    assert back.N == s.N and back.m == s.m and back.T == s.T
    assert back.strips == s.strips
    assert back.validation == s.validation
    assert scenario_to_text(back) == text


def test_serialization_rejects_garbage():
    with pytest.raises(InfeasibleScenario):
        scenario_from_text("N = 1\nT = 0.05\n")  # missing fields
    with pytest.raises(InfeasibleScenario):
        scenario_from_text("nonsense line\n")


# Each case edits the first match in a valid N = 1 document.  Every one
# must raise InfeasibleScenario, not ValueError or a later failure (m = 0
# used to fail only at scenario.tau, T = -1 ran the maps backwards).
MALFORMED = {
    "m_zero": ("m = 16", "m = 0"),
    "T_negative": ("T = 0.16", "T = -1"),
    "T_nan": ("T = 0.16", "T = nan"),
    "N_not_a_number": ("N = 1", "N = x"),
    "strip_field_not_a_number": ("strip = H 0.", "strip = H x0."),
    "direction_Q": ("strip = H", "strip = Q"),
    "orientation_2": (" +1 ", " +2 "),
    "hole_too_wide": ("hole_halfwidth = 0.02", "hole_halfwidth = 0.5"),
    "width_2": (" 0.16 +1 ", " 2 +1 "),
    "smoothing_nan": (" +1 0.070000000000000007", " +1 nan"),
    # one value per key: an unknown key or a second N, T, m or hole
    # half-width is refused, even with the same value
    "unknown_key": ("m = 16", "m = 16\nfoo = 1"),
    "m_repeated": ("m = 16", "m = 16\nm = 32"),
    "T_repeated_same_value": ("T = 0.16", "T = 0.16\nT = 0.16"),
    "hole_repeated": ("hole_halfwidth = 0.02",
                      "hole_halfwidth = 0.02\nhole_halfwidth = 0.01"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_scenario_from_text_rejects_malformed_documents(case):
    text = scenario_to_text(build_scenario(1, 0.16, 16, 0.02))
    old, new = MALFORMED[case]
    assert old in text
    with pytest.raises(InfeasibleScenario):
        scenario_from_text(text.replace(old, new, 1))
