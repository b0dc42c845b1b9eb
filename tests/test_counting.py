"""Counting quasimorphisms: spec examples, exact identities, oracle bounds."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from stripflow.counting import (CountingQM, brooks_value, count_tuple,
                                estimate_defect, homogenize_oracle,
                                homogenized)
from stripflow.words import Word

AB = CountingQM.from_text("ab")
COMM = CountingQM.from_text("abAB")

words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=16).map(Word)


def test_pattern_must_be_nonempty():
    with pytest.raises(ValueError):
        CountingQM(Word())


def test_count_examples():
    def count(pattern, text):
        return count_tuple(Word.from_text(pattern).letters,
                           Word.from_text(text).letters)
    assert count("ab", "abab") == 2
    assert count("ab", "a") == 0
    assert count("aa", "aaa") == 2


def test_brooks_examples():
    assert brooks_value(AB, Word.from_text("abab")) == 2
    assert brooks_value(AB, Word.from_text("BA")) == -1
    assert brooks_value(AB, Word()) == 0


def test_homogenized_values_pattern_ab():
    assert homogenized(AB, Word.from_text("a")) == 0.0
    assert homogenized(AB, Word.from_text("b")) == 0.0
    assert homogenized(AB, Word.from_text("ab")) == 1.0
    # the scenario deficiency d_r = r(a) + r(b) - r(ab)
    assert homogenized(AB, Word.from_text("a")) + \
        homogenized(AB, Word.from_text("b")) - \
        homogenized(AB, Word.from_text("ab")) == -1.0


def test_homogenized_values_pattern_commutator():
    assert homogenized(COMM, Word.from_text("a")) == 0.0
    assert homogenized(COMM, Word.from_text("b")) == 0.0
    assert homogenized(COMM, Word.from_text("abAB")) == 1.0
    assert homogenized(COMM, Word.from_text("ab")) == 0.0


def test_homogenized_cross_checked_with_power_oracle():
    rng = random.Random(11)
    demp = estimate_defect(AB, 4)
    for _ in range(50):
        g = Word(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(10)))
        val = homogenized(AB, g)
        assert abs(val - homogenize_oracle(AB, g, 200)) <= demp / 200 + 1e-12


def test_oracle_examples():
    assert homogenize_oracle(AB, Word.from_text("ab"), 100) == 1.0
    for k in (1, 7, 50):
        assert homogenize_oracle(AB, Word.from_text("a"), k) == 0.0
    assert abs(homogenize_oracle(AB, Word.from_text("ba"), 100) - 1.0) <= 1e-2 + 1e-12


def test_oracle_rejects_bad_k():
    with pytest.raises(ValueError):
        homogenize_oracle(AB, Word.from_text("a"), 0)


@given(words, st.integers(-8, 8))
@settings(max_examples=200)
def test_homogeneity_exact(g, k):
    assert homogenized(AB, g ** k) == k * homogenized(AB, g)


@given(words, words)
@settings(max_examples=200)
def test_conjugation_invariance_exact(g, u):
    assert homogenized(AB, u * g * u.inverse()) == homogenized(AB, g)


@given(words)
def test_antisymmetry_exact(g):
    assert homogenized(AB, g.inverse()) == -homogenized(AB, g)


def test_defect_examples():
    assert estimate_defect(AB, 1) == 1.0
    values = [estimate_defect(AB, n) for n in (1, 2, 3, 4)]
    assert values == sorted(values)
    # frozen brute-force values used as tolerance constants elsewhere
    assert estimate_defect(AB, 5) == 1.0
    assert estimate_defect(COMM, 4) == 1.0


def test_defect_budget():
    with pytest.raises(ValueError):
        estimate_defect(AB, 8)
    with pytest.raises(ValueError):
        estimate_defect(AB, 0)
