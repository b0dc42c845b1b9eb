"""Word algebra: spec examples plus randomized invariants."""
import time

import pytest
from hypothesis import given, strategies as st

from stripflow.words import IDENTITY, Word

letters = st.sampled_from([1, -1, 2, -2])
raw_words = st.lists(letters, max_size=24)
words = raw_words.map(Word)


def test_reduce_examples():
    assert Word([1, -1, 2]) == Word.from_text("b")
    assert Word([]) == IDENTITY
    assert Word([1, 2, -2, 2, -2, -1]) == IDENTITY


def test_letter_encoding():
    assert Word([1, -2]).text() == "aB"
    with pytest.raises(ValueError):
        Word([3])
    with pytest.raises(ValueError):
        Word([0])


def test_text_round_trip():
    for text in ("", "a", "abAB", "BBaa"):
        assert Word.from_text(text).text() == text
    with pytest.raises(ValueError):
        Word.from_text("xyz")


def test_multiply_examples():
    assert Word.from_text("ab") * Word.from_text("Ba") == Word.from_text("aa")
    u = Word.from_text("abA")
    assert u * IDENTITY == u
    assert Word.from_text("a") * Word.from_text("A") == IDENTITY


def test_invert_examples():
    assert Word.from_text("ab").inverse() == Word.from_text("BA")
    assert IDENTITY.inverse() == IDENTITY
    assert Word.from_text("abAB").inverse() == Word.from_text("baBA")


def test_powers_are_linear():
    # one free reduction of the repeated letters, not k products
    w = Word.from_text("abAbb")
    start = time.perf_counter()
    up, down = w ** 30000, w ** -30000
    assert time.perf_counter() - start < 2.0
    assert up.text() == "abAbb" * 30000
    assert down.text() == "BBaBA" * 30000


def test_power_examples():
    assert Word.from_text("ab") ** 2 == Word.from_text("abab")
    assert Word.from_text("abAB") ** 0 == IDENTITY
    assert Word.from_text("a") ** -2 == Word.from_text("AA")


def test_cyclic_reduce_examples():
    core, conj = Word.from_text("abA").cyclic_reduce()
    assert core == Word.from_text("b")
    assert conj == Word.from_text("a")
    core, conj = Word.from_text("ab").cyclic_reduce()
    assert core == Word.from_text("ab")
    assert conj == IDENTITY


def test_word_is_immutable_and_hashable():
    w = Word.from_text("ab")
    with pytest.raises(AttributeError):
        w.letters = ()
    assert len({w, Word.from_text("ab"), Word.from_text("ba")}) == 2


@given(raw_words)
def test_reduce_idempotent_and_nonincreasing(raw):
    w = Word(raw)
    assert Word(w.letters) == w
    assert len(w) <= len(raw)
    for a, b in zip(w.letters, w.letters[1:]):
        assert a != -b


@given(raw_words, raw_words)
def test_multiply_matches_reduce_of_concatenation(x, y):
    assert Word(x) * Word(y) == Word(x + y)


@given(words, st.integers(-8, 8), st.integers(-8, 8))
def test_power_addition(u, j, k):
    assert u ** (j + k) == (u ** j) * (u ** k)


@given(words)
def test_cyclic_reduce_round_trip(u):
    core, conj = u.cyclic_reduce()
    assert conj * core * conj.inverse() == u
    if len(core) >= 2:
        assert core.letters[0] != -core.letters[-1]
    if not core:
        assert u == IDENTITY


@given(words, words)
def test_inverse_is_antihomomorphism(u, v):
    assert (u * v).inverse() == v.inverse() * u.inverse()
