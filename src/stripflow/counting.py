"""Brooks counting quasimorphisms on F(a, b) with exact homogenization.

For a nonempty reduced pattern w the counting quasimorphism is
``h_w(g) = #(occurrences of w in g) - #(occurrences of w^-1 in g)``,
occurrences overlapping.  Its homogenization is computed exactly by
counting occurrence starts inside one fundamental period of the
bi-infinite periodic word built from the cyclically reduced core of g;
the power-quotient limit ``h_w(g^k)/k`` is kept only as a cross-check
oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

from .words import Word, cyclic_core, reduce_letters

# Enumerating all reduced pairs up to length L costs ~(4*3^(L-1))^2 h_w
# evaluations; 7 is where a laptop stops being comfortable.
DEFECT_ENUMERATION_LIMIT = 7


@dataclass(frozen=True)
class CountingQM:
    """The Brooks quasimorphism attached to a nonempty reduced pattern."""

    pattern: Word

    def __post_init__(self):
        if len(self.pattern) == 0:
            raise ValueError("counting pattern must be nonempty")

    @classmethod
    def from_text(cls, text: str) -> "CountingQM":
        return cls(Word.from_text(text))


# -- tuple-level kernels (hot path for the trajectory estimator) ----------

def count_tuple(pattern: tuple[int, ...], text: tuple[int, ...]) -> int:
    n, p = len(text), len(pattern)
    if p == 0 or n < p:
        return 0
    first = pattern[0]
    count = 0
    for i in range(n - p + 1):
        if text[i] == first and text[i:i + p] == pattern:
            count += 1
    return count


def brooks_tuple(pattern: tuple[int, ...], inv_pattern: tuple[int, ...],
                 text: tuple[int, ...]) -> int:
    return count_tuple(pattern, text) - count_tuple(inv_pattern, text)


def homogenized_tuple(pattern: tuple[int, ...], letters: tuple[int, ...]) -> float:
    """Exact homogenized value on a reduced letter tuple: the Brooks count
    over the occurrences that start in one period of the periodic word,
    i.e. in its first period + len(pattern) - 1 letters."""
    core = cyclic_core(letters)
    if not core:
        return 0.0
    period = len(core)
    window = (core * (len(pattern) // period + 2))[:period + len(pattern) - 1]
    inv = tuple(-c for c in reversed(pattern))
    return float(brooks_tuple(pattern, inv, window))


# -- public operations -----------------------------------------------------

def count_occurrences(q: CountingQM, g: Word) -> int:
    """Number of (possibly overlapping) occurrences of the pattern in g."""
    return count_tuple(q.pattern.letters, g.letters)


def brooks_value(q: CountingQM, g: Word) -> float:
    w = q.pattern.letters
    return float(brooks_tuple(w, tuple(-c for c in reversed(w)), g.letters))


def homogenized(q: CountingQM, g: Word) -> float:
    """Exact value of the homogenization r̄(g) = lim_k h(g^k)/k.

    Homogeneity, conjugation invariance and antisymmetry hold exactly:
    the cyclic core of g^k is core(g)^k and occurrence starts per period
    scale linearly, while conjugation only rotates the core.
    """
    return homogenized_tuple(q.pattern.letters, g.letters)


def homogenize_oracle(q: CountingQM, g: Word, k: int) -> float:
    """Power-quotient h(g^k)/k; agrees with homogenized() to within D/k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return brooks_value(q, g ** k) / k


def _reduced_words_up_to(maxlen: int):
    words: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(maxlen):
        nxt = []
        for w in frontier:
            for code in (1, -1, 2, -2):
                if w and w[-1] == -code:
                    continue
                nxt.append(w + (code,))
        words.extend(nxt)
        frontier = nxt
    return words


def estimate_defect(q: CountingQM, maxlen: int) -> float:
    """Exhaustive sup of |h(fg) - h(f) - h(g)| over reduced |f|,|g| <= maxlen.

    A certified lower bound for the true defect; used as the tolerance
    constant in oracle comparisons.
    """
    if maxlen < 1:
        raise ValueError("maxlen must be >= 1")
    if maxlen > DEFECT_ENUMERATION_LIMIT:
        raise ValueError(
            f"maxlen {maxlen} exceeds enumeration budget {DEFECT_ENUMERATION_LIMIT}")
    pat = q.pattern.letters
    inv = tuple(-c for c in reversed(pat))
    words = _reduced_words_up_to(maxlen)
    values = {w: brooks_tuple(pat, inv, w) for w in words}
    worst = 0
    for f in words:
        hf = values[f]
        for g in words:
            fg = reduce_letters(f + g)
            d = abs(brooks_tuple(pat, inv, fg) - hf - values[g])
            if d > worst:
                worst = d
    return float(worst)
