"""Exact word algebra for the rank-2 free group F(a, b).

Letters are encoded as signed integers: +1 = a, -1 = a^-1, +2 = b,
-2 = b^-1.  Words are kept reduced at all times; the empty word is the
identity.  Text form uses ``a``/``A``/``b``/``B`` (capital = inverse),
e.g. ``abAB`` for the commutator.
"""
from __future__ import annotations

from typing import Iterable, Iterator

NUM_GENERATORS = 2

_INT_TO_CHAR = {1: "a", -1: "A", 2: "b", -2: "B"}
_CHAR_TO_INT = {v: k for k, v in _INT_TO_CHAR.items()}


def _as_int(letter) -> int:
    code = int(letter)
    if code == 0 or abs(code) > NUM_GENERATORS:
        raise ValueError(f"invalid letter code {letter!r}")
    return code


def _push(out: list[int], codes: Iterable[int]) -> list[int]:
    """Append letter codes to the reduced list ``out``, cancelling as it goes."""
    for code in codes:
        if out and out[-1] == -code:
            out.pop()
        else:
            out.append(code)
    return out


def reduce_letters(raw: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a sequence of valid int letter codes (the trusted
    kernel: ``Word`` validates the letters that enter the program)."""
    return tuple(_push([], raw))


def cyclic_core(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Strip the matching inverse letter pairs off both ends of a reduced tuple."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return letters[i:j]


class Word:
    """A reduced element of F(a, b).  Immutable and hashable."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable = (), *, _reduced: bool = False):
        if _reduced:
            object.__setattr__(self, "letters", tuple(letters))
        else:
            object.__setattr__(self, "letters",
                               reduce_letters(map(_as_int, letters)))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def from_text(cls, text: str) -> "Word":
        try:
            return cls(_CHAR_TO_INT[c] for c in text.strip())
        except KeyError as exc:
            raise ValueError(f"invalid word text {text!r}") from exc

    def text(self) -> str:
        return "".join(_INT_TO_CHAR[c] for c in self.letters)

    # group operations ----------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        return Word(_push(list(self.letters), other.letters), _reduced=True)

    def inverse(self) -> "Word":
        return Word(tuple(-c for c in reversed(self.letters)), _reduced=True)

    def __pow__(self, k: int) -> "Word":
        base = self if k >= 0 else self.inverse()
        return Word(reduce_letters(base.letters * abs(k)), _reduced=True)

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Return (core, conjugator) with self == conjugator * core * conjugator^-1."""
        core = cyclic_core(self.letters)
        i = (len(self.letters) - len(core)) // 2
        return Word(core, _reduced=True), Word(self.letters[:i], _reduced=True)

    # container / comparison ----------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Word({self.text()!r})" if self.letters else "Word(identity)"

    def __reduce__(self):
        return (Word, (self.letters,))


IDENTITY = Word()
