"""Freely reduced words in the free group F = <a, b>.

A word is its freely reduced spelling: one character per letter, lowercase
for a generator and uppercase for its inverse, with no letter next to its
inverse, e.g.

    a^2 b a^-1   <->   "aabA"

Text form: letters from the generating set, lowercase for a generator and
uppercase for its inverse, with optional ^k exponents (k a nonzero decimal
integer).  Whitespace separates atoms but is otherwise ignored, so
"a^2 b a", "a^2ba" and "aa b a" all parse to the same word.  The printed
form and evaluate read the spelling's maximal runs of one letter, so
"aabA" prints as "a^2 b a^-1".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

DEFAULT_GENERATORS = ("a", "b")


class WordSyntaxError(ValueError):
    """Malformed word text.  Carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def free_reduction(spelling: str) -> str:
    """The freely reduced form of a spelling: every letter that meets its
    inverse cancels, left to right."""
    out = []
    for ch in spelling:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _power(spelling: str, exp: int) -> str:
    """The spelling repeated exp times, inverted first when exp < 0."""
    return (spelling if exp > 0 else spelling[::-1].swapcase()) * abs(exp)


def _runs(spelling: str):
    """(generator, exponent) of each maximal run of one letter."""
    for ch, run in groupby(spelling):
        k = len(list(run))
        yield (ch, k) if ch.islower() else (ch.lower(), -k)


@dataclass(frozen=True)
class Word:
    """A freely reduced word, stored as its spelling (reduced on
    construction).  Immutable; multiply with *, invert with **-1."""

    spelling: str = ""

    def __post_init__(self):
        object.__setattr__(self, "spelling", free_reduction(self.spelling))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.spelling + other.spelling)

    def inverse(self) -> "Word":
        return self ** -1

    def __pow__(self, k: int) -> "Word":
        return Word(_power(self.spelling, k))

    def __len__(self) -> int:
        return len(self.spelling)

    @property
    def is_identity(self) -> bool:
        return not self.spelling

    def spelled(self) -> str:
        """One character per letter: lowercase generator, uppercase inverse."""
        return self.spelling

    def __str__(self) -> str:
        if not self.spelling:
            return "1"
        return " ".join(gen if exp == 1 else f"{gen}^{exp}" for gen, exp in _runs(self.spelling))

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def _maybe_exponent(text: str, i: int):
    """Parse an optional ^<int> at position i; returns (exponent, next index)."""
    n = len(text)
    if i >= n or text[i] != "^":
        return 1, i
    j = i + 1
    if j < n and text[j] in "+-":
        j += 1
    k = j
    while k < n and text[k].isdigit():
        k += 1
    if k == j:
        raise WordSyntaxError("exponent expected after '^'", i)
    exp = int(text[i + 1 : k])
    if exp == 0:
        raise WordSyntaxError("zero exponent not allowed", i + 1)
    return exp, k


def _parse_sequence(text: str, i: int, gens, depth: int):
    """Parse letters and parenthesized groups until ')' or end of text;
    returns (the spelling read, unreduced, and the next index)."""
    parts = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == ")":
            if depth == 0:
                raise WordSyntaxError("unmatched ')'", i)
            return "".join(parts), i
        if ch == "(":
            inner, j = _parse_sequence(text, i + 1, gens, depth + 1)
            if j >= n or text[j] != ")":
                raise WordSyntaxError("unmatched '('", i)
            exp, i = _maybe_exponent(text, j + 1)
            parts.append(_power(inner, exp))
            continue
        if ch.lower() not in gens:
            raise WordSyntaxError(f"unknown letter {ch!r}", i)
        exp, i = _maybe_exponent(text, i + 1)
        parts.append(_power(ch, exp))
    return "".join(parts), i


def parse_word(text: str, generators=DEFAULT_GENERATORS) -> Word:
    """Parse word text over the given generators.

    Letters repeat with optional integer exponents (`a^-3`), parenthesized
    groups take exponents too (`(ba)^2`), and whitespace separates atoms.
    Raises WordSyntaxError on unknown letters, dangling/zero exponents, or
    stray characters.  The empty string is the identity.
    """
    spelling, i = _parse_sequence(text, 0, set(generators), 0)
    if i != len(text):
        raise WordSyntaxError("unmatched ')'", i)
    return Word(spelling)


def invert(word: Word) -> Word:
    return word.inverse()


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1."""
    return u * v * u.inverse() * v.inverse()


def evaluate(word: Word, ma, mb):
    """Image of the word under the representation a -> ma, b -> mb.

    The letters multiply left to right: evaluate(parse_word("ab")) = ma @ mb.
    Each maximal run of one letter is one power of its matrix.  Matrices
    must be invertible Mat2 values; exact entries stay exact.
    """
    from .sl2 import Mat2

    table = {"a": ma, "b": mb}
    out = Mat2.identity(exact=ma.exact and mb.exact)
    for gen, exp in _runs(word.spelling):
        out = out @ (table[gen] ** exp)
    return out
