"""Freely reduced words in the free group F = <a, b>.

A word is stored as a tuple of (generator, exponent) pairs with nonzero
exponents and no two adjacent pairs sharing a generator, e.g.

    a^2 b a^-1   <->   (('a', 2), ('b', 1), ('a', -1))

Text form: letters from the generating set, lowercase for a generator and
uppercase for its inverse, with optional ^k exponents (k a nonzero decimal
integer).  Whitespace separates atoms but is otherwise ignored, so
"a^2 b a", "a^2ba" and "aa b a" all parse to the same word.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_GENERATORS = ("a", "b")


class WordSyntaxError(ValueError):
    """Malformed word text.  Carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def _reduce(pairs):
    """Merge adjacent pairs with equal generator and drop zero exponents."""
    out = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word.  Immutable; multiply with *, invert with **-1."""

    letters: tuple = ()

    def __post_init__(self):
        for i, (gen, exp) in enumerate(self.letters):
            if not isinstance(exp, int) or exp == 0:
                raise ValueError(f"invalid exponent {exp!r} for generator {gen!r}")
            if i and self.letters[i - 1][0] == gen:
                raise ValueError(f"word not reduced at pair {i}: repeated {gen!r}")

    @staticmethod
    def from_pairs(pairs) -> "Word":
        """Build a word from (generator, exponent) pairs, reducing as needed."""
        return Word(_reduce(pairs))

    def __mul__(self, other: "Word") -> "Word":
        return Word(_reduce(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, k: int) -> "Word":
        if k == 0:
            return Word()
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    def __len__(self) -> int:
        """Total letter count, counting exponents with multiplicity."""
        return sum(abs(e) for _, e in self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def spelled(self) -> str:
        """One character per letter: lowercase generator, uppercase inverse."""
        parts = []
        for gen, exp in self.letters:
            parts.append((gen if exp > 0 else gen.upper()) * abs(exp))
        return "".join(parts)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        atoms = []
        for gen, exp in self.letters:
            atoms.append(gen if exp == 1 else f"{gen}^{exp}")
        return " ".join(atoms)

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
    """Parse letters and parenthesized groups until ')' or end of text."""
    pairs = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == ")":
            if depth == 0:
                raise WordSyntaxError("unmatched ')'", i)
            return pairs, i
        if ch == "(":
            inner, j = _parse_sequence(text, i + 1, gens, depth + 1)
            if j >= n or text[j] != ")":
                raise WordSyntaxError("unmatched '('", i)
            exp, j = _maybe_exponent(text, j + 1)
            if exp < 0:
                inner = [(g, -e) for g, e in reversed(inner)]
                exp = -exp
            for _ in range(exp):
                pairs.extend(inner)
            i = j
            continue
        low = ch.lower()
        if low not in gens:
            raise WordSyntaxError(f"unknown letter {ch!r}", i)
        sign = 1 if ch.islower() else -1
        exp, i = _maybe_exponent(text, i + 1)
        pairs.append((low, sign * exp))
    return pairs, i


def parse_word(text: str, generators=DEFAULT_GENERATORS) -> Word:
    """Parse word text over the given generators.

    Letters repeat with optional integer exponents (`a^-3`), parenthesized
    groups take exponents too (`(ba)^2`), and whitespace separates atoms.
    Raises WordSyntaxError on unknown letters, dangling/zero exponents, or
    stray characters.  The empty string is the identity.
    """
    pairs, i = _parse_sequence(text, 0, set(generators), 0)
    if i != len(text):
        raise WordSyntaxError("unmatched ')'", i)
    return Word(_reduce(pairs))


def invert(word: Word) -> Word:
    return word.inverse()


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1."""
    return u * v * u.inverse() * v.inverse()


def evaluate(word: Word, ma, mb):
    """Image of the word under the representation a -> ma, b -> mb.

    The letters multiply left to right: evaluate(parse_word("ab")) = ma @ mb.
    Matrices must be invertible Mat2 values; exact entries stay exact.
    """
    from .sl2 import Mat2

    table = {"a": ma, "b": mb}
    out = Mat2.identity(exact=ma.exact and mb.exact)
    for gen, exp in word.letters:
        out = out @ (table[gen] ** exp)
    return out
