"""Trace polynomials of words in a rank-2 free group.

For any pair (Ma, Mb) of determinant-1 matrices, the trace of the image of a
word w under a -> Ma, b -> Mb is a universal polynomial with integer
coefficients in the three character coordinates

    x = tr(Ma),  y = tr(Mb),  z = tr(Ma Mb).

By Cayley-Hamilton every word's image is p0 I + p1 A + p2 B + p3 AB with
p0..p3 integer polynomials in x, y, z (Fricke, Horowitz).  The compiler
makes one left-to-right pass over the spelling: each letter is a fixed
sparse linear map on (p0, p1, p2, p3), and at the end
tr W = 2 p0 + x p1 + y p2 + z p3.  A compile therefore costs the word's
length times the size of the polynomials it carries, with no recursion.
Each spelling is compiled and memoized under its freely and cyclically
reduced form: that form is a conjugate of the word, and a trace polynomial
is conjugation invariant and unique, so the polynomial is the same.
"""

from __future__ import annotations

from .words import Word, WordSyntaxError, free_reduction

_VARS = "xyz"


class TracePolynomial:
    """Sparse integer polynomial in x, y, z keyed by exponent triples."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def _of_nonzero(cls, terms: dict) -> "TracePolynomial":
        """Wrap a term dict that has no zero coefficients, without a copy."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    @staticmethod
    def constant(c: int) -> "TracePolynomial":
        return TracePolynomial({(0, 0, 0): c})

    @staticmethod
    def variable(name: str) -> "TracePolynomial":
        i = _VARS.index(name)
        key = tuple(1 if j == i else 0 for j in range(3))
        return TracePolynomial({key: 1})

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return TracePolynomial(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, v in _coerce(other).terms.items():
            v = out.get(k, 0) - v
            if v:
                out[k] = v
            else:
                del out[k]
        return TracePolynomial._of_nonzero(out)

    def __rsub__(self, other):
        return _coerce(other) - self

    __radd__ = __add__

    def __neg__(self):
        return TracePolynomial({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        other, out = _coerce(other), {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2, k1 + k2)
                out[key] = out.get(key, 0) + c1 * c2
        return TracePolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = TracePolynomial.constant(other)
        return isinstance(other, TracePolynomial) and self.terms == other.terms

    def __hash__(self):
        # a constant hashes as its integer, since it compares equal to it
        if set(self.terms) <= {(0, 0, 0)}:
            return hash(self.terms.get((0, 0, 0), 0))
        return hash(frozenset(self.terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max(map(sum, self.terms), default=0)

    def evaluate(self, x, y, z):
        """Value at (x, y, z); exact inputs give exact results."""
        if not self.terms:
            return 0 * x
        pows = []
        for v, top in zip((x, y, z), map(max, zip(*self.terms))):
            cache = [1]
            for _ in range(top):
                cache.append(cache[-1] * v)
            pows.append(cache)
        total = 0
        for (i, j, k), c in self.terms.items():
            total += c * pows[0][i] * pows[1][j] * pows[2][k]
        return total

    def derivative(self, var) -> "TracePolynomial":
        i = _VARS.index(var) if isinstance(var, str) else var
        out = {}
        for key, c in self.terms.items():
            if key[i]:
                nk = list(key)
                nk[i] -= 1
                out[tuple(nk)] = c * key[i]
        return TracePolynomial(out)

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        # positive terms first (avoids a leading minus), each group kept in
        # graded-lexicographic descending order
        items = [kv for kv in items if kv[1] > 0] + [kv for kv in items if kv[1] < 0]
        chunks = []
        for mono, c in items:
            body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(_VARS, mono) if e)
            if not body:
                piece = str(abs(c))
            elif abs(c) == 1:
                piece = body
            else:
                piece = f"{abs(c)}*{body}"
            if not chunks:
                chunks.append(piece if c > 0 else "-" + piece)
            else:
                chunks.append((" + " if c > 0 else " - ") + piece)
        return "".join(chunks)

    def __repr__(self):
        return f"TracePolynomial({self})"


def _coerce(p) -> TracePolynomial:
    if isinstance(p, TracePolynomial):
        return p
    if isinstance(p, int):
        return TracePolynomial.constant(p)
    raise TypeError(f"cannot combine TracePolynomial with {type(p).__name__}")


X = TracePolynomial.variable("x")
Y = TracePolynomial.variable("y")
Z = TracePolynomial.variable("z")


# ----------------------------------------------------------------------
# spelling utilities (one character per letter, uppercase = inverse)

_LETTERS = "ABab"


def _reduced(s: str) -> str:
    """The freely and then cyclically reduced form of s, a conjugate of s."""
    s = free_reduction(s)
    while len(s) >= 2 and s[0] == s[-1].swapcase():
        s = s[1:-1]
    return s


# ----------------------------------------------------------------------
# the basis pass: W = p0 I + p1 A + p2 B + p3 AB, multiplied on the right
# by one letter at a time.  Row i of a letter lists the terms
# (coefficient, monomial, j) of the new p_i, each adding coefficient *
# monomial * p_j; they follow from A^2 = xA - I, B^2 = yB - I,
# BA = yA + xB - AB + (z - xy)I, ABA = zA + B - yI, A^-1 = xI - A and
# B^-1 = yI - B.

_STEPS = {
    "a": (((-1, "", 1), (1, "z", 2), (-1, "xy", 2), (-1, "y", 3)),
          ((1, "", 0), (1, "x", 1), (1, "y", 2), (1, "z", 3)),
          ((1, "x", 2), (1, "", 3)),
          ((-1, "", 2),)),
    "A": (((1, "x", 0), (1, "", 1), (-1, "z", 2), (1, "xy", 2), (1, "y", 3)),
          ((-1, "", 0), (-1, "y", 2), (-1, "z", 3)),
          ((-1, "", 3),),
          ((1, "", 2), (1, "x", 3))),
    "b": (((-1, "", 2),),
          ((-1, "", 3),),
          ((1, "", 0), (1, "y", 2)),
          ((1, "", 1), (1, "y", 3))),
    "B": (((1, "y", 0), (1, "", 2)),
          ((1, "y", 1), (1, "", 3)),
          ((-1, "", 0),),
          ((-1, "", 1),)),
}
_TRACE = ((2, "", 0), (1, "x", 1), (1, "y", 2), (1, "z", 3))  # tr W


def _combine(row, p) -> dict:
    """Nonzero terms of the sum of c * monomial * p[j] over the row's
    (c, monomial code, j), in the int encoding of `trace_of_spelling`."""
    (c, shift, j), *rest = row
    out = {m + shift: c * v for m, v in p[j].items()}
    for c, shift, j in rest:
        for m, v in p[j].items():
            m += shift
            v = out.get(m, 0) + c * v
            if v:
                out[m] = v
            else:
                del out[m]
    return out


_MEMO: dict = {}  # reduced spelling -> trace polynomial


def trace_of_spelling(s: str) -> TracePolynomial:
    """Trace polynomial of a word given by its spelling (e.g. 'aaBab').

    Raises WordSyntaxError (a ValueError) on a letter outside a, b, A, B.
    """
    rest = s.lstrip(_LETTERS)
    if rest:
        raise WordSyntaxError(f"unknown letter {rest[0]!r}", len(s) - len(rest))
    key = _reduced(s)
    if key in _MEMO:
        return _MEMO[key]
    # x^i y^j z^k is the int (i base + j) base + k.  Each x or z comes from
    # an a-letter and each y or z from a b-letter: in every term of p_t,
    # i + k (plus one if the basis element holds an A) is at most the
    # number of a-letters read, and j + k (plus one for a B) at most the
    # number of b-letters.  So no exponent exceeds len(key) < base, and
    # multiplying by a monomial is an int add that never carries.
    base = len(key) + 1
    code = {"": 0, "x": base * base, "y": base, "z": 1, "xy": base * base + base}

    def compiled(row):
        return tuple((c, code[mono], j) for c, mono, j in row)

    steps = {ch: tuple(map(compiled, rows)) for ch, rows in _STEPS.items()}
    p = ({0: 1}, {}, {}, {})
    for ch in key:
        p = tuple(_combine(row, p) for row in steps[ch])
    terms = _combine(compiled(_TRACE), p)
    poly = _MEMO[key] = TracePolynomial._of_nonzero(
        {(m // (base * base), m // base % base, m % base): c for m, c in terms.items()})
    return poly


def trace_polynomial(word: Word) -> TracePolynomial:
    """Trace polynomial of a free-group word in x, y, z."""
    return trace_of_spelling(word.spelled())
