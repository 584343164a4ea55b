"""Trace polynomials of words in a rank-2 free group.

For any pair (Ma, Mb) of determinant-1 matrices, the trace of the image of a
word w under a -> Ma, b -> Mb is a universal polynomial with integer
coefficients in the three character coordinates

    x = tr(Ma),  y = tr(Mb),  z = tr(Ma Mb).

The compiler below produces that polynomial by repeated use of the identity
tr(UV) = tr(U) tr(V) - tr(U^-1 V), which rewrites any word in terms of
strictly smaller pieces once the word is rotated to start at a repeated
letter (traces are conjugation invariant, so cyclic rotation is free).
Results are memoized under a canonical key, the least rotation of the
cyclically reduced spelling or of its inverse.

Only the root spelling is freely reduced letter by letter. A split cuts a
key into subwords, which are already reduced, so a child key needs only the
cancellation at its one junction, a cyclic reduction and two least
rotations; a least rotation compares just the rotations that start at a
longest run of the least letter. Each new key is split once, and its entry
costs one sparse product plus one subtraction, built in a single dict. The
power runs a^k give most entries as x*P - Q, whose one-term factor makes
the product an exponent shift. Compiling a word therefore costs about its
polynomial arithmetic.
"""

from __future__ import annotations

import re

from .words import Word, WordSyntaxError

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
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    __radd__ = __add__

    def __neg__(self):
        return TracePolynomial({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        return TracePolynomial._of_nonzero(_product(self.terms, _coerce(other).terms))

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

    def gradient(self):
        return tuple(self.derivative(i) for i in range(3))

    def hessian(self):
        grads = self.gradient()
        return tuple(tuple(g.derivative(j) for j in range(3)) for g in grads)

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


def _product(p: dict, q: dict) -> dict:
    """Nonzero terms of the product of two term dicts.

    A one-term factor shifts the other factor's exponents. The terms come
    in the order of the plain double loop with its zero sums removed, which
    fixes the summation order of a float `evaluate`.
    """
    if len(p) == 1:
        p, q = q, p
    if len(q) == 1:
        ((di, dj, dk), c0), = q.items()
        return {(i + di, j + dj, k + dk): c * c0 for (i, j, k), c in p.items()}
    out = {}
    for (i1, j1, k1), c1 in p.items():
        for (i2, j2, k2), c2 in q.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    for key in [key for key, c in out.items() if not c]:
        del out[key]
    return out


X = TracePolynomial.variable("x")
Y = TracePolynomial.variable("y")
Z = TracePolynomial.variable("z")


# ----------------------------------------------------------------------
# spelling utilities (one character per letter, uppercase = inverse)

_LETTERS = "ABab"  # in sorted order, which breaks ties in `_split`


def _invert_spelling(s: str) -> str:
    return s[::-1].swapcase()


def _reduce_spelling(s: str) -> str:
    out = []
    for ch in s:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _join(u: str, v: str) -> str:
    """Free reduction of u v for freely reduced u and v: only the junction cancels."""
    m, top = 0, min(len(u), len(v))
    while m < top and u[-1 - m] == v[m].swapcase():
        m += 1
    return u[: len(u) - m] + v[m:]


def _cyclic_reduce(s: str) -> str:
    while len(s) >= 2 and s[0] == s[-1].swapcase():
        s = s[1:-1]
    return s


_RUNS = {ch: re.compile(ch + "+") for ch in _LETTERS}


def _least_rotation(s: str) -> str:
    """Lexicographically least rotation of s.

    It starts at a longest cyclic run of the least letter, so only the
    rotations starting at such a run are compared.
    """
    n = len(s)
    if n <= 1:
        return s
    doubled = s + s
    run = max(_RUNS[min(s)].findall(doubled))
    if len(run) >= n:
        return s
    i = doubled.find(run)
    best = doubled[i : i + n]
    i = doubled.find(run, i + 1)
    while 0 <= i < n:
        best = min(best, doubled[i : i + n])
        i = doubled.find(run, i + 1)
    return best


def _key(s: str) -> str:
    """Canonical key of a freely reduced spelling."""
    s = _cyclic_reduce(s)
    return min(_least_rotation(s), _least_rotation(_invert_spelling(s)))


def _canonical_key(s: str) -> str:
    """Least rotation of the cyclically reduced spelling or of its inverse."""
    return _key(_reduce_spelling(s))


_BASE = {
    "": TracePolynomial.constant(2),
    "A": X,
    "B": Y,
    "AB": Z,
    "Ab": X * Y - Z,
}


def _split(key: str):
    """Children (k1, k2, k3) with tr(key) = tr(k1) tr(k2) - tr(k3).

    Splits at the most repeated letter when one repeats; otherwise the key
    has pairwise distinct letters and an inverse letter is eliminated.
    Non-base keys always admit one of the two moves. The pieces are
    subwords of the cyclically reduced key, so they are freely reduced.
    """
    counts = {ch: key.count(ch) for ch in _LETTERS}
    letter = max(counts, key=counts.__getitem__)
    if counts[letter] >= 2:
        i = key.index(letter)
        rot = key[i:] + key[:i]
        j = rot.index(letter, 1)
        w1, w2 = rot[:j], rot[j:]
        return _key(w1), _key(w2), _key(_join(_invert_spelling(w1), w2))
    i = next((p for p, ch in enumerate(key) if ch.isupper()), None)
    if i is None:
        raise AssertionError(f"unsplittable key {key!r} should be a base case")
    rot = key[i:] + key[:i]
    u, rest = rot[0], rot[1:]
    return _key(u), _key(rest), _key(_join(u.swapcase(), rest))


_MEMO: dict = dict(_BASE)


def _trace_step(p, q, r) -> TracePolynomial:
    """p q - r in one dict: the product's, updated in place."""
    terms = _product(p.terms, q.terms)
    for mono, c in r.terms.items():
        v = terms.get(mono, 0) - c
        if v:
            terms[mono] = v
        else:
            del terms[mono]
    return TracePolynomial._of_nonzero(terms)


def trace_of_spelling(s: str) -> TracePolynomial:
    """Trace polynomial of a word given by its spelling (e.g. 'aaBab').

    Raises WordSyntaxError (a ValueError) on a letter outside a, b, A, B.
    """
    rest = s.lstrip(_LETTERS)
    if rest:
        raise WordSyntaxError(f"unknown letter {rest[0]!r}", len(s) - len(rest))
    root = _canonical_key(s)
    if root in _MEMO:
        return _MEMO[root]
    # each entry is [key, children]; children are found on the first visit,
    # and the second visit, after they are compiled, builds the key's entry
    stack = [[root, None]]
    while stack:
        entry = stack[-1]
        key, children = entry
        if children is None:
            if key in _MEMO:
                stack.pop()
                continue
            children = entry[1] = _split(key)
            missing = [[c, None] for c in children if c not in _MEMO]
            if missing:
                stack.extend(missing)
                continue
        k1, k2, k3 = children
        _MEMO[key] = _trace_step(_MEMO[k1], _MEMO[k2], _MEMO[k3])
        stack.pop()
    return _MEMO[root]


def trace_polynomial(word: Word) -> TracePolynomial:
    """Trace polynomial of a free-group word in x, y, z."""
    return trace_of_spelling(word.spelled())


def character_of(ma, mb):
    """Character coordinates (x, y, z) = (tr Ma, tr Mb, tr Ma Mb)."""
    return ma.trace(), mb.trace(), (ma @ mb).trace()
