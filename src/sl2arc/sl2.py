"""2x2 matrices over exact rationals or floats, and the SL(2,R) geometry
used by the rest of the package: trace classification, the Delta = b - c
conjugacy barometer, conjugator solving, eigendata, and translation numbers
of lifted circle maps.

Mat2 is the one 2x2 representation: a NamedTuple, so a matrix is its entry
tuple (a, b, c, d).  + and - are the matrix sum and difference, @ is the
product, and * is not defined.

Exact and float.  The exact family verifier's operations keep exact input
exact: Mat2 arithmetic, classify, same_trace_conjugacy and the exact linear
algebra, which runs in integers.  Its rows are scaled to integers (only an
entry that is neither int nor Fraction becomes a Fraction first) and one
fraction-free elimination, _eliminate, serves every helper: exact_rank
builds no Fraction, exact_nullspace builds Fractions only for its basis
vectors, a row-span test (_RowSpace.outside) none, and exact_rref one per
entry of its result.  Everything numerical is float only: solve_conjugators,
eigen_data and the translation-number readers round exact input to float
once on entry and run on float Mat2s as given.

Conventions.  A matrix [[a, b], [c, d]] acts on directions [x : y] in the
projective line, parametrized by the angle theta in [0, pi) of the vector
(cos theta, sin theta).  Determinant-1 matrices act by orientation-preserving
homeomorphisms of that circle; a path of matrices starting at the identity
lifts the endpoint to the universal cover, and the translation number of the
lift is the asymptotic displacement per iterate in units of pi.  Every lift
step is one closed form, _swept(p, q) = atan2(p x q, p . q): the signed angle
a vector turns through from p to q inside the cone they span.  A linear map
sends a cone of less than half a turn onto one, so along a straight matrix
segment, or across such a cone of directions under one matrix, the lift
gains exactly the angle the images sweep.  One angle track along the path
pins the lift at every prefix, and one directed read, _translations, takes
the integer off it at a fixed direction: translation_numbers_along_arc
reads each prefix at its expanding one, and the locus reads a longitude at
its commuting stable letter's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

_EXACT_TYPES = (int, Fraction)

TRACE_TOL = 1e-9  # |trace| = 2 band, equal traces, the +-identity test in eigen_data
NULLSPACE_TOL = 1e-8  # conjugator nullspace threshold, relative to sigma_1
SINGULAR_DET_TOL = 1e-14  # singular candidate: |det| <= this * max(1, ||G||_F^2)
UNIT_DET_TOL = 1e-12  # determinant 1 in floats: |det - 1| <= this * max(1, max |entry|^2)
CENTRAL_TOL = 1e-6  # Frobenius distance to +-identity for a central lift
MAX_PATH_STEP = 0.5  # largest Frobenius gap between consecutive path matrices


class ContinuityError(ValueError):
    """A matrix path is too coarse to lift its circle action continuously."""


def _fmt_entry(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else str(x.numerator)
    return repr(x)


class Mat2(NamedTuple):
    """Immutable 2x2 matrix [[a, b], [c, d]] with int/Fraction (exact) or
    float entries; it is its own entry tuple (a, b, c, d)."""

    a: object
    b: object
    c: object
    d: object

    @staticmethod
    def identity(exact: bool = True) -> "Mat2":
        return Mat2(1, 0, 0, 1) if exact else Mat2(1.0, 0.0, 0.0, 1.0)

    @property
    def exact(self) -> bool:
        # a float first entry answers before the slower Fraction (ABC) check
        return not isinstance(self[0], float) and all(isinstance(x, _EXACT_TYPES) for x in self)

    def det(self):
        a, b, c, d = self
        return a * d - b * c

    def trace(self):
        return self[0] + self[3]

    def delta(self):
        """The conjugacy barometer Delta = b - c (upper right minus lower left)."""
        return self[1] - self[2]

    def __matmul__(self, o: "Mat2") -> "Mat2":
        a, b, c, d = self
        e, f, g, h = o
        return Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def __add__(self, o: "Mat2") -> "Mat2":
        a, b, c, d = self
        e, f, g, h = o
        return Mat2(a + e, b + f, c + g, d + h)

    def __sub__(self, o: "Mat2") -> "Mat2":
        a, b, c, d = self
        e, f, g, h = o
        return Mat2(a - e, b - f, c - g, d - h)

    def __mul__(self, o):
        return NotImplemented  # no tuple repetition, and no scalar product

    __rmul__ = __mul__

    def scale(self, k) -> "Mat2":
        a, b, c, d = self
        return Mat2(k * a, k * b, k * c, k * d)

    def neg(self) -> "Mat2":
        return self.scale(-1)

    def adjugate(self) -> "Mat2":
        a, b, c, d = self
        return Mat2(d, -b, -c, a)

    def inverse(self) -> "Mat2":
        a, b, c, d = self
        det = a * d - b * c
        if det == 0:
            raise ZeroDivisionError("matrix is singular")
        if self.exact:
            if det == 1:
                return Mat2(d, -b, -c, a)
            return Mat2(Fraction(d, 1) / det, Fraction(-b, 1) / det,
                        Fraction(-c, 1) / det, Fraction(a, 1) / det)
        k = 1.0 / det
        return Mat2(k * d, k * -b, k * -c, k * a)

    def __pow__(self, k: int) -> "Mat2":
        if k < 0:
            return self.inverse() ** (-k)
        out = Mat2.identity(self.exact)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def frobenius(self) -> float:
        return _frobenius(*self)

    def to_float(self) -> "Mat2":
        a, b, c, d = self
        return Mat2(float(a), float(b), float(c), float(d))

    def entries(self) -> tuple:
        return tuple(self)

    def __str__(self) -> str:
        return "[[{}, {}], [{}, {}]]".format(*(_fmt_entry(x) for x in self))


def _frobenius(a, b, c, d) -> float:
    """Frobenius norm of the entries, exact or float, in float.  Each square
    is a product, as in _norms (a float's x ** 2 is not always x * x, and
    raises OverflowError where x * x is inf)."""
    a, b, c, d = float(a), float(b), float(c), float(d)
    return math.sqrt(a * a + b * b + c * c + d * d)


# Stacked forms: arrays whose last axis holds entry rows (a, b, c, d), with
# the operations of the Mat2 forms in the same order, so every bit agrees
# (also _hyperbolic_split and _translations, which call math's hypot and
# atan2 per element, as numpy's round differently).
# Entry (i, j) of X Y is x_i1 y_1j + x_i2 y_2j, as in Mat2.__matmul__.
_LEFT1, _RIGHT1 = np.array((0, 0, 2, 2)), np.array((0, 1, 0, 1))
_LEFT2, _RIGHT2 = np.array((1, 1, 3, 3)), np.array((2, 3, 2, 3))
_ADJUGATE, _ADJUGATE_SIGNS = np.array((3, 1, 2, 0)), np.array((1.0, -1.0, -1.0, 1.0))


def _products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The products X Y of two stacks of entry rows."""
    return x[..., _LEFT1] * y[..., _RIGHT1] + x[..., _LEFT2] * y[..., _RIGHT2]


def _inverses(x: np.ndarray) -> np.ndarray:
    """Mat2.inverse of each float entry row of a (K, 4) stack; a zero
    determinant raises ZeroDivisionError, as there."""
    det = x[:, 0] * x[:, 3] - x[:, 1] * x[:, 2]
    if not det.all():
        raise ZeroDivisionError("matrix is singular")
    return (1.0 / det)[:, None] * (x[:, _ADJUGATE] * _ADJUGATE_SIGNS)


def _norms(x: np.ndarray) -> np.ndarray:
    """_frobenius of each entry row of a stack."""
    s = x * x
    return np.sqrt(s[..., 0] + s[..., 1] + s[..., 2] + s[..., 3])


class MatClass(Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


def _check_unit_det(m: Mat2, exact: bool):
    a, b, c, d = m
    det = a * d - b * c
    if exact:
        if det != 1:
            raise ValueError(f"matrix must have determinant 1, got {det}")
        return
    # a product, not ** 2, which raises OverflowError where top * top is inf;
    # a nan or infinite det passes the tolerance test alone
    top = max(abs(a), abs(b), abs(c), abs(d))
    if not (math.isfinite(det) and abs(det - 1.0) <= UNIT_DET_TOL * max(1.0, top * top)):
        raise ValueError(f"matrix must have determinant 1, got {det}")


def classify(m: Mat2) -> MatClass:
    """Elliptic, parabolic or hyperbolic by |trace| against 2.

    Exact matrices are compared exactly; floats use a band of width
    TRACE_TOL around |trace| = 2 for the parabolic verdict.  A determinant
    that is not 1 (within a tolerance for floats) raises ValueError.
    """
    return _classify(m, m.exact)


def _classify(m: Mat2, exact: bool) -> MatClass:
    """classify, with m.exact decided by the caller."""
    _check_unit_det(m, exact)
    t = abs(m[0] + m[3])
    if exact:
        if t == 2:
            return MatClass.PARABOLIC
        return MatClass.ELLIPTIC if t < 2 else MatClass.HYPERBOLIC
    if abs(t - 2.0) <= TRACE_TOL:
        return MatClass.PARABOLIC
    return MatClass.ELLIPTIC if t < 2.0 else MatClass.HYPERBOLIC


class Conjugacy(Enum):
    """Outcome of the same-trace SL(2,R) conjugacy test."""

    CONJUGATE_DET_PLUS = "ConjugateDetPlus"
    CONJUGATE_DET_MINUS = "ConjugateDetMinus"
    NOT_APPLICABLE = "NotApplicable"


def _sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def same_trace_conjugacy(m1: Mat2, m2: Mat2) -> Conjugacy:
    """Is a determinant +1 or only a determinant -1 conjugator possible?

    For equal-trace non-hyperbolic pairs the sign of Delta = b - c decides:
    same sign means conjugate by determinant +1, opposite signs by
    determinant -1.  Hyperbolic inputs (where both happen at once) and
    central matrices (Delta = 0) return NOT_APPLICABLE.
    """
    t1, t2 = m1.trace(), m2.trace()
    if m1.exact and m2.exact:
        if t1 != t2:
            raise ValueError(f"traces differ: {t1} vs {t2}")
    elif abs(float(t1) - float(t2)) > TRACE_TOL:
        raise ValueError(f"traces differ: {t1} vs {t2}")
    c1, c2 = classify(m1), classify(m2)
    if c1 != c2 or c1 == MatClass.HYPERBOLIC:
        return Conjugacy.NOT_APPLICABLE
    s1, s2 = _sign(m1.delta()), _sign(m2.delta())
    if s1 == 0 or s2 == 0:
        return Conjugacy.NOT_APPLICABLE
    return Conjugacy.CONJUGATE_DET_PLUS if s1 == s2 else Conjugacy.CONJUGATE_DET_MINUS


def conjugation_delta_formulas(p: Mat2, kind: str, value):
    """Delta of P U P^-1 computed by direct product.

    kind 'parabolic': U = [[1, x], [0, 1]] with x = value.
    kind 'elliptic' : U = [[c, -s], [s, c]] with (c, s) = value, or value an
    angle in radians.  Exact inputs (rational P, rational x or rational
    point (c, s) on the unit circle) are computed exactly.

    Closed forms, checked against this function in the tests:
        parabolic: Delta = (a^2 + c^2) x / det(P)
        elliptic : Delta = -(a^2 + b^2 + c^2 + d^2) s / det(P)
    """
    if kind == "parabolic":
        u = Mat2(1, value, 0, 1)
    elif kind == "elliptic":
        if isinstance(value, tuple):
            c, s = value
        else:
            c, s = math.cos(value), math.sin(value)
        u = Mat2(c, -s, s, c)
    else:
        raise ValueError(f"kind must be 'parabolic' or 'elliptic', got {kind!r}")
    return (p @ u @ p.inverse()).delta()


# ----------------------------------------------------------------------
# exact linear algebra in integers (small dense systems only)

def _integer_rows(rows) -> list:
    """Each rational row scaled to integers by the lcm of its denominators.
    int and Fraction entries are read through .numerator and .denominator;
    any other entry (a float, say) becomes a Fraction first."""
    out = []
    for row in rows:
        row = [x if isinstance(x, _EXACT_TYPES) else Fraction(x) for x in row]
        den = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _eliminate(m: list) -> list:
    """Fraction-free Gauss-Jordan (Bareiss) elimination of the integer rows
    of the list m, in place; returns the pivot columns.

    After a pivot step every entry is a minor of the input, so the division
    by the previous pivot is exact.  Rows are replaced, never written into,
    so m may share its rows with another list.  At the end row i, for i
    below the rank, holds the pivot of column pivots[i] and zeros in the
    other pivot columns, every pivot equals the last one, and the rows past
    the rank are zero.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r, prev = 0, 1
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p, top = m[r][col], m[r]
        for i in range(nrows):
            if i != r:
                f = m[i][col]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return pivots


class _RowSpace:
    """A rational matrix's rows scaled to integers and eliminated once:
    its rank, its nullspace and each row-span test read that elimination."""

    def __init__(self, rows):
        self.rows = _integer_rows(rows)
        self.eliminated = list(self.rows)
        self.pivots = _eliminate(self.eliminated)
        self.rank = len(self.pivots)

    def nullspace(self) -> list:
        """Basis of the right nullspace as tuples of Fractions, one per
        column without a pivot."""
        ncols = len(self.rows[0])
        basis = []
        for fc in (c for c in range(ncols) if c not in self.pivots):
            v = [Fraction(0)] * ncols
            v[fc] = Fraction(1)
            for row, pc in zip(self.eliminated, self.pivots):
                v[pc] = Fraction(-row[fc], row[pc])
            basis.append(tuple(v))
        return basis

    def outside(self, vector) -> bool:
        """Is vector not a rational combination of the rows?  One
        elimination of the rows with vector below them."""
        return len(_eliminate(self.rows + _integer_rows([vector]))) > self.rank


def exact_rref(rows):
    """Reduced row echelon form over Fraction.  Returns (rref, pivot_cols).

    The rows are eliminated in integers (_eliminate), and one Fraction per
    entry normalizes the pivot rows at the end; the rank, nullspace and
    row-span helpers read the integer elimination directly.
    """
    m = _integer_rows(rows)
    pivots = _eliminate(m)
    ncols = len(m[0]) if m else 0
    rref = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    return rref + [[Fraction(0)] * ncols for _ in range(len(m) - len(pivots))], pivots


def exact_rank(rows) -> int:
    """Rank over the rationals; int and Fraction rows build no Fraction."""
    return len(_eliminate(_integer_rows(rows)))


def exact_nullspace(rows):
    """Basis of the right nullspace as tuples of Fractions."""
    return _RowSpace(rows).nullspace() if rows else []


# ----------------------------------------------------------------------
# conjugator solving

@dataclass(slots=True)
class ConjugatorResult:
    """Joint solution data for G A_i = B_i G over all supplied pairs.

    det_sign is +1 or -1 for an invertible candidate scaled to |det| = 1,
    and 0 when every real solution is singular (or none exists).
    """

    nullspace_dim: int
    candidate: Mat2 | None
    det_sign: int
    residual: float  # _relation_residuals of the candidate over the pairs

    @property
    def det_sign_label(self) -> str:
        return {1: "+1", -1: "-1", 0: "singular"}[self.det_sign]


# Entry (i, j) of G A - B G, row 2i + j, has A terms a_lj at g_il (column
# 2i + l) and B terms b_ik at g_kj (column 2k + j); the tables give, per row
# and column, the index of that entry in (x11, x12, x21, x22, 0).
_A_TERMS = np.array(((0, 2, 4, 4), (1, 3, 4, 4), (4, 4, 0, 2), (4, 4, 1, 3)))
_B_TERMS = np.array(((0, 4, 1, 4), (4, 0, 4, 1), (2, 4, 3, 4), (4, 2, 4, 3)))


def _intertwiner_rows(pairs: np.ndarray) -> np.ndarray:
    """Rows of the linear systems (G A - B G) = 0 in g = (g11, g12, g21, g22)
    of a (K, P, 2, 4) float stack of K lists of P pairs, as a (K, 4P, 4)
    array: four rows per pair, one for each entry (i, j) of G A - B G.

    Each entry is 0 plus its A terms minus its B terms, so the rows keep the
    sign of an exact zero.
    """
    k, p = pairs.shape[:2]
    entries = np.zeros((k, p, 2, 5))
    entries[..., :4] = pairs
    rows = (0.0 + entries[:, :, 0, _A_TERMS]) - entries[:, :, 1, _B_TERMS]
    return rows.reshape(k, 4 * p, 4)


def _max_abs(values) -> float:
    """The largest |x|, or the first NaN (Python's max skips a NaN that is
    not its first argument, which would accept a poisoned value)."""
    top = 0.0
    for x in values:
        x = abs(x)
        if x > top:
            top = x
        elif x != x:
            return x
    return top


def solve_conjugator(pairs) -> ConjugatorResult:
    """Solve G A_i = B_i G jointly over all pairs, in floats: the one-list
    stack of solve_conjugators."""
    return solve_conjugators([pairs])[0]


def solve_conjugators(pair_lists) -> list:
    """Solve G A_i = B_i G jointly over the pairs of each list of a stack, in
    floats, with one SVD and one finishing pass for the whole stack.

    The stack is K lists of P pairs each, P at least one, with finite
    entries: nested lists of Mat2 pairs, exact or float, or a (K, P, 2, 4)
    array such as the view of arc's block of word images.  It is converted
    to one float array once, which rounds exact entries as Mat2.to_float
    does, and the finiteness check comes before the rows, whose inf - inf
    would warn.  The solution space of a list is the nullspace of its
    intertwiner rows under an SVD with threshold NULLSPACE_TOL times its
    largest singular value.  Its candidate is the one null vector when the
    space is a line, and else _spanning_candidate's pick.  The finishing
    pass takes every candidate at once, in the operations of the Mat2
    forms: it scales the candidate to |det| = 1 when it is invertible, and
    keeps an unscaled witness with det_sign = 0 when it is singular, then
    measures the relation residual.
    """
    if not len(pair_lists):
        return []
    try:
        pairs = np.array(pair_lists, dtype=float)  # numpy rejects a ragged stack
    except ValueError:
        pairs = np.empty(0)
    if pairs.ndim != 4 or pairs.shape[2:] != (2, 4) or not pairs.shape[1]:
        raise ValueError("every list needs the same number of pairs, at least one")
    if not np.isfinite(pairs).all():
        raise ValueError("pair entries must be finite")
    _, sig, vt = np.linalg.svd(_intertwiner_rows(pairs), full_matrices=False)
    null = sig <= NULLSPACE_TOL * np.where(sig[:, :1] > 0, sig[:, :1], 1.0)
    dims = null.sum(axis=1).tolist()
    g = vt[np.arange(len(pairs)), null.argmax(axis=1)]
    for k, dim in enumerate(dims):
        if dim > 1:
            g[k] = _spanning_candidate([Mat2._make(row) for row in vt[k, null[k]].tolist()])
    # A singular candidate divides by a zero determinant in the discarded
    # branch of the scaling, and huge entries overflow into a NaN residual.
    with np.errstate(all="ignore"):
        det = g[:, 0] * g[:, 3] - g[:, 1] * g[:, 2]
        norm = _norms(g)
        singular = np.abs(det) <= SINGULAR_DET_TOL * np.maximum(1.0, norm * norm)
        g = np.where(singular[:, None], g, g * (1.0 / np.sqrt(np.abs(det)))[:, None])
        residuals = _relation_residuals(g, pairs)
    signs = np.where(singular, 0, np.where(det > 0, 1, -1)).tolist()
    return [ConjugatorResult(dim, Mat2._make(row), sign, residual) if dim
            else ConjugatorResult(0, None, 0, 0.0)
            for dim, row, sign, residual in zip(dims, g.tolist(), signs, residuals.tolist())]


def _spanning_candidate(basis: list) -> Mat2:
    """The candidate in a solution space of dimension >= 2, given its basis.

    Prefer the identity when it lies near the span (centralizer-style
    inputs); otherwise hunt for an invertible combination.  If every g_i and
    g_i +- g_j is singular, the determinant form
    B(g_i, g_j) = (det(g_i + g_j) - det(g_i - g_j)) / 4 vanishes on the
    whole space, and basis[0] is the singular witness.
    """
    coords = np.array(basis)
    proj = coords.T @ (coords @ np.array([1.0, 0.0, 0.0, 1.0]))
    if np.linalg.norm(proj) > 0.5:
        g = Mat2(*(proj / np.linalg.norm(proj)).tolist())
        if abs(g.det()) > SINGULAR_DET_TOL:
            return g
    candidates = list(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            candidates.append(basis[i] + basis[j])
            candidates.append(basis[i] - basis[j])
    best = max(candidates, key=lambda g: abs(g.det()))
    return basis[0] if abs(best.det()) <= SINGULAR_DET_TOL else best


def _relation_residuals(g: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The relation residual of each candidate row of g (K, 4) over its list
    of pairs (K, P, 2, 4), P at least one:

        max over pairs of ||G A - B G||_F / max(1, ||G||_F max(||A||_F, ||B||_F)),

    relative to the operator scale, so that large letters and large images
    are not mistaken for failed relations.  A NaN in any pair reads NaN.
    The norms of finite entries are never NaN (only an overflowed gap over
    an overflowed scale is), so np.maximum picks as Python's max would."""
    a, b, g = pairs[:, :, 0], pairs[:, :, 1], g[:, None]
    gap = _norms(_products(g, a) - _products(b, g))
    scale = _norms(g) * np.maximum(_norms(a), _norms(b))
    return (gap / np.maximum(1.0, scale)).max(axis=1)


# ----------------------------------------------------------------------
# eigendata

def _canon_float_dir(x: float, y: float):
    n = math.hypot(x, y)
    if n == 0:
        raise ArithmeticError("zero eigenvector")
    x, y = x / n, y / n
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return (x, y)


def _eigvec(a: float, b: float, c: float, d: float, lam: float):
    """Kernel vector of [[a - lam, b], [c, d - lam]], from its fatter row."""
    r1 = (a - lam, b)
    r2 = (c, d - lam)
    v = (-r1[1], r1[0]) if math.hypot(*r1) >= math.hypot(*r2) else (-r2[1], r2[0])
    return _canon_float_dir(*v)


def eigen_data(m: Mat2):
    """Eigenvalue/direction pairs for non-elliptic determinant-1 matrices,
    in floats; an exact matrix is rounded to float once on entry.

    Hyperbolic: two pairs, the eigenvalue of larger magnitude first, then
    its reciprocal.  Parabolic (|trace| within TRACE_TOL of 2): one pair
    with eigenvalue +-1.0; for a matrix within TRACE_TOL of +-identity the
    fixed direction is arbitrary and (1.0, 0.0) is returned.  Elliptic
    input raises ValueError, and a hyperbolic trace whose square overflows
    raises ArithmeticError.  Directions are unit vectors with first nonzero
    component positive.
    """
    m = m.to_float() if m.exact else m
    return _eigen_pairs(m, _classify(m, False))


def _eigen_pairs(m: Mat2, cls: MatClass):
    """eigen_data of the float matrix m, already classified as cls."""
    if cls == MatClass.ELLIPTIC:
        raise ValueError("elliptic matrices have no real fixed direction")
    tr = m.trace()
    if cls == MatClass.PARABOLIC:
        lam = 1.0 if tr > 0 else -1.0
        if _frobenius(m.a - lam, m.b, m.c, m.d - lam) <= TRACE_TOL:
            return ((lam, (1.0, 0.0)),)
        return ((lam, _eigvec(*m, lam)),)
    if (disc := tr * tr - 4.0) == math.inf:
        raise ArithmeticError(f"eigenvalues overflow: the square of the trace {tr} is inf")
    # the larger |eigenvalue| without cancellation, and the other as its
    # reciprocal (det 1), which (tr - root) / 2 would lose to cancellation
    lam1 = (tr + math.copysign(math.sqrt(disc), tr)) / 2
    lam2 = 1.0 / lam1
    return ((lam1, _eigvec(*m, lam1)), (lam2, _eigvec(*m, lam2)))


def _hypots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """math.hypot of each pair of entries (np.hypot rounds differently)."""
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, len(x))


def _eigvecs(a, b, c, d, lam) -> tuple:
    """_eigvec of each row of the entry columns a, b, c, d at lam, as the
    columns x, y of the directions, and where its norm is not 0 (where
    _eigvec does not raise)."""
    p, q = a - lam, d - lam
    first = _hypots(p, b) >= _hypots(c, q)
    x, y = np.where(first, -b, -q), np.where(first, p, c)
    n = _hypots(x, y)
    x, y = x / n, y / n
    flip = (x < 0) | ((x == 0) & (y < 0))
    return np.where(flip, -x, x), np.where(flip, -y, y), n != 0


def _hyperbolic_split(m: np.ndarray) -> tuple:
    """eigen_data of each float entry row of a (K, 4) stack, in the
    operations of _check_unit_det, _classify, _eigen_pairs and _eigvec, for
    the rows it splits into two pairs: (lam1, lam2, first directions, second
    directions, split), the directions as (K, 2) arrays.  split is False
    exactly where eigen_data raises or returns one pair, and the other
    entries of such a row mean nothing."""
    a, b, c, d = m.T
    with np.errstate(all="ignore"):
        det = a * d - b * c
        top = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
        tr = a + d
        t = np.abs(tr)
        split = (np.isfinite(det) & (np.abs(det - 1.0) <= UNIT_DET_TOL * np.maximum(1.0, top * top))
                 & ~(np.abs(t - 2.0) <= TRACE_TOL) & ~(t < 2.0))
        disc = tr * tr - 4.0
        lam1 = (tr + np.copysign(np.sqrt(disc), tr)) / 2
        lam2 = 1.0 / lam1
        x1, y1, found1 = _eigvecs(a, b, c, d, lam1)
        x2, y2, found2 = _eigvecs(a, b, c, d, lam2)
    split &= (disc != math.inf) & found1 & found2
    return lam1, lam2, np.stack((x1, y1), 1), np.stack((x2, y2), 1), split


# ----------------------------------------------------------------------
# circle lifts and translation numbers

BASE_DIRECTION = 0.5736470143025761  # fixed generic base angle in (0, pi)


def _dir_angle(x: float, y: float) -> float:
    """Angle in [0, pi) of the direction [x : y]."""
    t = math.atan2(y, x)
    if t < 0.0:
        t += math.pi
    if t >= math.pi:
        t -= math.pi
    return t


def _act(mat, v: tuple) -> tuple:
    """The float matrix mat applied to the vector v."""
    a, b, c, d = mat
    return a * v[0] + b * v[1], c * v[0] + d * v[1]


def _swept(p: tuple, q: tuple) -> float:
    """The signed angle, in (-pi, pi), that a vector turns through from p to
    q inside the cone they span: atan2(p x q, p . q).  Opposite vectors, or
    a zero one, span no such cone and raise ContinuityError."""
    cross, dot = p[0] * q[1] - p[1] * q[0], p[0] * q[0] + p[1] * q[1]
    if cross == 0.0 and dot <= 0.0:
        raise ContinuityError("image direction collapsed along the path")
    return math.atan2(cross, dot)


class PathTranslation(NamedTuple):
    value: float
    elliptic: bool


def _tracked_angles(mats, base_theta: float) -> list:
    """Lifted angle of each path matrix applied to the base direction u,
    tracked continuously from the first; consecutive matrices must be closer
    than MAX_PATH_STEP in Frobenius distance.  On the straight segment from M
    to N the image of u runs straight from M u to N u, so the track gains
    exactly _swept(M u, N u); a segment through 0 raises ContinuityError."""
    u = (math.cos(base_theta), math.sin(base_theta))
    image = _act(mats[0], u)
    if image == (0.0, 0.0):
        raise ArithmeticError("direction collapsed; matrix is singular")
    alpha = _dir_angle(*image)
    angles = [alpha + math.pi * round((base_theta - alpha) / math.pi)]
    for prev, cur in zip(mats, mats[1:]):
        if math.dist(prev, cur) >= MAX_PATH_STEP:
            raise ContinuityError("consecutive path matrices are too far apart")
        nxt = _act(cur, u)
        angles.append(angles[-1] + _swept(image, nxt))
        image = nxt
    return angles


def _near_central(rows) -> np.ndarray:
    """Which float entry rows (a, b, c, d) on the last axis of an array, or
    of one Mat2, lie within CENTRAL_TOL of +-identity (Frobenius), in the
    operations of _frobenius."""
    a, b, c, d = np.moveaxis(np.asarray(rows, dtype=float), -1, 0)
    with np.errstate(all="ignore"):
        bb, cc = b * b, c * c
        p, q, r, s = a - 1.0, d - 1.0, a + 1.0, d + 1.0
        return ((np.sqrt(p * p + bb + cc + q * q) <= CENTRAL_TOL)
                | (np.sqrt(r * r + bb + cc + s * s) <= CENTRAL_TOL))


def _translations(mats: np.ndarray, alphas: np.ndarray, base_theta: float,
                  directions: np.ndarray) -> np.ndarray:
    """Translation number, in units of pi, of the lift of the circle map of
    each row of a (K, 4) float stack whose value at base_theta is the row's
    tracked angle alpha, read at the row's (K, 2) direction.

    A central row reads the integer off alpha.  Any other row's direction is
    taken, unchecked, to be a fixed direction of its circle map M.  With u
    the unit vector at base_theta and v that direction's representative with
    u . v >= 0, the angle from u to v is _swept(u, v), less than half a
    turn; M maps that cone onto the cone from M u to M v, also of less than
    half a turn, so the lift gains exactly _swept(M u, M v) there, for
    either sign of det(M).  The integer is the lift at v less v's angle.

    The first row that cannot be read raises, checked in this order: a
    collapsed cone raises ContinuityError, as _swept does; a read that is
    not finite raises round's ValueError or OverflowError; a read more than
    1e-6 from its integer raises ArithmeticError.
    """
    a, b, c, d = mats.T
    ux, uy = math.cos(base_theta), math.sin(base_theta)
    x, y = directions.T
    central = _near_central(mats)
    with np.errstate(all="ignore"):
        flip = ~(ux * x + uy * y >= 0.0)
        vx, vy = np.where(flip, -x, x), np.where(flip, -y, y)
        mux, muy = a * ux + b * uy, c * ux + d * uy
        mvx, mvy = a * vx + b * vy, c * vx + d * vy
        cross1, dot1 = mux * mvy - muy * mvx, mux * mvx + muy * mvy
        cross2, dot2 = ux * vy - uy * vx, ux * vx + uy * vy
        offset = alphas - base_theta
        k_float = (offset + np.fromiter(map(math.atan2, cross1.tolist(), dot1.tolist()), float, len(a))
                   - np.fromiter(map(math.atan2, cross2.tolist(), dot2.tolist()), float, len(a))) / math.pi
        k_float = np.where(central, offset / math.pi, k_float)
        k = np.rint(k_float)
        collapsed = ~central & (((cross1 == 0.0) & (dot1 <= 0.0)) | ((cross2 == 0.0) & (dot2 <= 0.0)))
        missed = np.where(central, ~np.isfinite(k_float), ~(np.abs(k_float - k) <= 1e-6))
    if (unread := collapsed | missed).any():
        i = int(unread.argmax())
        if collapsed[i]:
            raise ContinuityError("image direction collapsed along the path")
        value = k_float[i].item()
        round(value)  # a read that is not finite raises here
        raise ArithmeticError(f"translation number {value} is not close to an integer")
    return k + 0.0  # float(round(x)) is never -0.0


def translation_numbers_along_arc(mats, base_theta: float = BASE_DIRECTION) -> list:
    """Translation number of the lifted endpoint of every prefix of a matrix
    path, read off one shared angle track.

    The path should start at the identity (or at a matrix whose lift is
    declared to be translation-free); consecutive matrices must be closer
    than MAX_PATH_STEP in Frobenius distance, or ContinuityError is raised.
    Central prefixes, and the others at their expanding direction, are read
    in one _translations call; the earliest prefix that fails raises.

    An elliptic prefix rotates with no fixed direction: with trace
    2 cos(phi0), phi0 in (0, pi), it is conjugate by a positive-determinant
    matrix to a rotation by +-phi0, positive exactly when b < 0 (or c > 0
    when b = 0), and the integer part is pinned by the tracked angle, since
    all displacements of a fixed-point-free circle map lie in one open
    length pi band together with the translation number.  Its value is a
    non-integer real number, flagged as elliptic.
    """
    if not mats:
        return []
    mats = [m.to_float() if m.exact else m for m in mats]
    alphas = _tracked_angles(mats, base_theta)
    rows, out, failure = [], [], None
    for m, alpha, central in zip(mats, alphas, _near_central(mats).tolist()):
        try:
            if central:
                direction = (1.0, 0.0)  # a central read ignores its direction
            elif (cls := _classify(m, False)) != MatClass.ELLIPTIC:
                direction = _eigen_pairs(m, cls)[0][1]
            else:
                a, b, c, d = m
                phi0 = math.acos(max(-1.0, min(1.0, (a + d) / 2.0)))
                positive = b < 0.0 or (b == 0.0 and c > 0.0)
                frac = phi0 / math.pi if positive else 1.0 - phi0 / math.pi
                out.append(PathTranslation(math.floor((alpha - base_theta) / math.pi) + frac, True))
                continue
        except (ArithmeticError, ValueError) as exc:  # raised once the prefixes before it are read
            failure = exc
            break
        rows.append((*m, alpha, *direction))
        out.append(None)
    rows = np.array(rows).reshape(-1, 7)
    values = iter(_translations(rows[:, :4], rows[:, 4], base_theta, rows[:, 5:]).tolist())
    if failure is not None:
        raise failure
    return [PathTranslation(next(values), False) if t is None else t for t in out]
