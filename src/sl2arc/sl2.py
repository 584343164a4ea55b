"""2x2 matrices over exact rationals or floats, and the SL(2,R) geometry
used by the rest of the package: trace classification, the Delta = b - c
conjugacy barometer, conjugator solving, eigendata, and translation numbers
of lifted circle maps.

Mat2 is the one 2x2 representation: a NamedTuple, so a matrix is its entry
tuple (a, b, c, d).  + and - are the matrix sum and difference, @ is the
product, and * is not defined.  The path tracker runs on float Mat2s as
given and makes exact input float once.

Conventions.  A matrix [[a, b], [c, d]] acts on directions [x : y] in the
projective line, parametrized by the angle theta in [0, pi) of the vector
(cos theta, sin theta).  Determinant-1 matrices act by orientation-preserving
homeomorphisms of that circle; a path of matrices starting at the identity
lifts the endpoint to the universal cover, and the translation number of the
lift is the asymptotic displacement per iterate in units of pi.  One angle
track along the path pins the lift at every prefix:
translation_numbers_along_arc reads each prefix off it in closed form, and
translation_number_by_iteration is the iterate-limit reference for the
endpoint.
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
        a, b, c, d = self
        return (isinstance(a, _EXACT_TYPES) and isinstance(b, _EXACT_TYPES)
                and isinstance(c, _EXACT_TYPES) and isinstance(d, _EXACT_TYPES))

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

    def max_abs(self) -> float:
        return max(abs(float(x)) for x in self)

    def to_float(self) -> "Mat2":
        a, b, c, d = self
        return Mat2(float(a), float(b), float(c), float(d))

    def entries(self) -> tuple:
        return tuple(self)

    def __str__(self) -> str:
        return "[[{}, {}], [{}, {}]]".format(*(_fmt_entry(x) for x in self))


def _frobenius(a, b, c, d) -> float:
    """Frobenius norm of the entries, exact or float, in float."""
    return math.sqrt(float(a) ** 2 + float(b) ** 2 + float(c) ** 2 + float(d) ** 2)


def frobenius_distance(m: Mat2, n: Mat2) -> float:
    return (m - n).frobenius()


class MatClass(Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


def _check_unit_det(m: Mat2):
    det = m.det()
    if m.exact:
        if det != 1:
            raise ValueError(f"matrix must have determinant 1, got {det}")
    elif abs(det - 1.0) > 1e-12 * max(1.0, m.max_abs() ** 2):
        raise ValueError(f"matrix must have determinant 1, got {det}")


def classify(m: Mat2) -> MatClass:
    """Elliptic, parabolic or hyperbolic by |trace| against 2.

    Exact matrices are compared exactly; floats use a band of width
    TRACE_TOL around |trace| = 2 for the parabolic verdict.
    """
    _check_unit_det(m)
    t = m.trace()
    if m.exact:
        t = abs(t)
        if t == 2:
            return MatClass.PARABOLIC
        return MatClass.ELLIPTIC if t < 2 else MatClass.HYPERBOLIC
    t = abs(float(t))
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


def rotation(theta: float) -> Mat2:
    """R(theta) = [[cos, -sin], [sin, cos]]; note Delta(R) = -2 sin(theta)."""
    return Mat2(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta))


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
# exact linear algebra over Fractions (small dense systems only)

def exact_rref(rows):
    """Reduced row echelon form over Fraction.  Returns (rref, pivot_cols)."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return m, pivots


def exact_rank(rows) -> int:
    return len(exact_rref(rows)[1])


def exact_nullspace(rows):
    """Basis of the right nullspace as tuples of Fractions."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = exact_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(tuple(v))
    return basis


# ----------------------------------------------------------------------
# conjugator solving

@dataclass
class ConjugatorResult:
    """Joint solution data for G A_i = B_i G over all supplied pairs.

    det_sign is +1 or -1 for an invertible candidate scaled to |det| = 1,
    and 0 when every real solution is singular (or none exists).
    """

    nullspace_dim: int
    candidate: Mat2 | None
    det_sign: int
    residual: float  # relation_residual(candidate, pairs)

    @property
    def det_sign_label(self) -> str:
        return {1: "+1", -1: "-1", 0: "singular"}[self.det_sign]


def _intertwiner_rows(pairs):
    """Rows of the linear system (G A - B G) = 0 in g = (g11, g12, g21, g22),
    four per pair, one for each entry (i, j) of G A - B G.

    Each entry is summed from 0, the A terms before the B terms, so float
    rows keep the sign of an exact zero.
    """
    rows = []
    for a, b in pairs:
        a11, a12, a21, a22 = a.entries()
        b11, b12, b21, b22 = b.entries()
        rows += ((0 + a11 - b11, 0 + a21, 0 - b12, 0),
                 (0 + a12, 0 + a22 - b11, 0, 0 - b12),
                 (0 - b21, 0, 0 + a11 - b22, 0 + a21),
                 (0, 0 - b21, 0 + a12, 0 + a22 - b22))
    return rows


def _det_bilinear(x: Mat2, y: Mat2):
    """B(X, Y) with B(X, X) = det X; polarization of the determinant form."""
    return ((x + y).det() - x.det() - y.det()) / 2


def relation_residual(g: Mat2, pairs) -> float:
    """max over pairs of ||G A - B G||_F / max(1, ||G||_F max(||A||_F, ||B||_F)).

    Relative to the operator scale, so that large letters and large images
    are not mistaken for failed relations.
    """
    g11, g12, g21, g22 = g.entries()
    g_norm = _frobenius(g11, g12, g21, g22)
    worst = []
    for a, b in pairs:
        a11, a12, a21, a22 = a.entries()
        b11, b12, b21, b22 = b.entries()
        gap = _frobenius((g11 * a11 + g12 * a21) - (b11 * g11 + b12 * g21),
                         (g11 * a12 + g12 * a22) - (b11 * g12 + b12 * g22),
                         (g21 * a11 + g22 * a21) - (b21 * g11 + b22 * g21),
                         (g21 * a12 + g22 * a22) - (b21 * g12 + b22 * g22))
        scale = max(_frobenius(a11, a12, a21, a22), _frobenius(b11, b12, b21, b22))
        worst.append(gap / max(1.0, g_norm * scale))
    return max(worst)


def solve_conjugator(pairs) -> ConjugatorResult:
    """Solve G A_i = B_i G jointly over all pairs.

    Exact pairs go through Fraction elimination, float pairs through an SVD
    with nullspace threshold NULLSPACE_TOL times the largest singular value.
    The candidate is scaled to |det| = 1 when an invertible solution exists;
    when the whole solution space consists of singular matrices the result
    reports det_sign = 0 and an unscaled witness.
    """
    if not pairs:
        raise ValueError("at least one pair is required")
    exact = all(a.exact and b.exact for a, b in pairs)
    rows = _intertwiner_rows(pairs)
    if exact:
        basis = [Mat2(*v) for v in exact_nullspace(rows)]
    else:
        _, sig, vt = np.linalg.svd(np.array(rows, dtype=float))
        cutoff = NULLSPACE_TOL * (sig[0] if len(sig) and sig[0] > 0 else 1.0)
        basis = [Mat2(*vt[i].tolist()) for i in range(4) if i >= len(sig) or sig[i] <= cutoff]
    dim = len(basis)
    if dim == 0:
        return ConjugatorResult(0, None, 0, 0.0)

    def finish(g: Mat2) -> ConjugatorResult:
        det = g.det()
        if (exact and det == 0) or (not exact and abs(float(det)) <= SINGULAR_DET_TOL * max(1.0, g.frobenius() ** 2)):
            return ConjugatorResult(dim, g, 0, relation_residual(g, pairs))
        s = 1 if det > 0 else -1
        if exact:
            root = _exact_sqrt(abs(Fraction(det)))
            if root is not None:
                scaled = g.scale(1 / root)
                return ConjugatorResult(dim, scaled, s, relation_residual(scaled, pairs))
        scaled = g.scale(1.0 / math.sqrt(abs(float(det))))
        return ConjugatorResult(dim, scaled, s, relation_residual(scaled, pairs))

    if dim == 1:
        return finish(basis[0])

    # Higher-dimensional solution space.  Prefer the identity when it lies in
    # the span (centralizer-style inputs); otherwise hunt for an invertible
    # combination, and report singular only if the det form vanishes on the
    # whole space.
    ident = Mat2.identity(exact)
    if exact:
        if exact_rank([*(g.entries() for g in basis), ident.entries()]) == dim:
            return finish(ident)
    else:
        coords = np.array([[float(x) for x in g.entries()] for g in basis])
        proj = coords.T @ (coords @ np.array([1.0, 0.0, 0.0, 1.0]))
        if np.linalg.norm(proj) > 0.5:
            g = Mat2(*(proj / np.linalg.norm(proj)).tolist())
            if abs(g.det()) > SINGULAR_DET_TOL:
                return finish(g)
    candidates = list(basis)
    for i in range(dim):
        for j in range(i + 1, dim):
            candidates.append(basis[i] + basis[j])
            candidates.append(basis[i] - basis[j])
    best = max(candidates, key=lambda g: abs(float(g.det())))
    if (exact and best.det() == 0) or (not exact and abs(float(best.det())) <= SINGULAR_DET_TOL):
        form_zero = all(
            _det_bilinear(basis[i], basis[j]) == 0 if exact else abs(float(_det_bilinear(basis[i], basis[j]))) <= SINGULAR_DET_TOL
            for i in range(dim)
            for j in range(i, dim)
        )
        if form_zero:
            return ConjugatorResult(dim, basis[0], 0, relation_residual(basis[0], pairs))
    return finish(best)


# ----------------------------------------------------------------------
# eigendata

def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _exact_sqrt(f: Fraction):
    f = Fraction(f)
    if f < 0:
        return None
    if _is_square(f.numerator) and _is_square(f.denominator):
        return Fraction(math.isqrt(f.numerator), math.isqrt(f.denominator))
    return None


def _canon_exact_dir(v):
    """Scale an exact 2-vector to coprime integers, first nonzero positive."""
    x, y = Fraction(v[0]), Fraction(v[1])
    den = math.lcm(x.denominator, y.denominator)
    xi, yi = x.numerator * (den // x.denominator), y.numerator * (den // y.denominator)
    g = math.gcd(xi, yi)
    if g:
        xi, yi = xi // g, yi // g
    if xi < 0 or (xi == 0 and yi < 0):
        xi, yi = -xi, -yi
    return (xi, yi)


def _canon_float_dir(x: float, y: float):
    n = math.hypot(x, y)
    if n == 0:
        raise ArithmeticError("zero eigenvector")
    x, y = x / n, y / n
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return (x, y)


def _eigvec(m: Mat2, lam, exact: bool):
    """Kernel vector of (M - lam I), picking the numerically fatter row."""
    r1 = (m.a - lam, m.b)
    r2 = (m.c, m.d - lam)
    v1 = (-r1[1], r1[0])
    v2 = (-r2[1], r2[0])
    if exact:
        v = v1 if (v1[0] != 0 or v1[1] != 0) else v2
        return _canon_exact_dir(v)
    n1 = math.hypot(float(r1[0]), float(r1[1]))
    n2 = math.hypot(float(r2[0]), float(r2[1]))
    v = v1 if n1 >= n2 else v2
    return _canon_float_dir(float(v[0]), float(v[1]))


def eigen_data(m: Mat2):
    """Eigenvalue/direction pairs for non-elliptic determinant-1 matrices.

    Hyperbolic: two pairs, the eigenvalue of larger magnitude first.
    Parabolic: one pair (for +-identity the fixed direction is arbitrary and
    (1, 0) is returned).  Elliptic input raises ValueError.  Directions are
    canonical projective representatives: exact ones as coprime integer
    pairs, float ones as unit vectors, first nonzero component positive.
    """
    cls = classify(m)
    if cls == MatClass.ELLIPTIC:
        raise ValueError("elliptic matrices have no real fixed direction")
    exact = m.exact
    tr = m.trace()
    if cls == MatClass.PARABOLIC:
        if exact:
            lam = Fraction(tr, 2)
            lam = int(lam) if lam.denominator == 1 else lam
        else:
            lam = 1.0 if float(tr) > 0 else -1.0
        shifted = m - Mat2.identity(exact).scale(lam)
        if (exact and all(x == 0 for x in shifted.entries())) or (not exact and shifted.frobenius() <= TRACE_TOL):
            return ((lam, (1, 0) if exact else (1.0, 0.0)),)
        return ((lam, _eigvec(m, lam, exact)),)
    if exact:
        disc = Fraction(tr) ** 2 - 4
        root = _exact_sqrt(disc)
        if root is not None:
            lam1 = (Fraction(tr) + root) / 2
            lam2 = (Fraction(tr) - root) / 2
            if abs(lam1) < abs(lam2):
                lam1, lam2 = lam2, lam1
            out = []
            for lam in (lam1, lam2):
                lam_n = int(lam) if lam.denominator == 1 else lam
                out.append((lam_n, _eigvec(m, lam, True)))
            return tuple(out)
        m = m.to_float()
    tr = float(m.trace())
    root = math.sqrt(tr * tr - 4.0)
    lam1, lam2 = (tr + root) / 2, (tr - root) / 2
    if abs(lam1) < abs(lam2):
        lam1, lam2 = lam2, lam1
    return ((lam1, _eigvec(m, lam1, False)), (lam2, _eigvec(m, lam2, False)))


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


def _image(mat, theta: float):
    """(angle, norm) of M applied to the unit vector at angle theta."""
    a, b, c, d = mat
    cs, sn = math.cos(theta), math.sin(theta)
    x = a * cs + b * sn
    y = c * cs + d * sn
    n = math.hypot(x, y)
    if n == 0.0:
        raise ArithmeticError("direction collapsed; matrix is singular")
    return _dir_angle(x, y), n


def _wrap_half(delta: float) -> float:
    """Representative of delta modulo pi inside [-pi/2, pi/2)."""
    return (delta + math.pi / 2) % math.pi - math.pi / 2


def _traverse(mat, th_a: float, al_a: float, th_b: float, depth: int = 0) -> float:
    """Lift value at th_b of the circle map of `mat`, given lift al_a at th_a.

    Bisects until the local contraction bound certifies that the nearest
    representative is the continuous one.  The map's derivative is
    1 / |M v(theta)|^2, so a segment is safe once its width is small against
    the squared image norms at its ends (with a Lipschitz safety margin).
    """
    width = abs(th_b - th_a)
    if width == 0.0:
        return al_a
    raw_b, n_b = _image(mat, th_b)
    _, n_a = _image(mat, th_a)
    a, b, c, d = mat
    op_norm = math.sqrt(a * a + b * b + c * c + d * d)
    m_eff = min(n_a, n_b) - op_norm * width
    if m_eff > 0.0 and width / (m_eff * m_eff) <= 0.5:
        return al_a + _wrap_half(raw_b - al_a)
    if depth > 64:
        raise ContinuityError("could not certify a continuous lift segment")
    mid = (th_a + th_b) / 2
    al_mid = _traverse(mat, th_a, al_a, mid, depth + 1)
    return _traverse(mat, mid, al_mid, th_b, depth + 1)


def _advance_track(m_from, m_to, theta0: float, alpha: float, depth: int = 0) -> float:
    """Continue the lifted angle of M v(theta0) from matrix m_from to m_to."""
    cs, sn = math.cos(theta0), math.sin(theta0)

    def apply(mat):
        x = mat[0] * cs + mat[1] * sn
        y = mat[2] * cs + mat[3] * sn
        return x, y

    xa, ya = apply(m_from)
    xb, yb = apply(m_to)
    na, nb = math.hypot(xa, ya), math.hypot(xb, yb)
    dv = math.hypot(xb - xa, yb - ya)
    if nb == 0.0:
        raise ContinuityError("image direction collapsed along the path")
    if dv < 0.5 * min(na, nb):
        return alpha + _wrap_half(_dir_angle(xb, yb) - alpha)
    if depth > 64:
        raise ContinuityError("matrix path cannot be lifted continuously")
    mid = tuple((p + q) / 2 for p, q in zip(m_from, m_to))
    alpha_mid = _advance_track(m_from, mid, theta0, alpha, depth + 1)
    return _advance_track(mid, m_to, theta0, alpha_mid, depth + 1)


class PathTranslation(NamedTuple):
    value: float
    elliptic: bool


def _tracked_angles(mats, base_theta: float) -> list:
    """Lifted angle of each path matrix applied to the base direction, tracked
    continuously from the first; consecutive matrices must be closer than
    MAX_PATH_STEP in Frobenius distance."""
    alpha, _ = _image(mats[0], base_theta)
    angles = [alpha + math.pi * round((base_theta - alpha) / math.pi)]
    for prev, cur in zip(mats, mats[1:]):
        if math.dist(prev, cur) >= MAX_PATH_STEP:
            raise ContinuityError("consecutive path matrices are too far apart")
        angles.append(_advance_track(prev, cur, base_theta, angles[-1]))
    return angles


def _near_central(mat) -> bool:
    """Is the matrix within CENTRAL_TOL of +-identity (Frobenius)?"""
    a, b, c, d = mat
    return (_frobenius(a - 1.0, b, c, d - 1.0) <= CENTRAL_TOL
            or _frobenius(a + 1.0, b, c, d + 1.0) <= CENTRAL_TOL)


def _prefix_translation(mat, alpha: float, base_theta: float) -> PathTranslation:
    """Translation number, in units of pi, of the lift of the circle map of
    the float matrix mat whose value at base_theta is the tracked angle alpha.

    A central endpoint reads the integer off alpha itself.  Hyperbolic and
    parabolic endpoints give an exact integer read off at a fixed direction
    of the circle map.  Elliptic endpoints rotate with no fixed direction:
    an elliptic matrix with trace 2 cos(phi0), phi0 in (0, pi), is conjugate
    by a positive-determinant matrix to a rotation by +-phi0, positive
    exactly when b < 0 (or c > 0 when b = 0), and the integer part is pinned
    by alpha, since all displacements of a fixed-point-free circle map lie
    in one open length pi band together with the translation number.  The
    value is then a non-integer real number, flagged as elliptic.
    """
    if _near_central(mat):
        return PathTranslation(float(round((alpha - base_theta) / math.pi)), False)
    if classify(mat) == MatClass.ELLIPTIC:
        a, b, c, d = mat
        phi0 = math.acos(max(-1.0, min(1.0, (a + d) / 2.0)))
        positive = b < 0.0 or (b == 0.0 and c > 0.0)
        frac = phi0 / math.pi if positive else 1.0 - phi0 / math.pi
        return PathTranslation(math.floor((alpha - base_theta) / math.pi) + frac, True)
    _, (vx, vy) = eigen_data(mat)[0]
    th_star = _dir_angle(float(vx), float(vy))
    # place the fixed direction's lift within half a turn of the anchor
    th_star += math.pi * math.floor((base_theta - th_star) / math.pi + 0.5)
    k_float = (_traverse(mat, base_theta, alpha, th_star) - th_star) / math.pi
    k = round(k_float)
    if abs(k_float - k) > 1e-6:
        raise ArithmeticError(f"translation number {k_float} is not close to an integer")
    return PathTranslation(float(k), False)


def translation_numbers_along_arc(mats, base_theta: float = BASE_DIRECTION) -> list:
    """Translation number of the lifted endpoint of every prefix of a matrix
    path, read off one shared angle track.

    The path should start at the identity (or at a matrix whose lift is
    declared to be translation-free); consecutive matrices must be closer
    than MAX_PATH_STEP in Frobenius distance, or ContinuityError is raised.
    """
    if not mats:
        return []
    mats = [m.to_float() if m.exact else m for m in mats]
    return [_prefix_translation(m, alpha, base_theta)
            for m, alpha in zip(mats, _tracked_angles(mats, base_theta))]


def translation_number_by_iteration(mats, base_theta: float = BASE_DIRECTION,
                                    iterations: int = 1 << 16) -> float:
    """Reference value for the path's endpoint: the displacement between
    iterates n and 2n of the lifted map, divided by n pi.

    The limit does not depend on the starting direction; for non-elliptic
    endpoints a start near the attracting fixed direction is used so the
    transient is negligible.
    """
    if not mats:
        raise ValueError("empty path")
    mats = [m.to_float() if m.exact else m for m in mats]
    mat = mats[-1]
    p = base_theta
    fp = _tracked_angles(mats, base_theta)[-1]  # lift value F(p)
    if not _near_central(mat) and classify(mat) != MatClass.ELLIPTIC:  # elliptic: any start works
        _, (vx, vy) = eigen_data(mat)[0]
        start = _dir_angle(float(vx), float(vy)) + 0.05
        fp = _traverse(mat, p, fp, start)
        p = start
    # The iterate is p + k pi with fp = F(p).  As F(x + pi) = F(x) + pi,
    # the next iterate F(p) + k pi is carried by its representative
    # nearest p, so each traversal spans at most half a turn.
    k = 0
    half = p, k
    for i in range(2 * iterations):
        if i == iterations:
            half = p, k
        j = round((fp - p) / math.pi)
        nxt = fp - j * math.pi
        fp = _traverse(mat, p, fp, nxt)
        p, k = nxt, k + j
    return (p - half[0] + (k - half[1]) * math.pi) / (math.pi * iterations)
