"""The (-3, 3, 2n+1) pretzel family, its exact curve data and its
verification report.

For each n >= 1 the family instance packages:

  * four free-group words m1 = a^{n+1}bab, m2 = a^{n+1}ba, l1 = b^-1 a b,
    l2 = b^-1 a b a, generating the two punctured-torus peripheral pairs
    that an HNN stable letter must conjugate onto each other; they are read
    off the two relators of lin_presentation(-2, 1, n), m1 and l1 from the
    t-conjugated sides and m2 and l2 from the plain sides;
  * the explicit representation rho_n(a) = [[-1,1],[0,-1]],
    rho_n(b) = [[2n+1,n],[2,1]] with character chi_n = (-2, 2n+2, -2n);
  * the curve C_n inside character space cut out by tr W1 = tr W2 for the
    three curve_pairs (m1, m2), (l1, l2) and (m1 l1, m2 l2).

analyze_curve reports the exact data of C_n at chi_n, and verify_lemma
checks it through the same helpers; arc.continue_arc reads the Jacobian of
exact_curve_data for its rank gate and pins, and the traces for its audit.
No trace polynomial enters: every exact datum at chi_n comes
from one integer pass of 2x2 products over the curve words at rho_n
(tracepass), which gives each word's trace, image and 8 entry partials.  An
exact solution V of [D chi; grad det A; grad det B] V = [I; 0] at rho_n turns
the entry partials into gradients in (x, y, z): grad P = grad_q tr W . V,
summed in integers over V's common denominator.  The longitude Hessian comes
by the chain rule from Fricke's identity tr[U, V] = p^2 + q^2 + r^2 - pqr - 2
(p, q, r = tr U, tr V, tr UV).  At chi_n, (p, q, r) = (-2s, -2, 2s) with
s = (-1)^n, where the identity's first partials vanish: the Hessian is
J^T Hess(k) J, with J the gradients of tr m1, tr l1 and tr m1 l1.  The curve
polynomials themselves (curve_eqs) are compiled only on access.

verify_lemma checks, in exact rational arithmetic, that the representation
sits on C_n exactly as the closed-form analysis predicts: matrix images match
their closed forms, the two meridian images are conjugate parabolics with
determinant +1 conjugator, the longitude pair is conjugate only through
determinant -1, the curve has a rank-2 Jacobian at chi_n with the stated
integral kernel vector, tr(m1) and tr(m2) are local coordinates, and the
Hessian of the longitude trace is nonzero on the kernel direction.

One closed form is corrected here: the (2,1) entry of rho_n(m1 l1) must be
(-1)^n (4 - 4n) for the matrix to have determinant 1 (and to equal the
actual product); the variant with entry (-1)^n (-4n) fails both checks for
every n and appears to be a transcription slip.  The test suite pins the
corrected form against direct matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .sl2 import Conjugacy, Mat2, MatClass, _RowSpace, classify, same_trace_conjugacy
from .tracepass import TracePlan, _codes, _letters
from .tracepoly import TracePolynomial, trace_polynomial
from .words import Word, commutator, evaluate, parse_word

N_CAP = 10_000


@dataclass(frozen=True)
class FamilyInstance:
    """Words, representation, limiting character and curve for one n."""

    n: int
    m1: Word
    m2: Word
    l1: Word
    l2: Word
    longitude: Word
    rho_a: Mat2
    rho_b: Mat2
    chi: tuple

    @cached_property
    def m1l1(self) -> Word:
        return self.m1 * self.l1

    @cached_property
    def m2l2(self) -> Word:
        return self.m2 * self.l2

    @property
    def curve_pairs(self) -> tuple:
        """The word pairs (W1, W2) whose trace differences tr W1 - tr W2 cut out C_n."""
        return (self.m1, self.m2), (self.l1, self.l2), (self.m1l1, self.m2l2)

    @cached_property
    def curve_plan(self) -> TracePlan:
        """The product plan of the six words of curve_pairs, in order, built
        on first use: its integer run at rho_n gives the exact curve data,
        its run on |letters| the residue scales, and continuation runs it
        on floats."""
        return TracePlan(_codes(w) for pair in self.curve_pairs for w in pair)

    @cached_property
    def exact_curve_data(self) -> tuple:
        """_exact_curve_data of this family, computed on first use and
        shared by analyze_curve, continue_arc and verify_lemma, which only
        read it."""
        return _exact_curve_data(self)

    @cached_property
    def curve_eqs(self) -> tuple:
        """The curve equations tr W1 - tr W2 as trace polynomials, compiled on
        first access; the exact curve data at chi_n do not use them."""
        return tuple(trace_polynomial(w1) - trace_polynomial(w2) for w1, w2 in self.curve_pairs)

    def image(self, word: Word) -> Mat2:
        """Image of a word under rho_n (exact)."""
        return evaluate(word, self.rho_a, self.rho_b)


def make_family(n: int) -> FamilyInstance:
    """Build the family instance for n >= 1.

    The boundary words are the two relators of lin_presentation(-2, 1, n):
    m1 and l1 are the t-conjugated sides, m2 and l2 the plain sides.  No
    trace polynomial is compiled (curve_eqs compiles on access).  n is at
    most N_CAP = 10^4, which bounds the word length (a curve word has at
    most n + 7 letters) and the integers of the exact passes at rho_n
    (Jacobian entries of order n^4, Hessian entries of order n^6), so the
    float report's rounding of them stays far inside the float range.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > N_CAP:
        raise ValueError(f"n = {n} exceeds the cap {N_CAP}")
    (tm1, m2), (tl1, l2) = lin_presentation(-2, 1, n).parsed_sides()
    m1, l1 = (Word(w.spelled()[1:-1]) for w in (tm1, tl1))  # strip t ... t^-1
    return FamilyInstance(n, m1, m2, l1, l2, commutator(m1, l1), Mat2(-1, 1, 0, -1),
                          Mat2(2 * n + 1, n, 2, 1), (-2, 2 * n + 2, -2 * n))


# ----------------------------------------------------------------------
# closed forms (all verified against direct exact computation by the tests)

def image_closed_forms(n: int) -> dict:
    """Closed-form images of the six words under rho_n."""
    s = (-1) ** n
    return {
        "m1": Mat2(s * (-2 * n - 1), s * (-n), s * 4 * n, s * (2 * n - 1)),
        "m2": Mat2(-s, 0, 2 * s, -s),
        "l1": Mat2(1, 1, -4, -3),
        "l2": Mat2(-1, 0, 4, -1),
        "m1l1": Mat2(s * (2 * n - 1), s * (n - 1), s * (4 - 4 * n), s * (3 - 2 * n)),
        "m2l2": Mat2(s, 0, -6 * s, s),
    }


def jacobian_closed_form(n: int):
    """Closed-form Jacobian of the three curve equations at chi_n."""
    sgn = (-1) ** (n + 1)
    row1 = tuple(
        sgn * v
        for v in (
            Fraction(4 * n ** 4 + 4 * n ** 3 - 7 * n ** 2 - 4 * n, 3),
            Fraction(2 * n ** 2 - n - 1),
            Fraction(2 * n ** 2 + n - 2),
        )
    )
    row2 = (Fraction((2 * n + 1) ** 2), Fraction(4), Fraction(4))
    row3 = tuple(
        sgn * v
        for v in (
            Fraction(-4 * n ** 4 + 4 * n ** 3 + 43 * n ** 2 + 26 * n + 3, 3),
            Fraction(-2 * n ** 2 + 5 * n + 9),
            Fraction(-2 * n ** 2 + 3 * n + 14),
        )
    )
    return (row1, row2, row3)


def kernel_closed_form(n: int) -> tuple:
    """Integral kernel vector of the Jacobian at chi_n."""
    return (12, -(4 * n ** 3 + 12 * n ** 2 + 17 * n + 6), 4 * n ** 3 + 5 * n + 3)


def gradient_m2_closed_form(n: int) -> tuple:
    """Closed-form gradient of tr(m2) at chi_n."""
    sgn = (-1) ** (n + 1)
    return (
        sgn * Fraction(2 * n * (n + 1) * (n + 2), 3),
        sgn * Fraction(n + 1),
        sgn * Fraction(n + 2),
    )


def hessian_closed_form(n: int):
    """Closed-form Hessian of tr([m1, l1]) at chi_n (a rank-one form)."""
    g = (Fraction(n * (n + 1) * (2 * n + 1), 3), Fraction(n), Fraction(n + 1))
    return tuple(tuple(8 * gi * gj for gj in g) for gi in g)


# ----------------------------------------------------------------------
# exact evaluation helpers

def gradient_at(poly: TracePolynomial, point) -> tuple:
    """Exact gradient of a polynomial at a rational point, as Fractions."""
    return tuple(Fraction(poly.derivative(i).evaluate(*point)) for i in range(3))


def hessian_at(poly: TracePolynomial, point):
    """Exact Hessian of a polynomial at a rational point, as Fractions."""
    grads = [poly.derivative(i) for i in range(3)]
    return tuple(tuple(Fraction(g.derivative(j).evaluate(*point)) for j in range(3))
                 for g in grads)


def _det3(m) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def outside_row_span(rows, vector) -> bool:
    """True when vector is not a rational combination of the rows."""
    return _RowSpace(rows).outside(vector)


# ----------------------------------------------------------------------
# exact curve data at chi_n

def _character_frame(rho_a: Mat2, rho_b: Mat2) -> tuple:
    """An exact solution V = frame / den of [D chi; grad det A; grad det B] V
    = [I; 0] at the pair, as 3 integer columns over q and their common
    denominator.

    tr W is conjugation invariant and equals P(chi) on det A = det B = 1, so
    its entry gradient is grad P . D chi plus multiples of the determinant
    rows, and grad_q tr W . V = grad P for any such V.  Raises ValueError when
    the system has rank below 5, as at a reducible pair (tr[a, b] = 2).
    """
    a11, a12, a21, a22 = rho_a
    b11, b12, b21, b22 = rho_b
    rows = ((1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0),
            (b11, b21, b12, b22, a11, a21, a12, a22, 0, 0, 1),
            (a22, -a21, -a12, a11, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, b22, -b21, -b12, b11, 0, 0, 0))
    space = _RowSpace(rows)
    pivots = space.pivots
    if len(pivots) < 5 or pivots[-1] >= 8:
        raise ValueError("the character map has rank below 3 at this pair (reducible, tr[a, b] = 2)")
    # Each eliminated row holds the common pivot p at its pivot column and
    # p times V's row there in columns 8..10; V = solution / p, cancelled
    # by g (signed so that the denominator is positive).
    p = space.eliminated[0][pivots[0]]
    solution = [(0, 0, 0)] * 8
    for row, col in zip(space.eliminated, pivots):
        solution[col] = row[8:]
    g = math.gcd(p, *(x for row in solution for x in row)) * (1 if p > 0 else -1)
    return tuple(tuple(x // g for x in col) for col in zip(*solution)), p // g


def _exact_curve_data(fam: FamilyInstance) -> tuple:
    """(Jacobian, gradients, traces, images) of the curve words at chi_n, exact.

    One integer product pass over the curve words at rho_n gives each
    word's image (word -> entry tuple), its trace and its 8 entry partials;
    each partial row is contracted with the character frame in integers, and
    one division per entry gives the Fraction gradients (word -> (d/dx,
    d/dy, d/dz) of tr W) and the Jacobian rows grad tr W1 - grad tr W2.
    """
    frame, den = _character_frame(fam.rho_a, fam.rho_b)
    letters = _letters(fam.rho_a.entries() + fam.rho_b.entries())
    words = [w for pair in fam.curve_pairs for w in pair]
    traces, numerators, images = {}, {}, {}
    for word, (trace, partials, image) in zip(words, fam.curve_plan.passes(letters)):
        traces[word] = trace
        images[word] = image
        numerators[word] = [sum(g * f for g, f in zip(partials, col)) for col in frame]
    gradients = {w: tuple(Fraction(x, den) for x in num) for w, num in numerators.items()}
    jacobian = tuple(tuple(Fraction(x - y, den) for x, y in zip(numerators[w1], numerators[w2]))
                     for w1, w2 in fam.curve_pairs)
    return jacobian, gradients, traces, images


def _commutator_hessian(traces, jac):
    """J^T Hess(k) J: the exact Hessian of tr([u, v]) at a point where the
    first partials of k vanish.

    tr[U, V] = k(tr U, tr V, tr UV) with k(p, q, r) = p^2 + q^2 + r^2 - pqr - 2
    (Goldman, "Trace coordinates on Fricke spaces of some simple hyperbolic
    surfaces", 2009), so with P_i the trace polynomials of u, v, uv and J
    their gradient rows the Hessian is sum_i k_i Hess(P_i) + J^T Hess(k) J;
    traces are (p, q, r) at the point.  The rows are summed in integers over
    their common denominator d, and one division by d^2 ends each entry.
    """
    p, q, r = traces
    hk = ((2, -r, -q), (-r, 2, -p), (-q, -p, 2))
    d = math.lcm(*(x.denominator for row in jac for x in row))
    num = [[x.numerator * (d // x.denominator) for x in row] for row in jac]
    hj = [[sum(hk[i][j] * num[j][b] for j in range(3)) for b in range(3)] for i in range(3)]
    return tuple(tuple(Fraction(sum(num[i][a] * hj[i][b] for i in range(3)), d * d) for b in range(3))
                 for a in range(3))


def _longitude_hessian(fam: FamilyInstance, gradients, traces):
    """The exact Hessian of the longitude trace tr([m1, l1]) at chi_n.

    There (p, q, r) = (-2s, -2, 2s) with s = (-1)^n, so the partials of k
    vanish and the three gradients of tr m1, tr l1, tr m1 l1 suffice; a
    family whose partials do not vanish raises ValueError.
    """
    words = (fam.m1, fam.l1, fam.m1l1)
    p, q, r = (traces[w] for w in words)
    if 2 * p - q * r or 2 * q - p * r or 2 * r - p * q:
        raise ValueError(f"the longitude Hessian needs Hess(tr) terms at traces {(p, q, r)}")
    return _commutator_hessian((p, q, r), [gradients[w] for w in words])


@dataclass(frozen=True)
class CurveAnalysis:
    """Exact first- and second-order data of C_n at chi_n.

    kernel_basis is normalized so its first coordinate is 12, the scale at
    which the kernel vector is integral for every n of the family;
    hessian_on_kernel is v^T H v for that vector, with H the Hessian of the
    longitude trace tr([m1, l1]).
    """

    jacobian: tuple
    rank: int
    kernel_basis: tuple
    hessian_on_kernel: Fraction
    local_coordinate_verdicts: dict

    def kv_lines(self) -> list:
        rows = ["rank=%d" % self.rank,
                "kernel=(%s)" % ", ".join(str(k) for k in self.kernel_basis),
                "hessian_on_kernel=%s" % self.hessian_on_kernel]
        for name in sorted(self.local_coordinate_verdicts):
            rows.append("local_coordinate[%s]=%s"
                        % (name, str(self.local_coordinate_verdicts[name]).lower()))
        return rows


def analyze_curve(fam: FamilyInstance) -> CurveAnalysis:
    """Exact Jacobian, rank, kernel and Hessian-on-kernel of C_n at chi_n,
    plus local-coordinate verdicts for tr(m1), tr(m2) and tr(m1 l1): true
    iff the word's gradient lies outside the Jacobian row span."""
    jac, grads, traces, _ = fam.exact_curve_data
    words = {"tr_m1": fam.m1, "tr_m2": fam.m2, "tr_m1l1": fam.m1l1}
    space = _RowSpace(jac)
    rank = space.rank
    kernel: tuple = ()
    hval = Fraction(0)
    if rank == 2:
        (v,) = space.nullspace()  # rank 2 on three columns leaves one null vector
        if v[0] == 0:
            raise ValueError("curve kernel has vanishing leading coordinate")
        kernel = tuple(12 * x / v[0] for x in v)
        hess = _longitude_hessian(fam, grads, traces)
        hval = sum(kernel[i] * hess[i][j] * kernel[j] for i in range(3) for j in range(3))
    verdicts = {name: space.outside(grads[word]) for name, word in words.items()}
    return CurveAnalysis(jac, rank, kernel, hval, verdicts)


# ----------------------------------------------------------------------
# verification report

@dataclass(frozen=True)
class Assertion:
    name: str
    holds: bool
    witness: str

    def kv_line(self) -> str:
        return f"{self.name} {'PASS' if self.holds else 'FAIL'} {self.witness}"


@dataclass
class LemmaReport:
    """Per-assertion verdicts with exact witnesses for one family instance."""

    n: int
    assertions: list = field(default_factory=list)
    images: dict = field(default_factory=dict)
    conjugacy: dict = field(default_factory=dict)
    jacobian: tuple = ()
    rank: int = 0
    minor: Fraction = Fraction(0)
    kernel: tuple = ()
    local_coordinates: dict = field(default_factory=dict)
    hessian: tuple = ()
    hessian_on_kernel: Fraction = Fraction(0)

    @property
    def all_pass(self) -> bool:
        return all(a.holds for a in self.assertions)

    def add(self, name: str, holds: bool, witness: str = ""):
        self.assertions.append(Assertion(name, bool(holds), witness))

    def kv_lines(self) -> list:
        return [a.kv_line().rstrip() for a in self.assertions]

    def text(self) -> str:
        lines = [f"family n={self.n}: {'PASS' if self.all_pass else 'FAIL'}"]
        for a in self.assertions:
            mark = "PASS" if a.holds else "FAIL"
            suffix = f"  [{a.witness}]" if a.witness else ""
            lines.append(f"  {mark}  {a.name}{suffix}")
        return "\n".join(lines)


# The float comparator's one tolerance: 64 u, with u = 2^-53 the unit roundoff.
_FLOAT_TOL = 64 * 2.0 ** -53


def _flat(rows) -> tuple:
    return tuple(x for row in rows for x in row)


def _magnitudes(fam: FamilyInstance) -> dict:
    """L tr(|X_1| ... |X_L|) for the L letter matrices of each curve word
    at rho_n, an inverse letter as |adj X|: the error scale of its float
    trace."""
    letters = tuple(tuple(map(abs, m)) for m in _letters(fam.rho_a.entries() + fam.rho_b.entries()))
    words = [w for pair in fam.curve_pairs for w in pair]
    images = fam.curve_plan.images(letters)
    return {w: len(codes) * (m[0] + m[3]) for w, codes, m in zip(words, fam.curve_plan.words, images)}


@dataclass(frozen=True)
class _Comparator:
    """Zero, rank and row-span tests: exact, or relative to a stated scale."""

    exact: bool

    def value(self, x):
        return x if self.exact else float(x)

    def zero(self, x, scale) -> bool:
        return x == 0 if self.exact else abs(x) <= _FLOAT_TOL * scale

    def agree(self, got, want) -> bool:
        """Entrywise equality, on the scale of the largest |want| entry."""
        want = [self.value(w) for w in want]
        scale = max(abs(w) for w in want)
        return all(self.zero(g - w, scale) for g, w in zip(got, want, strict=True))

    def row_space(self, rows):
        """The rows factored once, for their rank and row-span tests: the
        exact elimination, or one SVD."""
        if self.exact:
            return _RowSpace(rows)
        _, sig, vt = np.linalg.svd(np.array(rows, dtype=float))
        return _SingularRowSpace(self, sum(not self.zero(s, sig[0]) for s in sig), vt)


@dataclass(frozen=True)
class _SingularRowSpace:
    """A float matrix's row space through its SVD: the rank counts the
    singular values not zero next to the largest, and a vector is outside
    the row span when its part along the remaining right singular vectors
    is not zero next to its norm."""

    cmp: _Comparator
    rank: int
    vt: np.ndarray

    def outside(self, vector) -> bool:
        v = np.array(vector)
        return not self.cmp.zero(float(np.linalg.norm(self.vt[self.rank:] @ v)), float(np.linalg.norm(v)))


def verify_lemma(n: int, exact: bool = True) -> LemmaReport:
    """Check every assertion about the family instance at n.

    Each assertion is stated once and decided by one comparator.  With
    exact=True (the default) the data are rational and the comparisons are
    ==, and the Jacobian's rank and row-span tests read one integer
    elimination of it.  With exact=False the data are floats (the images,
    Jacobian, gradients and Hessian are exact values rounded once), the
    rank and row-span tests read one SVD, and a quantity x counts as zero
    when |x| <= tol * s,
    where s is the scale its check states: the largest |entry| of the closed
    form it is compared with; for a curve residue tr W1 - tr W2, the sum
    over the two words of L tr(|X_1| ... |X_L|), the magnitudes of their L
    letter matrices multiplied out, an inverse letter as |adj X| (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3); for the
    determinant, the product of the Jacobian's row norms; for the minor, the
    kernel products and the Hessian on the kernel, the sum of the |products|
    added up; for a singular value, the largest one; for the distance of a
    gradient from the Jacobian row span, the gradient's norm.

    One tolerance serves every check: tol = 64 u = 2^-47 ~ 7.1e-15.  Over
    n = 1..50, 60, 80 and 100 the ratios |x| / s that must count as zero
    are at most 5.1e-17 (sigma_3 / sigma_1; the residues are exactly 0.0,
    the images being integer matrices well inside 2^53), 138x below tol,
    and those that must not are at least 5.4e-13 (Hessian on the kernel at
    n = 100; row-span distance 7.7e-13, sigma_2 / sigma_1 2.6e-8, minor
    0.17), 75x above it.  A relative 1e-9 would not do: the tr(m1) row-span
    distance falls below it from n = 30.  The parabolic and conjugacy
    verdicts use classify and same_trace_conjugacy, whose float band is
    sl2.TRACE_TOL.

    Failures become FAIL entries in the report rather than exceptions.
    """
    cmp = _Comparator(exact)
    fam = make_family(n)
    rep = LemmaReport(n=n)
    ra, rb = (Mat2(*map(cmp.value, m.entries())) for m in (fam.rho_a, fam.rho_b))
    exact_jac, exact_grads, exact_traces, exact_images = fam.exact_curve_data
    images, traces = {}, {}
    # the closed forms are those of the curve words, in the order of curve_pairs
    words = (w for pair in fam.curve_pairs for w in pair)
    for (name, want), word in zip(image_closed_forms(n).items(), words, strict=True):
        got = images[name] = Mat2(*map(cmp.value, exact_images[word]))
        traces[word] = got.trace()
        rep.images[name] = (got, want)
        rep.add(f"image_{name}_matches_closed_form", cmp.agree(got.entries(), want.entries()), f"computed {got}")

    for name in ("m1", "m2"):
        cls = classify(images[name])
        rep.add(f"image_{name}_parabolic", cls == MatClass.PARABOLIC, f"trace {images[name].trace()}")

    verdict_m = same_trace_conjugacy(images["m1"], images["m2"])
    rep.conjugacy["meridian_pair"] = verdict_m
    rep.add("meridian_pair_conjugate_det_plus", verdict_m == Conjugacy.CONJUGATE_DET_PLUS, verdict_m.value)
    verdict_l = same_trace_conjugacy(images["l1"], images["l2"])
    rep.conjugacy["longitude_pair"] = verdict_l
    rep.add("longitude_pair_conjugate_det_minus", verdict_l == Conjugacy.CONJUGATE_DET_MINUS, verdict_l.value)
    d1, d2 = images["l1"].delta(), images["l2"].delta()
    rep.add("longitude_pair_delta_signs_opposite", d1 * d2 < 0, f"deltas {d1}, {d2}")

    got_chi = (ra.trace(), rb.trace(), (ra @ rb).trace())
    rep.add("character_equals_chi", cmp.agree(got_chi, fam.chi), f"character {got_chi}")

    residues = tuple(traces[w1] - traces[w2] for w1, w2 in fam.curve_pairs)
    magnitudes = _magnitudes(fam)
    scales = tuple(magnitudes[w1] + magnitudes[w2] for w1, w2 in fam.curve_pairs)
    vanish = all(cmp.zero(r, s) for r, s in zip(residues, scales, strict=True))
    rep.add("curve_equations_vanish_at_chi", vanish, f"residues {residues}")

    jac = tuple(tuple(map(cmp.value, row)) for row in exact_jac)
    rep.jacobian = jac
    rep.add(
        "jacobian_matches_closed_form",
        cmp.agree(_flat(jac), _flat(jacobian_closed_form(n))),
        f"rows {tuple(tuple(str(x) for x in r) for r in jac)}",
    )
    det = _det3(jac)
    rep.add("jacobian_determinant_zero", cmp.zero(det, math.prod(math.hypot(*r) for r in jac)), f"det {det}")
    minor = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    rep.minor = minor
    minor_scale = abs(jac[0][0] * jac[1][1]) + abs(jac[0][1] * jac[1][0])
    rep.add("jacobian_top_left_minor_nonzero", not cmp.zero(minor, minor_scale), f"minor {minor}")
    space = cmp.row_space(jac)
    rep.rank = space.rank
    rep.add("jacobian_rank_two", rep.rank == 2, f"rank {rep.rank}")

    kern = tuple(map(cmp.value, kernel_closed_form(n)))
    rep.kernel = kern
    products = tuple(sum(r * c for r, c in zip(row, kern)) for row in jac)
    scales = tuple(sum(abs(r * c) for r, c in zip(row, kern)) for row in jac)
    annihilated = all(cmp.zero(p, s) for p, s in zip(products, scales))
    rep.add("kernel_vector_annihilated", annihilated, f"products {tuple(str(p) for p in products)}")

    words = {"tr_m2": fam.m2, "tr_m1": fam.m1}
    grads = {name: tuple(map(cmp.value, exact_grads[word])) for name, word in words.items()}
    rep.add(
        "gradient_tr_m2_matches_closed_form",
        cmp.agree(grads["tr_m2"], gradient_m2_closed_form(n)),
        f"gradient {tuple(str(x) for x in grads['tr_m2'])}",
    )
    for name, grad in grads.items():
        out = space.outside(grad)
        rep.local_coordinates[name] = out
        rep.add(f"{name}_local_coordinate", out, "gradient outside Jacobian row span" if out else "gradient inside row span")

    hess = tuple(tuple(map(cmp.value, row)) for row in _longitude_hessian(fam, exact_grads, exact_traces))
    rep.hessian = hess
    rep.add(
        "hessian_matches_closed_form",
        cmp.agree(_flat(hess), _flat(hessian_closed_form(n))),
        f"rows {tuple(tuple(str(x) for x in r) for r in hess)}",
    )
    terms = [kern[i] * hess[i][j] * kern[j] for i in range(3) for j in range(3)]
    quad = sum(terms)
    rep.hessian_on_kernel = quad
    rep.add("hessian_nonzero_on_kernel", not cmp.zero(quad, sum(abs(t) for t in terms)), f"value {quad}")

    m1, l1 = images["m1"], images["l1"]
    long_img = m1 @ l1 @ m1.inverse() @ l1.inverse()
    identity = cmp.agree(long_img.entries(), Mat2.identity().entries())
    rep.add("longitude_image_identity", identity, f"image {long_img}")
    return rep


# ----------------------------------------------------------------------
# two-bridge style presentation text for general odd pretzel parameters

@dataclass(frozen=True)
class LinPresentation:
    """Two relator strings over {a, b, t} for parameters (p, q, r)."""

    p: int
    q: int
    r: int
    relators: tuple

    def parsed_sides(self):
        """Each relator as a (left word, right word) pair over {a, b, t}."""
        out = []
        for rel in self.relators:
            lhs, rhs = rel.split(" = ")
            out.append(
                (
                    parse_word(lhs, generators=("a", "b", "t")),
                    parse_word(rhs, generators=("a", "b", "t")),
                )
            )
        return tuple(out)


def _atom(base: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return base
    return f"{base}^{e}"


def _join(atoms) -> str:
    return " ".join(a for a in atoms if a)


def lin_presentation(p: int, q: int, r: int) -> LinPresentation:
    """Relator text for the genus-one spliced presentation at (p, q, r):

        t a^{r+1} (ba)^q b t^-1 = a^{r+1} (ba)^q
        t b^{p+1} (ab)^q t^-1  = b^{p+1} (ab)^q a

    Exponent-1 atoms print bare and exponent-0 atoms are dropped.
    """
    rel1 = (
        _join(["t", _atom("a", r + 1), _atom("(ba)", q), "b", "t^-1"])
        + " = "
        + (_join([_atom("a", r + 1), _atom("(ba)", q)]) or "")
    )
    rel2 = (
        _join(["t", _atom("b", p + 1), _atom("(ab)", q), "t^-1"])
        + " = "
        + _join([_atom("b", p + 1), _atom("(ab)", q), "a"])
    )
    return LinPresentation(p, q, r, (rel1, rel2))
