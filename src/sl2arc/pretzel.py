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

analyze_curve reports the exact data of C_n at chi_n; verify_lemma and
arc.continue_arc take the Jacobian, trace gradients and longitude Hessian
from the same helpers.

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
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .sl2 import Conjugacy, Mat2, MatClass, classify, exact_nullspace, exact_rank, same_trace_conjugacy
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
    curve_eqs: tuple

    @property
    def m1l1(self) -> Word:
        return self.m1 * self.l1

    @property
    def m2l2(self) -> Word:
        return self.m2 * self.l2

    @property
    def curve_pairs(self) -> tuple:
        """The word pairs (W1, W2) whose trace differences tr W1 - tr W2 cut out C_n."""
        return (self.m1, self.m2), (self.l1, self.l2), (self.m1l1, self.m2l2)

    def image(self, word: Word) -> Mat2:
        """Image of a word under rho_n (exact)."""
        return evaluate(word, self.rho_a, self.rho_b)


def make_family(n: int) -> FamilyInstance:
    """Build the family instance for n >= 1.

    The boundary words are the two relators of lin_presentation(-2, 1, n):
    m1 and l1 are the t-conjugated sides, m2 and l2 the plain sides.  n is
    at most N_CAP = 10^4, which bounds trace-polynomial size.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > N_CAP:
        raise ValueError(f"n = {n} exceeds the cap {N_CAP}")
    (tm1, m2), (tl1, l2) = lin_presentation(-2, 1, n).parsed_sides()
    m1, l1 = (Word(w.letters[1:-1]) for w in (tm1, tl1))  # strip t ... t^-1
    fam = FamilyInstance(n, m1, m2, l1, l2, commutator(m1, l1), Mat2(-1, 1, 0, -1),
                         Mat2(2 * n + 1, n, 2, 1), (-2, 2 * n + 2, -2 * n), ())
    eqs = tuple(trace_polynomial(w1) - trace_polynomial(w2) for w1, w2 in fam.curve_pairs)
    return replace(fam, curve_eqs=eqs)


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

_HESSIAN_SLOTS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _partials_at(poly: TracePolynomial, point, slots) -> list:
    """Exact partials of poly at a rational point in one integer pass.

    Each slot names the variables a partial differentiates by, one index
    per order r (1 or 2).  Writing the point as p / d, with d the lcm of its
    denominators, a term c x^e contributes c * (falling factorials of e) *
    p^(e - delta) * d^(D + r - |e|) to each slot's integer sum, which is
    thereby homogeneous of degree D = deg - r; one division by d^D ends it.
    """
    pt = [Fraction(c) for c in point]
    d = math.lcm(*(c.denominator for c in pt))
    order = len(slots[0])
    deg = poly.degree()
    top = max(deg - order, 0)
    p = [c.numerator * (d // c.denominator) for c in pt]
    px, py, pz = ([v ** e for e in range(deg + 1)] for v in p)
    dpows = [d ** e for e in range(top + 1)]
    falling = ([1] * (deg + 1), list(range(deg + 1)), [e * (e - 1) for e in range(deg + 1)])
    drops = [tuple(slot.count(v) for v in range(3)) for slot in slots]
    totals = [0] * len(slots)
    for (i, j, k), c in poly.terms.items():
        excess = i + j + k - order
        if excess < 0:
            continue
        w = c * dpows[top - excess]
        for s, (a, b, g) in enumerate(drops):
            if i >= a and j >= b and k >= g:
                f = w * falling[a][i] * falling[b][j] * falling[g][k]
                totals[s] += f * px[i - a] * py[j - b] * pz[k - g]
    return [Fraction(t, dpows[top]) for t in totals]


def gradient_at(poly: TracePolynomial, point) -> tuple:
    """Exact gradient of a polynomial at a rational point, as Fractions.

    The terms are summed in integers over the point's common denominator
    and divided once (see _partials_at); no derivative polynomial is built.
    """
    return tuple(_partials_at(poly, point, ((0,), (1,), (2,))))


def hessian_at(poly: TracePolynomial, point):
    """Exact Hessian of a polynomial at a rational point, as Fractions.

    The six distinct second partials come from one integer pass over the
    terms and one division each (see _partials_at).
    """
    h = dict(zip(_HESSIAN_SLOTS, _partials_at(poly, point, _HESSIAN_SLOTS)))
    return tuple(tuple(h[min(i, j), max(i, j)] for j in range(3)) for i in range(3))


def _det3(m) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def outside_row_span(rows, vector) -> bool:
    """True when vector is not a rational combination of the rows."""
    return exact_rank(list(rows) + [list(vector)]) > exact_rank(rows)


# ----------------------------------------------------------------------
# exact curve data at chi_n

def curve_jacobian(fam: FamilyInstance) -> tuple:
    """The exact Jacobian of the three curve equations at chi_n, as Fraction rows."""
    return tuple(gradient_at(eq, fam.chi) for eq in fam.curve_eqs)


def _trace_gradient(fam: FamilyInstance, word: Word) -> tuple:
    """The exact gradient of tr(word) at chi_n."""
    return gradient_at(trace_polynomial(word), fam.chi)


def _longitude_hessian(fam: FamilyInstance):
    """The exact Hessian of the longitude trace tr([m1, l1]) at chi_n."""
    return hessian_at(trace_polynomial(fam.longitude), fam.chi)


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
    jac = curve_jacobian(fam)
    rank = exact_rank(jac)
    kernel: tuple = ()
    hval = Fraction(0)
    if rank == 2:
        (v,) = exact_nullspace(jac)  # rank 2 on three columns leaves one null vector
        if v[0] == 0:
            raise ValueError("curve kernel has vanishing leading coordinate")
        kernel = tuple(12 * x / v[0] for x in v)
        hess = _longitude_hessian(fam)
        hval = sum(kernel[i] * hess[i][j] * kernel[j] for i in range(3) for j in range(3))
    verdicts = {name: outside_row_span(jac, _trace_gradient(fam, word))
                for name, word in (("tr_m1", fam.m1), ("tr_m2", fam.m2), ("tr_m1l1", fam.m1l1))}
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


def _abs_terms_at(poly: TracePolynomial, point) -> float:
    """Sum of |coefficient * monomial| of poly at point (the error scale)."""
    absolute = TracePolynomial({k: abs(c) for k, c in poly.terms.items()})
    return absolute.evaluate(*(abs(float(x)) for x in point))


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

    def rank(self, rows) -> int:
        return exact_rank(rows) if self.exact else self._svd(rows)[0]

    def outside_row_span(self, rows, vector) -> bool:
        if self.exact:
            return outside_row_span(rows, vector)
        rank, vt = self._svd(rows)
        v = np.array(vector)
        return not self.zero(float(np.linalg.norm(vt[rank:] @ v)), float(np.linalg.norm(v)))

    def _svd(self, rows):
        """Rank (singular values not zero next to the largest) and right singular vectors."""
        _, sig, vt = np.linalg.svd(np.array(rows, dtype=float))
        return sum(not self.zero(s, sig[0]) for s in sig), vt


def verify_lemma(n: int, exact: bool = True) -> LemmaReport:
    """Check every assertion about the family instance at n.

    Each assertion is stated once and decided by one comparator.  With
    exact=True (the default) the data are rational and the comparisons are
    ==, exact_rank and outside_row_span.  With exact=False the data are
    floats (the Jacobian, gradients and Hessian are exact values rounded
    once), and a quantity x counts as zero when |x| <= tol * s, where s is
    the scale its check states: the largest |entry| of the closed form it is
    compared with; for a curve residue, the sum of |coefficient * monomial|
    at chi (Higham, Accuracy and Stability of Numerical Algorithms, ch. 5);
    for the determinant, the product of the Jacobian's row norms; for the
    minor, the kernel products and the Hessian on the kernel, the sum of the
    |products| added up; for a singular value, the largest one; for the
    distance of a gradient from the Jacobian row span, the gradient's norm.

    One tolerance serves every check: tol = 64 u = 2^-47 ~ 7.1e-15.  Over
    n = 1..50, 60, 80 and 100 the ratios |x| / s that must count as zero
    are at most 5.1e-17 (sigma_3 / sigma_1; residues 3.1e-17), 138x below
    tol, and those that must not are at least 5.4e-13 (Hessian on the kernel
    at n = 100; row-span distance 7.7e-13, sigma_2 / sigma_1 2.6e-8, minor
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
    images = {}
    for name, want in image_closed_forms(n).items():
        got = evaluate(getattr(fam, name), ra, rb)
        images[name] = got
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

    chi = tuple(map(cmp.value, fam.chi))
    residues = tuple(eq.evaluate(*chi) for eq in fam.curve_eqs)
    vanish = all(cmp.zero(r, _abs_terms_at(eq, chi)) for r, eq in zip(residues, fam.curve_eqs))
    rep.add("curve_equations_vanish_at_chi", vanish, f"residues {residues}")

    jac = tuple(tuple(map(cmp.value, row)) for row in curve_jacobian(fam))
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
    rep.rank = cmp.rank(jac)
    rep.add("jacobian_rank_two", rep.rank == 2, f"rank {rep.rank}")

    kern = tuple(map(cmp.value, kernel_closed_form(n)))
    rep.kernel = kern
    products = tuple(sum(r * c for r, c in zip(row, kern)) for row in jac)
    scales = tuple(sum(abs(r * c) for r, c in zip(row, kern)) for row in jac)
    annihilated = all(cmp.zero(p, s) for p, s in zip(products, scales))
    rep.add("kernel_vector_annihilated", annihilated, f"products {tuple(str(p) for p in products)}")

    grads = {
        name: tuple(map(cmp.value, _trace_gradient(fam, word)))
        for name, word in (("tr_m2", fam.m2), ("tr_m1", fam.m1))
    }
    rep.add(
        "gradient_tr_m2_matches_closed_form",
        cmp.agree(grads["tr_m2"], gradient_m2_closed_form(n)),
        f"gradient {tuple(str(x) for x in grads['tr_m2'])}",
    )
    for name, grad in grads.items():
        out = cmp.outside_row_span(jac, grad)
        rep.local_coordinates[name] = out
        rep.add(f"{name}_local_coordinate", out, "gradient outside Jacobian row span" if out else "gradient inside row span")

    hess = tuple(tuple(map(cmp.value, row)) for row in _longitude_hessian(fam))
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

    long_img = evaluate(fam.longitude, ra, rb)
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
