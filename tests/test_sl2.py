from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sl2arc import locus as locus_module
from sl2arc import sl2
from sl2arc.arc import GluingError, continue_arc, glue_hnn
from sl2arc.locus import locus_points
from sl2arc.pretzel import make_family
from sl2arc.sl2 import (
    BASE_DIRECTION,
    Conjugacy,
    ConjugatorResult,
    ContinuityError,
    Mat2,
    MatClass,
    _intertwiner_rows,
    classify,
    conjugation_delta_formulas,
    eigen_data,
    exact_nullspace,
    exact_rank,
    exact_rref,
    rotation,
    same_trace_conjugacy,
    solve_conjugator,
    solve_conjugators,
    translation_number_by_iteration,
    translation_numbers_along_arc,
)

from test_words import random_unimodular


# ----------------------------------------------------------------------
# matrix arithmetic


def test_exact_arithmetic_stays_exact():
    m = Mat2(2, 1, 1, 1)
    assert m.exact
    assert m.det() == 1
    assert (m @ m.inverse()) == Mat2.identity()
    assert m ** 3 == m @ m @ m
    assert m ** -2 == (m.inverse()) @ (m.inverse())
    half = Mat2(Fraction(1, 2), 0, 0, 2)
    assert half.inverse() == Mat2(2, 0, 0, Fraction(1, 2))
    assert not m.to_float().exact


def test_mat2_is_its_entry_tuple():
    m = Mat2(1, 2, 3, 4)
    assert isinstance(m, tuple)
    assert tuple(m) == (1, 2, 3, 4)
    a, b, c, d = Mat2(0.5, -1.0, 2.0, 0.0)
    assert (a, b, c, d) == (0.5, -1.0, 2.0, 0.0)
    assert type(m.entries()) is tuple and m.entries() == (1, 2, 3, 4)
    assert m.entries() + m.entries() == (1, 2, 3, 4, 1, 2, 3, 4)


def test_mat2_sum_and_difference_are_entrywise():
    m, n = Mat2(1, 2, 3, 4), Mat2(10, 20, 30, 40)
    assert m + n == Mat2(11, 22, 33, 44) and len(m + n) == 4
    assert n - m == Mat2(9, 18, 27, 36) and len(n - m) == 4
    assert type(m + n) is Mat2 and type(n - m) is Mat2


@pytest.mark.parametrize("product", [lambda m: m * 2, lambda m: 2 * m, lambda m: m * m],
                         ids=["m*2", "2*m", "m*m"])
def test_mat2_has_no_star_product(product):
    with pytest.raises(TypeError):
        product(Mat2(1, 2, 3, 4))


def test_mat2_str_and_repr_formats():
    exact = Mat2(Fraction(1, 2), -3, Fraction(4, 1), 2)
    assert str(exact) == "[[1/2, -3], [4, 2]]"
    assert repr(exact) == "Mat2(a=Fraction(1, 2), b=-3, c=Fraction(4, 1), d=2)"
    floats = Mat2(0.1, -2.0, 1e-17, float("inf"))
    assert str(floats) == "[[0.1, -2.0], [1e-17, inf]]"
    assert repr(floats) == "Mat2(a=0.1, b=-2.0, c=1e-17, d=inf)"


def test_delta_is_b_minus_c():
    assert Mat2(1, 7, 3, 1).delta() == 4
    assert rotation(0.25).delta() == pytest.approx(-2 * math.sin(0.25))


# ----------------------------------------------------------------------
# classification


def test_classification_trichotomy():
    assert classify(Mat2(1, 1, 0, 1)) == MatClass.PARABOLIC
    assert classify(Mat2(-1, 0, 0, -1)) == MatClass.PARABOLIC
    assert classify(Mat2(2, 1, 1, 1)) == MatClass.HYPERBOLIC
    assert classify(rotation(0.4)) == MatClass.ELLIPTIC


def test_classification_tolerance_band():
    near = Mat2(0.0, -1.0, 1.0, 2.0 + 5e-10)  # companion matrix: trace exactly 2 + 5e-10
    assert classify(near) == MatClass.PARABOLIC
    past = Mat2(0.0, -1.0, 1.0, 2.0 + 5e-8)
    assert classify(past) == MatClass.HYPERBOLIC
    under = Mat2(0.0, -1.0, 1.0, 2.0 - 5e-8)
    assert classify(under) == MatClass.ELLIPTIC


def test_classify_rejects_non_unimodular():
    with pytest.raises(ValueError):
        classify(Mat2(2, 0, 0, 2))


# ----------------------------------------------------------------------
# conjugation and the Delta invariant


def test_parabolic_delta_closed_form():
    rng = random.Random(77)
    for _ in range(40):
        p = Mat2(*[rng.uniform(-3, 3) for _ in range(4)])
        if abs(p.det()) < 0.2:
            continue
        xval = rng.uniform(-2, 2)
        got = conjugation_delta_formulas(p, "parabolic", xval)
        predicted = (p.a ** 2 + p.c ** 2) * xval / p.det()
        assert got == pytest.approx(predicted, abs=1e-9)


def test_elliptic_delta_closed_form():
    rng = random.Random(78)
    for _ in range(40):
        p = Mat2(*[rng.uniform(-3, 3) for _ in range(4)])
        if abs(p.det()) < 0.2:
            continue
        theta = rng.uniform(-3, 3)
        got = conjugation_delta_formulas(p, "elliptic", theta)
        norm_sq = p.a ** 2 + p.b ** 2 + p.c ** 2 + p.d ** 2
        assert got == pytest.approx(-norm_sq * math.sin(theta) / p.det(), abs=1e-9)


def test_parabolic_delta_sign_tracks_conjugator_determinant():
    """Delta keeps its sign under det > 0 conjugation and flips under det < 0."""
    rng = random.Random(79)
    u = Mat2(1, Fraction(5, 3), 0, 1)
    flip = Mat2(1, 0, 0, -1)
    for _ in range(60):
        p = Mat2(*[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)])
        if p.det() == 0:
            continue
        same = (p @ u @ p.inverse()).delta()
        assert same != 0
        assert (same > 0) == ((u.delta() > 0) == (p.det() > 0))
        flipped = (p @ flip @ u @ flip.inverse() @ p.inverse()).delta()
        assert (flipped > 0) != (same > 0)


def test_same_trace_conjugacy_verdicts():
    u = Mat2(1, 3, 0, 1)
    p = Mat2(2, 1, 1, 1)
    m1 = p @ u @ p.inverse()
    m2 = p @ Mat2(1, 5, 0, 1) @ p.inverse()
    assert same_trace_conjugacy(m1, m2) == Conjugacy.CONJUGATE_DET_PLUS
    q = Mat2(1, 1, 2, 3)  # det 1, applied to the opposite-shear representative
    m3 = q @ Mat2(1, -2, 0, 1) @ q.inverse()
    assert same_trace_conjugacy(m1, m3) == Conjugacy.CONJUGATE_DET_MINUS
    assert same_trace_conjugacy(m1, m3) is not Conjugacy.NOT_APPLICABLE


def test_same_trace_conjugacy_verdict_matches_explicit_conjugation():
    rng = random.Random(80)
    shear = Mat2(1, 1, 0, 1)
    for _ in range(60):
        g = random_unimodular(rng)
        m2 = g @ shear @ g.inverse()
        assert same_trace_conjugacy(shear, m2) == Conjugacy.CONJUGATE_DET_PLUS
        j = Mat2(1, 0, 0, -1)  # det -1
        m3 = (g @ j) @ shear @ (g @ j).inverse()
        assert same_trace_conjugacy(shear, m3) == Conjugacy.CONJUGATE_DET_MINUS


def test_same_trace_conjugacy_not_applicable_cases():
    hyp = Mat2(2, 1, 1, 1)
    assert same_trace_conjugacy(hyp, hyp) == Conjugacy.NOT_APPLICABLE
    ident = Mat2.identity()
    assert same_trace_conjugacy(ident, ident) == Conjugacy.NOT_APPLICABLE
    with pytest.raises(ValueError):
        same_trace_conjugacy(Mat2(1, 1, 0, 1), Mat2(2, 1, 1, 1))


# ----------------------------------------------------------------------
# eigendata


def test_hyperbolic_eigendata_float():
    m = Mat2(2.0, 1.0, 1.0, 1.0)
    pairs = eigen_data(m)
    assert len(pairs) == 2
    assert abs(pairs[0][0]) > abs(pairs[1][0])
    assert pairs[0][0] * pairs[1][0] == pytest.approx(1.0)
    for lam, (vx, vy) in pairs:
        assert math.hypot(vx, vy) == pytest.approx(1.0)
        rx = m.a * vx + m.b * vy - lam * vx
        ry = m.c * vx + m.d * vy - lam * vy
        assert max(abs(rx), abs(ry)) < 1e-12


def test_parabolic_eigendata():
    pairs = eigen_data(Mat2(1, 0, -3, 1))
    assert pairs == ((1, (0, 1)),)
    assert eigen_data(Mat2(-1, 0, 0, -1)) == ((-1, (1, 0)),)


def test_elliptic_eigendata_raises():
    with pytest.raises(ValueError):
        eigen_data(rotation(0.3))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_huge_hyperbolic_matrix_is_classified_and_its_overflow_named(sign):
    # the largest |entry| squared is inf: the determinant test passes, and
    # eigen_data refuses the inf eigenvalues that tr * tr would give
    for m in (Mat2(sign * 1e160, 0.0, 0.0, sign * 1e-160), Mat2(sign * 1e160, 1.0, 0.0, sign * 1e-160)):
        assert classify(m) == MatClass.HYPERBOLIC
        with pytest.raises(ArithmeticError, match="overflow") as raised:
            eigen_data(m)
        assert type(raised.value) is ArithmeticError
        assert _reference_verdict(m) == MatClass.HYPERBOLIC
    # below the overflow of tr * tr the eigendata are finite, and the small
    # eigenvalue is the reciprocal of the large one, not lost to cancellation
    for big in (1e154, 1e150, 1e100, 1e8):
        (lam1, v1), (lam2, _) = eigen_data(Mat2(sign * big, 0.0, 0.0, sign / big))
        assert (lam1, v1, lam2) == (sign * big, (1.0, 0.0), sign / big)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_determinant_is_refused(bad):
    # NaN <= tol is False and so is inf > inf: the tolerance test alone
    # passes a non-finite determinant, the finiteness test refuses it
    for m in (Mat2(bad, 0.0, 0.0, 1.0), Mat2(1.0, bad, 0.0, 1.0)):
        assert _reference_verdict(m) == "determinant"
        for call in (classify, eigen_data):
            with pytest.raises(ValueError, match="determinant 1"):
                call(m)


def _reference_verdict(m: Mat2):
    """classify's float rules, written with the generic Mat2 queries and
    float() on every entry: the class, or the determinant failure."""
    det = m.det()
    top = max(abs(float(x)) for x in m)
    if not math.isfinite(det) or not abs(det - 1.0) <= 1e-12 * max(1.0, top * top):
        return "determinant"
    t = abs(float(m.trace()))
    if abs(t - 2.0) <= sl2.TRACE_TOL:
        return MatClass.PARABOLIC
    return MatClass.ELLIPTIC if t < 2.0 else MatClass.HYPERBOLIC


def _reference_eigen_data(m: Mat2, verdict):
    """eigen_data's float rules for a matrix of the given verdict."""
    def eigvec(lam):
        r1, r2 = (m.a - lam, m.b), (m.c, m.d - lam)
        v = (-r1[1], r1[0]) if math.hypot(*r1) >= math.hypot(*r2) else (-r2[1], r2[0])
        return sl2._canon_float_dir(*v)

    tr = m.trace()
    if verdict == MatClass.PARABOLIC:
        lam = 1.0 if tr > 0 else -1.0
        if sl2._frobenius(m.a - lam, m.b, m.c, m.d - lam) <= sl2.TRACE_TOL:
            return ((lam, (1.0, 0.0)),)
        return ((lam, eigvec(lam)),)
    lam1 = (tr + math.copysign(math.sqrt(tr * tr - 4.0), tr)) / 2
    lam2 = 1.0 / lam1
    return ((lam1, eigvec(lam1)), (lam2, eigvec(lam2)))


def _ulps_around(x: float, count: int = 3) -> list:
    out = [x]
    for toward in (-math.inf, math.inf):
        y = x
        for _ in range(count):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


def _band_edge_groups():
    """Per edge, matrices a few ulps either side of it: unit-determinant
    matrices with |trace| near 2 +- TRACE_TOL, and matrices with determinant
    near 1 +- 1e-12 max(1, max |entry|^2)."""
    traced = [[Mat2(t, 1.0, -1.0, 0.0) for t in _ulps_around(sign * edge)]  # det 1, trace t
              for edge in (2.0 + sl2.TRACE_TOL, 2.0 - sl2.TRACE_TOL) for sign in (1.0, -1.0)]
    scaled = [[Mat2(det, big, 0.0, 1.0)  # determinant exactly det
               for det in _ulps_around(1.0 + sign * 1e-12 * max(1.0, big * big))]
              for big in (0.5, 3.0) for sign in (1.0, -1.0)]
    return traced + scaled


def _flat(pairs) -> list:
    return [v for lam, direction in pairs for v in (lam, *direction)]


def test_classify_and_eigen_data_keep_their_float_rules_at_the_band_edges():
    for group in _band_edge_groups():
        verdicts = set()
        for m in group:
            want = _reference_verdict(m)
            verdicts.add(want)
            if want == "determinant":
                for call in (classify, eigen_data):
                    with pytest.raises(ValueError, match="determinant 1"):
                        call(m)
                continue
            assert classify(m) == want
            if want == MatClass.ELLIPTIC:
                with pytest.raises(ValueError, match="elliptic"):
                    eigen_data(m)
                continue
            got, pairs = eigen_data(m), _reference_eigen_data(m, want)
            assert len(got) == len(pairs) and _bits(_flat(got)) == _bits(_flat(pairs))
        assert len(verdicts) == 2  # the group straddles its edge


# ----------------------------------------------------------------------
# conjugator solving


def test_conjugator_recovers_known_conjugation():
    g = Mat2(2, 1, 1, 1)
    a = Mat2(1, 1, 0, 1)
    res = solve_conjugator([(a, g @ a @ g.inverse())])
    assert res.det_sign == 1
    assert res.residual < 1e-12
    c = res.candidate
    assert (c @ a.to_float() @ c.inverse() - (g @ a @ g.inverse()).to_float()).frobenius() < 1e-12


def test_conjugator_detects_orientation_reversal():
    j = Mat2(1, 0, 0, -1)
    a = Mat2(1, 4, 0, 1)
    res = solve_conjugator([(a, j @ a @ j.inverse())])
    assert res.det_sign == -1
    assert res.det_sign_label == "-1"


def test_joint_conjugator_two_pairs():
    p = Mat2(3, 1, 2, 1)
    pairs = []
    for m in (Mat2(2, 1, 1, 1), Mat2(1, 1, -1, 0)):
        pairs.append((m, p @ m @ p.inverse()))
    res = solve_conjugator(pairs)
    assert res.nullspace_dim == 1
    assert res.det_sign == 1
    assert res.residual < 1e-12


def test_joint_conjugator_with_mixed_signs_is_singular():
    """One pair conjugate with det +1, the other with det -1: only singular
    joint intertwiners exist."""
    pairs = [
        (Mat2(1, 1, 0, 1), Mat2(1, 1, 0, 1)),
        (Mat2(1, 2, 0, 1), Mat2(1, -2, 0, 1)),
    ]
    res = solve_conjugator(pairs)
    assert res.det_sign == 0
    assert res.det_sign_label == "singular"
    assert res.nullspace_dim >= 1


def test_float_lane_matches_exact_lane():
    """solve_conjugator rounds exact input to float once: its result is float,
    bit for bit that of the to_float() input."""
    g = Mat2(2, 1, 1, 1)
    a = Mat2(1, 1, 0, 1)
    rng = random.Random(82)
    pair_lists = [[(a, g @ a @ g.inverse())]]
    for _ in range(20):
        h, c, e = random_unimodular(rng), random_unimodular(rng), random_unimodular(rng)
        pair_lists.append([(c, h @ c @ h.inverse()), (e, h @ e @ h.inverse())])
    fam = make_family(3)
    images = [fam.image(getattr(fam, w)) for w in ("m1", "m2", "l1", "l2")]
    pair_lists.append([images[:2], images[2:]])
    results = []
    for pairs in pair_lists:
        assert all(x.exact and y.exact for x, y in pairs)
        got = solve_conjugator(pairs)
        want = solve_conjugator([(x.to_float(), y.to_float()) for x, y in pairs])
        assert got == want and not got.candidate.exact
        assert _bits(got.candidate.entries() + (got.residual,)) == _bits(
            want.candidate.entries() + (want.residual,))
        results.append(got)
    assert results[0].det_sign == 1 and results[0].residual < 1e-10
    assert results[-1].det_sign == 0
    assert {r.det_sign for r in results} == {0, 1}


def test_hyperbolic_eigendata_exact_when_discriminant_is_square():
    """eigen_data rounds exact input to float once: its eigenpairs are floats,
    bit for bit those of the to_float() input, and a square discriminant
    still gives the eigenvalues exactly."""
    fam = make_family(3)
    images = [fam.image(getattr(fam, w)) for w in ("m1", "m2", "l1", "l2")]
    m = Mat2(0, -1, 1, Fraction(5, 2))
    matrices = [m, Mat2(2, 1, 1, 1), Mat2(1, 0, -3, 1), Mat2(-1, 0, 0, -1), *images]
    for x in matrices:
        got, want = eigen_data(x), eigen_data(x.to_float())
        values = [v for lam, (vx, vy) in got for v in (lam, vx, vy)]
        assert all(type(v) is float for v in values)
        assert got == want
        assert _bits(values) == _bits([v for lam, (vx, vy) in want for v in (lam, vx, vy)])
    (lam1, (x1, y1)), (lam2, (x2, y2)) = eigen_data(m)
    assert (lam1, lam2) == (2.0, 0.5)
    assert abs(-y1 - lam1 * x1) < 1e-15 and abs(x2 + 2.5 * y2 - lam2 * y2) < 1e-15


# The Mat2 forms of the intertwiner rows, the relation residual and the
# longitude: the references that the entry forms must match bit for bit.

def _reference_intertwiner_rows(pairs):
    """The rows of a list of pairs, each a Mat2 or an entry sequence."""
    rows = []
    for (a11, a12, a21, a22), (b11, b12, b21, b22) in pairs:
        aa = ((a11, a12), (a21, a22))
        bb = ((b11, b12), (b21, b22))
        for i in range(2):
            for j in range(2):
                row = [0, 0, 0, 0]
                for l in range(2):
                    row[2 * i + l] += aa[l][j]
                for k in range(2):
                    row[2 * k + j] -= bb[i][k]
                rows.append(row)
    return rows


def _reference_frobenius(m: Mat2) -> float:
    a, b, c, d = (float(x) for x in m)
    return math.sqrt(a * a + b * b + c * c + d * d)


def _reference_relation_residual(g, pairs):
    g_norm = _reference_frobenius(g)
    rels = [_reference_frobenius(g @ a - b @ g)
            / max(1.0, g_norm * max(_reference_frobenius(a), _reference_frobenius(b)))
            for a, b in pairs]
    nans = [r for r in rels if math.isnan(r)]
    return nans[0] if nans else max(rels)


def _stacked_residual(g, pairs) -> float:
    """sl2._relation_residuals of one candidate over one list of pairs, with
    overflow and inf - inf silent, as in the finish and in arc's samples."""
    with np.errstate(all="ignore"):
        return sl2._relation_residuals(np.array([g], dtype=float), np.array([pairs], dtype=float))[0]


def _reference_conjugator(pairs) -> ConjugatorResult:
    """One list solved and finished in Mat2 forms: the SVD of the reference
    rows, the candidate, its scaling and its relation residual."""
    rounded = [(a.to_float(), b.to_float()) for a, b in pairs]
    _, sig, vt = np.linalg.svd(_reference_stacked_rows(np.array([rounded])),
                               full_matrices=False)
    sig, vt = sig[0].tolist(), vt[0]
    cutoff = sl2.NULLSPACE_TOL * (sig[0] if sig[0] > 0 else 1.0)
    basis = [Mat2(*vt[i].tolist()) for i in range(4) if sig[i] <= cutoff]
    if not basis:
        return ConjugatorResult(0, None, 0, 0.0)
    g = basis[0] if len(basis) == 1 else sl2._spanning_candidate(basis)
    det, norm = g.det(), g.frobenius()
    if abs(det) <= sl2.SINGULAR_DET_TOL * max(1.0, norm * norm):
        return ConjugatorResult(len(basis), g, 0, _reference_relation_residual(g, rounded))
    g = g.scale(1.0 / math.sqrt(abs(det)))
    return ConjugatorResult(len(basis), g, 1 if det > 0 else -1,
                            _reference_relation_residual(g, rounded))


def _bits(values) -> bytes:
    """The IEEE-754 bytes of floats: comparing them with == is equality of
    every value and of the sign of every zero."""
    return np.asarray(values, dtype=float).tobytes()


def _reference_stacked_rows(pairs: np.ndarray) -> np.ndarray:
    """The rows of a (K, P, 2, 4) stack, read through Python floats."""
    return np.array([_reference_intertwiner_rows(some) for some in pairs.tolist()], dtype=float)


def _check_against_references(pair_lists, monkeypatch):
    """Rows, residuals and whole solve_conjugator results of the entry forms
    equal those of the Mat2 forms, and the stacked finish equals the one-list
    Mat2 finish.  The solver rounds exact pairs to float on entry, so rows
    are compared on the rounded pairs."""
    results = [solve_conjugator(pairs) for pairs in pair_lists]
    with monkeypatch.context() as patched:
        patched.setattr(sl2, "_intertwiner_rows", _reference_stacked_rows)
        from_reference_rows = [solve_conjugator(pairs) for pairs in pair_lists]
    for pairs, got, patched_got in zip(pair_lists, results, from_reference_rows):
        rounded = [(a.to_float(), b.to_float()) for a, b in pairs]
        rows = _intertwiner_rows(np.array([rounded]))
        assert rows.shape == (1, 4 * len(pairs), 4)
        assert _bits(rows) == _bits(_reference_intertwiner_rows(rounded))
        want = _reference_conjugator(pairs)
        assert _result_bits(got) == _result_bits(patched_got) == _result_bits(want)
        if got.candidate is not None:
            for g in (got.candidate, got.candidate.neg()):
                for some in (pairs, pairs[:1], [(a, a) for a, _ in pairs]):
                    residual = _stacked_residual(g, some)
                    assert _residual_bits(residual) == _residual_bits(
                        _reference_relation_residual(g, some))
    return results


@pytest.fixture(scope="module")
def arc_samples():
    """Every 10th sample of 200-step determinant-+1 arcs, keyed by n."""
    return {n: continue_arc(make_family(n), step_size=1e-3, max_steps=200).samples[::10]
            for n in (1, 7, 21)}


@pytest.mark.parametrize("n", [1, 7, 21])
def test_entry_forms_match_the_mat2_forms_on_arc_samples(n, arc_samples, monkeypatch):
    samples = arc_samples[n]
    assert len(samples) == 21
    pair_lists = [[s.word_images[:2], s.word_images[2:]] for s in samples]
    results = _check_against_references(pair_lists, monkeypatch)
    for s, got in zip(samples, results):
        assert s.conjugator == got
        assert (s.det_sign, s.conjugator.residual) == (got.det_sign, got.residual)
        im1, _, il1, _ = s.word_images
        longitude = im1 @ il1 @ im1.inverse() @ il1.inverse()
        assert _bits(s.longitude.entries()) == _bits(longitude.entries())
        assert _bits(s.longitude_trace) == _bits(longitude.trace())
    assert {s.det_sign for s in samples} == {0, 1}


def test_exact_pairs_match_the_mat2_forms(monkeypatch):
    rng = random.Random(81)
    flip = Mat2(1, 0, 0, -1)
    pair_lists = []
    for _ in range(30):
        g = random_unimodular(rng)
        a = Mat2(*[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)])
        c = random_unimodular(rng)
        pair_lists.append([(a, g @ a @ g.inverse())])
        pair_lists.append([(a, g @ a @ g.inverse()), (c, g @ c @ g.inverse())])
        pair_lists.append([(a, (g @ flip) @ a @ (g @ flip).inverse())])
        pair_lists.append([(a, a)])
    fam = make_family(3)
    images = [fam.image(getattr(fam, w)) for w in ("m1", "m2", "l1", "l2")]
    pair_lists.append([images[:2], images[2:]])
    pair_lists.append([(Mat2(1, 1, 0, 1), Mat2(1, 1, 0, 1)), (Mat2(1, 2, 0, 1), Mat2(1, -2, 0, 1))])
    results = _check_against_references(pair_lists, monkeypatch)
    assert {r.det_sign for r in results} == {-1, 0, 1}
    assert {r.nullspace_dim for r in results} >= {1, 2}
    assert not any(r.candidate.exact for r in results if r.candidate is not None)


def _residual_bits(residual: float) -> bytes:
    """_bits of a residual; a NaN reads as NaN whatever its sign bit, which
    numpy's and Python's float operations need not agree on."""
    return _bits(math.nan if math.isnan(residual) else residual)


def _result_bits(result) -> tuple:
    """Every field of a ConjugatorResult, its floats as IEEE-754 bytes and
    its residual as _residual_bits."""
    entries = () if result.candidate is None else result.candidate.entries()
    return (result.nullspace_dim, result.det_sign, result.candidate is None,
            _bits(entries), _residual_bits(result.residual))


def _check_stacked_equals_single(pair_lists) -> list:
    """solve_conjugators on the stack equals solve_conjugator on each list,
    bit for bit."""
    stacked = solve_conjugators(pair_lists)
    assert len(stacked) == len(pair_lists)
    for pairs, got in zip(pair_lists, stacked):
        assert _result_bits(got) == _result_bits(solve_conjugator(pairs))
    return stacked


@pytest.fixture(scope="module")
def arcs300():
    """300-step arcs of both directions, keyed by (n, direction)."""
    return {(n, d): continue_arc(make_family(n), step_size=1e-3, max_steps=300, direction=d)
            for n in (1, 3, 8) for d in (1, -1)}


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_stacked_solves_equal_single_solves_on_arc_samples(n, direction, arcs300):
    samples = arcs300[n, direction].samples
    assert len(samples) > 64
    stacked = _check_stacked_equals_single(
        [[s.word_images[:2], s.word_images[2:]] for s in samples])
    # the arc solved its samples in blocks: the stored results agree too
    for s, got in zip(samples, stacked):
        assert _result_bits(s.conjugator) == _result_bits(got)


def _synthetic_pair_lists() -> list:
    """Two-pair lists with nullspace dimension 0, 1 and 2, with determinant
    classes +1, -1 and singular, given exactly and in floats."""
    rng = random.Random(83)
    flip = Mat2(1, 0, 0, -1)
    a, c = Mat2(2, 1, 1, 1), Mat2(1, 1, -1, 0)
    lists = [
        [(a, Mat2(3, 1, 2, 1)), (c, c)],  # traces 3 and 4: no intertwiner
        [(a, a), (a @ a, a @ a)],  # the centralizer of a: dimension 2
        [(Mat2(1, 1, 0, 1), Mat2(1, 1, 0, 1)), (Mat2(1, 2, 0, 1), Mat2(1, -2, 0, 1))],
    ]
    for _ in range(6):
        g = random_unimodular(rng)
        for h in (g, g @ flip):
            exact = [(x, h @ x @ h.inverse()) for x in (a, c)]
            lists.append(exact)
            lists.append([(x.to_float(), y.to_float()) for x, y in exact])
    return lists


def test_stacked_solves_equal_single_solves_on_mixed_stacks():
    lists = _synthetic_pair_lists()
    results = _check_stacked_equals_single(lists)
    assert {r.nullspace_dim for r in results} == {0, 1, 2}
    assert {r.det_sign for r in results} == {-1, 0, 1}
    assert any(all(x.exact and y.exact for x, y in pairs) for pairs in lists)
    rng = random.Random(84)
    for size in (1, 2, 3, 5, 8):
        for _ in range(4):
            _check_stacked_equals_single(rng.sample(lists, size))
    _check_stacked_equals_single([pairs[:1] for pairs in lists])
    _check_stacked_equals_single([pairs[1:] for pairs in lists])


def _edge_pair_lists() -> list:
    """Two-pair lists at the edges of the stacked finish: a zero-determinant
    image (solved with its partner, and alone), entries whose squares
    overflow into a NaN residual, and an orientation-reversing swap."""
    c, g = Mat2(2.0, 1.0, 1.0, 1.0), Mat2(1.0, 2.0, 1.0, 3.0)
    big, flat = Mat2(1e200, 1e200, 0.0, 1e-200), Mat2(1.0, 2.0, 0.5, 1.0)
    swap = Mat2(0.0, 1.0, 0.0, 0.0), Mat2(0.0, 0.0, 1.0, 0.0)
    return [
        [(flat, flat), (c, c)],
        [(flat, flat), (flat, flat)],
        [(c, g @ c @ g.inverse()), (big, g @ big @ g.inverse())],
        [(big, g @ big @ g.inverse()), (big, g @ big @ g.inverse())],
        [swap, swap],
    ]


def test_the_stacked_finish_matches_the_references_at_the_edges(monkeypatch):
    lists = _edge_pair_lists()
    results = _check_against_references(lists, monkeypatch)
    stacked = _check_stacked_equals_single(lists)
    for size in (1, 2, 3):
        _check_stacked_equals_single(lists[:size])
        _check_stacked_equals_single(lists[-size:])
    assert [r.det_sign for r in results] == [1, 1, 1, 1, -1]
    assert [math.isnan(r.residual) for r in stacked] == [False, False, True, True, False]


def test_a_nan_residual_from_the_finish_fails_the_gluing_gate(arc_samples):
    overflowing = solve_conjugator(_edge_pair_lists()[2])
    assert overflowing.det_sign == 1 and math.isnan(overflowing.residual)
    sample = dataclasses.replace(arc_samples[1][5], conjugator=overflowing)
    with pytest.raises(GluingError, match="relation residual nan"):
        glue_hnn(sample, make_family(1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_rejected_before_the_solve(bad):
    # an SVD of non-finite rows fails to converge, or never returns; the
    # check comes first, and no RuntimeWarning escapes it
    c, x = Mat2(2.0, 1.0, 1.0, 1.0), Mat2(bad, 1.0, 0.0, 1.0)
    for pairs in ([(x, c)], [(c, c), (c, x)], [(x, x)]):
        with pytest.raises(ValueError, match="finite"):
            solve_conjugator(pairs)
        with pytest.raises(ValueError, match="finite"):
            solve_conjugators([[(c, c)] * len(pairs), pairs])


def test_a_stack_holds_lists_of_one_length():
    a = Mat2(2, 1, 1, 1)
    assert solve_conjugators([]) == []
    with pytest.raises(ValueError):
        solve_conjugators([[(a, a)], [(a, a), (a, a)]])
    with pytest.raises(ValueError):
        solve_conjugator([])


def test_relation_residual_needs_a_pair():
    with pytest.raises(ValueError):
        sl2._relation_residuals(np.array([Mat2.identity(exact=False)]), np.empty((1, 0, 2, 4)))


@pytest.mark.parametrize("nan_first", [False, True])
def test_relation_residual_reads_a_nan_in_either_pair_order(nan_first):
    # inf - inf in the second pair: Python's max would skip that NaN
    ident = Mat2.identity(exact=False)
    x = Mat2(math.inf, 0.0, 0.0, 1.0)
    pairs = [(x, x), (ident, ident)] if nan_first else [(ident, ident), (x, x)]
    assert math.isnan(_stacked_residual(ident, pairs))


def test_rows_keep_the_sign_of_a_zero(monkeypatch):
    # a row entry that is zero is +0.0 in the references, whatever the
    # signs of the zero entries it sums
    z, one = -0.0, 1.0
    pair_lists = [
        [(Mat2(z, one, z, one), Mat2(one, z, 0.0, z)), (Mat2(0.0, z, one, z), Mat2(z, 0.0, z, one))],
        [(Mat2(z, z, z, z), Mat2(z, z, z, z))],
        [(Mat2(one, z, z, one), Mat2(one, z, z, one))],
    ]
    _check_against_references(pair_lists, monkeypatch)
    rows = _intertwiner_rows(np.array(pair_lists[1:2]))
    assert rows.shape == (1, 4, 4)
    assert not np.signbit(rows).any()


def test_exact_linear_algebra_helpers():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert exact_rank(rows) == 2
    for v in exact_nullspace(rows):
        for row in rows:
            assert sum(Fraction(r) * c for r, c in zip(row, v)) == 0


def _fraction_rref(rows):
    """Gauss-Jordan elimination in Fractions: the reference for the
    fraction-free exact_rref."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    pivots, r = [], 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return m, pivots


def test_fraction_free_rref_matches_fraction_elimination():
    rng = random.Random(20261018)
    for _ in range(2000):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
        if rng.random() < 0.5:
            # rank at most k: rational combinations of k integer rows
            k = rng.randint(1, min(nrows, ncols))
            basis = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(k)]
            coefs = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
                     for _ in range(nrows)]
            rows = [[sum(c * b[j] for c, b in zip(cs, basis)) for j in range(ncols)] for cs in coefs]
        else:
            rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.7 else 0
                     for _ in range(ncols)] for _ in range(nrows)]
        got = exact_rref(rows)
        assert got == _fraction_rref(rows), rows
        assert all(type(x) is Fraction for row in got[0] for x in row)


# ----------------------------------------------------------------------
# circle lifts and translation numbers


def rotation_path(theta: float, steps: int | None = None):
    steps = steps or max(8, int(abs(theta) / 0.15) + 1)
    return [rotation(theta * i / steps) for i in range(steps + 1)]


def stretch_path(t: float, steps: int = 40):
    return [Mat2(math.exp(t * i / steps), 0.0, 0.0, math.exp(-t * i / steps)) for i in range(steps + 1)]


def endpoint(path, base_theta=BASE_DIRECTION):
    return translation_numbers_along_arc(path, base_theta)[-1]


def wrapped_stretch_path():
    return rotation_path(math.pi) + [
        Mat2(-math.exp(s * 0.05), 0.0, 0.0, -math.exp(-s * 0.05)) for s in range(1, 41)]


def test_identity_path_has_translation_zero():
    res = endpoint([Mat2.identity(exact=False)] * 2)
    assert res.value == 0.0 and not res.elliptic


def test_half_turn_rotation_path_translates_by_one():
    assert endpoint(rotation_path(math.pi)).value == 1.0
    assert endpoint(rotation_path(2 * math.pi)).value == 2.0
    assert endpoint(rotation_path(-math.pi)).value == -1.0


def test_hyperbolic_path_translates_by_zero():
    res = endpoint(stretch_path(2.0))
    assert res.value == 0.0 and not res.elliptic


def test_wrapped_hyperbolic_path_translates_by_one():
    res = endpoint(wrapped_stretch_path())
    assert res.value == 1.0 and not res.elliptic


def test_elliptic_endpoint_is_flagged_with_rotation_number():
    res = endpoint(rotation_path(0.9))
    assert res.elliptic
    assert res.value == pytest.approx(0.9 / math.pi, abs=1e-9)


@pytest.mark.parametrize("phi", [-1.4, -1.0, -0.7, 0.3, 1.4])
def test_a_one_matrix_path_lifts_within_a_quarter_turn_of_the_base(phi):
    # the first image angle, taken in [0, pi), wraps below the base for the
    # negative turns; the first lift must move it back next to the base
    assert sl2._tracked_angles([rotation(phi)], BASE_DIRECTION)[0] == pytest.approx(
        BASE_DIRECTION + phi, abs=1e-12)
    res = translation_numbers_along_arc([rotation(phi)])[0]
    assert res.elliptic
    assert res.value == pytest.approx(phi / math.pi, abs=1e-12)


@pytest.mark.parametrize("path", [
    rotation_path(0.9),
    rotation_path(math.pi),
    rotation_path(2 * math.pi),
    stretch_path(2.0),
    wrapped_stretch_path(),
], ids=["rotation-0.9", "rotation-pi", "rotation-2pi", "stretch", "wrapped-stretch"])
def test_iteration_estimate_agrees_with_closed_form(path):
    iterated = translation_number_by_iteration(path, iterations=1 << 14)
    assert abs(endpoint(path).value - iterated) <= 1e-6


def test_the_iterate_starts_within_a_quarter_turn_of_the_base():
    # the start, 0.05 past the expanding direction at 3.12, is 3.17 from the
    # base 0.0 but within a quarter turn of it modulo pi
    turn = rotation(3.12)
    path = [turn @ m @ turn.inverse() for m in stretch_path(2.0)]
    assert sl2._dir_angle(*eigen_data(path[-1])[0][1]) == pytest.approx(3.12)
    assert abs(translation_number_by_iteration(path, base_theta=0.0, iterations=1 << 8)) <= 1e-12


def test_base_point_independence():
    path = rotation_path(math.pi)
    for theta in (0.1, 1.0, 2.5):
        assert endpoint(path, base_theta=theta).value == 1.0


def test_coarse_path_rejected():
    path = [Mat2.identity(exact=False), rotation(3.0)]
    with pytest.raises(ContinuityError):
        translation_numbers_along_arc(path)
    with pytest.raises(ContinuityError):
        translation_number_by_iteration(path)


def test_both_path_entry_points_reject_a_coarse_path():
    # rotation(3.5) has rotation number +1.114 from the identity; a tracker
    # without the gap guard reads it as -0.886
    path = [Mat2.identity(exact=False), rotation(3.5)]
    with pytest.raises(ContinuityError):
        translation_numbers_along_arc(path)
    with pytest.raises(ContinuityError):
        translation_number_by_iteration(path)


def test_a_singular_first_matrix_raises_an_arithmetic_error():
    # the zero matrix, and a rank-1 one that sends the base direction exactly to 0
    c, s = math.cos(BASE_DIRECTION), math.sin(BASE_DIRECTION)
    for first in (Mat2(0.0, 0.0, 0.0, 0.0), Mat2(-s, c, 0.0, 0.0)):
        path = [first, first + Mat2(0.1, 0.0, 0.0, 0.1)]
        with pytest.raises(ArithmeticError, match="direction collapsed; matrix is singular"):
            translation_numbers_along_arc(path)
        with pytest.raises(ArithmeticError, match="direction collapsed; matrix is singular"):
            translation_number_by_iteration(path)


def test_a_path_whose_image_passes_through_zero_raises():
    # from m to -m the image of every direction runs straight through 0;
    # into the zero matrix it ends there
    m = Mat2(0.1, 0.02, -0.03, 0.1)
    for path in ([m, m.neg()], [m, Mat2(0.0, 0.0, 0.0, 0.0)], [m, m.neg(), m]):
        with pytest.raises(ContinuityError, match="image direction collapsed along the path"):
            translation_numbers_along_arc(path)
        with pytest.raises(ContinuityError, match="image direction collapsed along the path"):
            translation_number_by_iteration(path)


def test_path_ending_off_unit_determinant_raises():
    path = [Mat2.identity(exact=False), Mat2(1.2, 0.0, 0.0, 1.2)]
    with pytest.raises(ValueError, match="determinant 1"):
        translation_numbers_along_arc(path)
    with pytest.raises(ValueError, match="determinant 1"):
        translation_number_by_iteration(path)


def test_empty_path():
    assert translation_numbers_along_arc([]) == []
    with pytest.raises(ValueError, match="empty path"):
        translation_number_by_iteration([])


def test_arc_prefix_values_are_monotone_for_rotations():
    vals = translation_numbers_along_arc(rotation_path(2 * math.pi), BASE_DIRECTION)
    nums = [v.value for v in vals]
    assert nums[0] == 0.0 and nums[-1] == 2.0
    assert all(b >= a - 1e-12 for a, b in zip(nums, nums[1:]))


def _reference_traverse(mat, th_a, al_a, th_b, depth=0):
    """The certified bisecting lift: the value at th_b of the lift of the
    circle map of mat whose value at th_a is al_a.  The map's derivative is
    1 / |M v(theta)|^2, so a segment is safe once its width is small against
    the squared image norms at its ends (with a Lipschitz safety margin);
    then the image angle's representative within a quarter turn of al_a is
    the continuous one."""
    width = abs(th_b - th_a)
    if width == 0.0:
        return al_a
    a, b, c, d = mat
    norms = []
    for theta in (th_a, th_b):
        cs, sn = math.cos(theta), math.sin(theta)
        x, y = a * cs + b * sn, c * cs + d * sn
        norms.append(math.hypot(x, y))
        if norms[-1] == 0.0:
            raise ArithmeticError("direction collapsed; matrix is singular")
    raw_b = sl2._dir_angle(x, y)
    op_norm = math.sqrt(a * a + b * b + c * c + d * d)
    m_eff = min(norms) - op_norm * width
    if m_eff > 0.0 and width / (m_eff * m_eff) <= 0.5:
        return al_a + ((raw_b - al_a + math.pi / 2) % math.pi - math.pi / 2)
    if depth > 64:
        raise ContinuityError("could not certify a continuous lift segment")
    mid = (th_a + th_b) / 2
    al_mid = _reference_traverse(mat, th_a, al_a, mid, depth + 1)
    return _reference_traverse(mat, mid, al_mid, th_b, depth + 1)


def _reference_track(mats, base_theta):
    """The bisecting angle track: each matrix segment is halved until the
    image of the base direction moves by less than half its norm, and then
    the image angle's representative within a quarter turn is taken."""
    cs, sn = math.cos(base_theta), math.sin(base_theta)

    def advance(m_from, m_to, alpha, depth=0):
        xa, ya = m_from[0] * cs + m_from[1] * sn, m_from[2] * cs + m_from[3] * sn
        xb, yb = m_to[0] * cs + m_to[1] * sn, m_to[2] * cs + m_to[3] * sn
        na, nb = math.hypot(xa, ya), math.hypot(xb, yb)
        if nb == 0.0:
            raise ContinuityError("image direction collapsed along the path")
        if math.hypot(xb - xa, yb - ya) < 0.5 * min(na, nb):
            return alpha + ((sl2._dir_angle(xb, yb) - alpha + math.pi / 2) % math.pi - math.pi / 2)
        if depth > 64:
            raise ContinuityError("matrix path cannot be lifted continuously")
        mid = tuple((p + q) / 2 for p, q in zip(m_from, m_to))
        return advance(mid, m_to, advance(m_from, mid, alpha, depth + 1), depth + 1)

    alpha = sl2._dir_angle(mats[0][0] * cs + mats[0][1] * sn, mats[0][2] * cs + mats[0][3] * sn)
    angles = [alpha + math.pi * round((base_theta - alpha) / math.pi)]
    for prev, cur in zip(mats, mats[1:]):
        angles.append(advance(prev, cur, angles[-1]))
    return angles


def _reference_read(mat, alpha, base_theta, direction) -> float:
    """The translation number, in units of pi, that the bisecting lift reads
    at the fixed direction's angle placed within a quarter turn of the base."""
    th_star = sl2._dir_angle(*direction)
    th_star += math.pi * math.floor((base_theta - th_star) / math.pi + 0.5)
    return (_reference_traverse(mat, base_theta, alpha, th_star) - th_star) / math.pi


def _reference_iteration(mats, base_theta, iterations):
    """translation_number_by_iteration with every lift step taken by the
    bisecting references."""
    mat = mats[-1]
    p, fp = base_theta, _reference_track(mats, base_theta)[-1]
    if not sl2._near_central(mat) and classify(mat) != MatClass.ELLIPTIC:
        start = sl2._dir_angle(*eigen_data(mat)[0][1]) + 0.05
        p, fp = start, _reference_traverse(mat, p, fp, start)
    k = 0
    half = p, k
    for i in range(2 * iterations):
        if i == iterations:
            half = p, k
        j = round((fp - p) / math.pi)
        nxt = fp - j * math.pi
        p, fp, k = nxt, _reference_traverse(mat, p, fp, nxt), k + j
    return (p - half[0] + (k - half[1]) * math.pi) / (math.pi * iterations)


@pytest.fixture(scope="module")
def longitude_paths():
    """The longitudes of 200-step determinant-+1 arcs, keyed by n."""
    return {n: continue_arc(make_family(n), step_size=1e-3, max_steps=200).longitude_images()
            for n in (1, 8)}


def _recorded_reads(monkeypatch, owner, read) -> list:
    """The (mat, alpha, base, direction, result) of every _prefix_translation
    call that read() makes through owner's name for it."""
    prefix, reads = owner._prefix_translation, []

    def recorded(mat, alpha, base_theta, direction=None):
        reads.append((mat, alpha, base_theta, direction, prefix(mat, alpha, base_theta, direction)))
        return reads[-1][-1]

    monkeypatch.setattr(owner, "_prefix_translation", recorded)
    read()
    monkeypatch.undo()
    return reads


def _assert_reference_reads(path, reads) -> int:
    """The angle track of path and every non-central read off it against the
    bisecting references; returns the number of those reads."""
    tracked = sl2._tracked_angles(path, BASE_DIRECTION)
    reference = _reference_track(path, BASE_DIRECTION)
    assert max(abs(a - b) for a, b in zip(tracked, reference)) <= 1e-14
    index = {id(m): i for i, m in enumerate(path)}
    checked = 0
    for mat, alpha, base, direction, got in reads:
        assert alpha == tracked[index[id(mat)]]
        if sl2._near_central(mat):
            continue
        want = _reference_read(mat, reference[index[id(mat)]], base,
                               direction or eigen_data(mat)[0][1])
        assert abs(want - round(want)) <= 1e-6
        assert got == (float(round(want)), False)
        checked += 1
    return checked


@pytest.mark.parametrize("n", [1, 8])
def test_the_read_gives_the_traversed_integer_along_longitude_paths(n, longitude_paths,
                                                                    monkeypatch):
    path = longitude_paths[n]
    reads = _recorded_reads(monkeypatch, sl2, lambda: translation_numbers_along_arc(path))
    assert len(reads) == len(path)
    assert _assert_reference_reads(path, reads) == sum(not sl2._near_central(m) for m in path) > 150


@pytest.mark.parametrize("n, step_size, max_steps", [
    (1, 1e-3, 400), (8, 1e-3, 400), (21, 1e-3, 400), (1, 0.02, 1000)])
def test_the_read_gives_the_traversed_integer_on_locus_samples(n, step_size, max_steps,
                                                               monkeypatch):
    arc = continue_arc(make_family(n), step_size=step_size, max_steps=max_steps)
    assert len(arc.samples) == max_steps + 1
    reads = _recorded_reads(monkeypatch, locus_module, lambda: locus_points(arc))
    assert all(direction is not None for _, _, _, direction, _ in reads)
    longitudes = arc.longitude_images()
    assert _assert_reference_reads(longitudes, reads) == sum(
        s.det_sign == 1 and not sl2._near_central(m)
        for s, m in zip(arc.samples, longitudes)) >= max_steps - 1


@pytest.mark.parametrize("theta", [0.9, math.pi, 2 * math.pi, None],
                         ids=["rotation-0.9", "rotation-pi", "rotation-2pi", "longitude-1"])
def test_the_iterate_matches_the_bisecting_reference(theta, longitude_paths):
    path = longitude_paths[1] if theta is None else rotation_path(theta)
    got = translation_number_by_iteration(path, iterations=1 << 8)
    assert abs(got - _reference_iteration(path, BASE_DIRECTION, 1 << 8)) <= 1e-12


def _hyperbolic_fixing_base(stretch: float) -> Mat2:
    """A symmetric hyperbolic matrix whose expanding direction is
    BASE_DIRECTION (the rotation by it of diag(stretch, 1 / stretch))."""
    c, s = math.cos(BASE_DIRECTION), math.sin(BASE_DIRECTION)
    return rotation(BASE_DIRECTION) @ Mat2(stretch, 0.0, 0.0, 1.0 / stretch) @ Mat2(c, s, -s, c)


@pytest.mark.parametrize("k", [-2, 0, 1, 3])
def test_a_fixed_direction_at_the_base_reaches_the_traverse(k):
    # at the base the read is alpha itself, as the reference traverse's is
    mat = _hyperbolic_fixing_base(3.0)
    direction = (math.cos(BASE_DIRECTION), math.sin(BASE_DIRECTION))
    assert sl2._dir_angle(*direction) == BASE_DIRECTION
    alpha = BASE_DIRECTION + k * math.pi  # the base is fixed, so any lift of it is one
    assert sl2._prefix_translation(mat, alpha, BASE_DIRECTION, direction) == (float(k), False)
    assert _reference_read(mat, alpha, BASE_DIRECTION, direction) == k
    # the opposite vector is the same direction, read on the base's side
    opposite = (-direction[0], -direction[1])
    assert sl2._prefix_translation(mat, alpha, BASE_DIRECTION, opposite) == (float(k), False)
    # an anchor that is no lift of the fixed base shows through
    with pytest.raises(ArithmeticError, match="not close to an integer"):
        sl2._prefix_translation(mat, alpha + 1e-5, BASE_DIRECTION, direction)
    # a few ulps away the image angle is within the rounding of alpha, on
    # either side of it
    near = [x for x in _ulps_around(BASE_DIRECTION, 16) if x != BASE_DIRECTION]
    for stretch in (1.5, 3.0, 10.0):
        mat = _hyperbolic_fixing_base(stretch)
        for th_b in near:
            direction = (math.cos(th_b), math.sin(th_b))
            assert round(_reference_read(mat, alpha, BASE_DIRECTION, direction)) == k
            assert sl2._prefix_translation(mat, alpha, BASE_DIRECTION, direction) == (float(k), False)


def test_a_negative_determinant_reaches_the_traverse():
    # the lift of an orientation-reversing map decreases; the read is the
    # reference traverse's at either fixed direction and any anchor
    c, s = math.cos(0.4), math.sin(0.4)
    cases = [(Mat2(1.0, 0.0, 0.0, -1.0), [(1.0, 0.0), (0.0, 1.0)]),
             (Mat2(3.0, 0.0, 0.0, -1.0 / 3.0), [(1.0, 0.0), (0.0, 1.0)]),
             (rotation(0.4) @ Mat2(2.0, 0.0, 0.0, -0.5) @ rotation(-0.4), [(c, s), (-s, c)])]
    u = (math.cos(BASE_DIRECTION), math.sin(BASE_DIRECTION))
    for mat, directions in cases:
        image = sl2._dir_angle(mat[0] * u[0] + mat[1] * u[1], mat[2] * u[0] + mat[3] * u[1])
        for direction in directions:
            for j in (-1, 0, 2):
                alpha = image + j * math.pi
                want = _reference_read(mat, alpha, BASE_DIRECTION, direction)
                assert abs(want - round(want)) <= 1e-9
                got = sl2._prefix_translation(mat, alpha, BASE_DIRECTION, direction)
                assert got == (float(round(want)), False)


@pytest.mark.parametrize("offset", [1e-3, 0.3, -1.0])
def test_a_direction_the_endpoint_does_not_fix_is_not_an_integer(offset):
    mat = _hyperbolic_fixing_base(3.0)
    theta = BASE_DIRECTION + offset
    with pytest.raises(ArithmeticError, match="not close to an integer"):
        sl2._prefix_translation(mat, BASE_DIRECTION, BASE_DIRECTION,
                                (math.cos(theta), math.sin(theta)))
