from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sl2arc import sl2
from sl2arc.arc import continue_arc
from sl2arc.pretzel import make_family
from sl2arc.sl2 import (
    BASE_DIRECTION,
    Conjugacy,
    ContinuityError,
    Mat2,
    MatClass,
    _intertwiner_rows,
    classify,
    conjugation_delta_formulas,
    eigen_data,
    exact_nullspace,
    exact_rank,
    frobenius_distance,
    relation_residual,
    rotation,
    same_trace_conjugacy,
    solve_conjugator,
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


def test_hyperbolic_eigendata_exact_when_discriminant_is_square():
    m = Mat2(0, -1, 1, Fraction(5, 2))
    pairs = eigen_data(m)
    assert pairs[0][0] == 2 and pairs[1][0] == Fraction(1, 2)
    for lam, (vx, vy) in pairs:
        assert isinstance(vx, int) and isinstance(vy, int)
        assert m.a * vx + m.b * vy == lam * vx
        assert m.c * vx + m.d * vy == lam * vy


def test_parabolic_eigendata():
    pairs = eigen_data(Mat2(1, 0, -3, 1))
    assert pairs == ((1, (0, 1)),)
    assert eigen_data(Mat2(-1, 0, 0, -1)) == ((-1, (1, 0)),)


def test_elliptic_eigendata_raises():
    with pytest.raises(ValueError):
        eigen_data(rotation(0.3))


# ----------------------------------------------------------------------
# conjugator solving


def test_conjugator_recovers_known_conjugation():
    g = Mat2(2, 1, 1, 1)
    a = Mat2(1, 1, 0, 1)
    res = solve_conjugator([(a, g @ a @ g.inverse())])
    assert res.det_sign == 1
    assert res.residual < 1e-12
    c = res.candidate
    assert frobenius_distance(c @ a.to_float() @ c.inverse(), (g @ a @ g.inverse()).to_float()) < 1e-12


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
    g = Mat2(2, 1, 1, 1)
    a = Mat2(1, 1, 0, 1)
    b = g @ a @ g.inverse()
    exact = solve_conjugator([(a, b)])
    approx = solve_conjugator([(a.to_float(), b.to_float())])
    assert exact.det_sign == approx.det_sign == 1
    assert approx.residual < 1e-10


# The Mat2 forms of the intertwiner rows, the relation residual and the
# longitude: the references that the entry forms must match bit for bit.

def _reference_intertwiner_rows(pairs):
    rows = []
    for a, b in pairs:
        aa = ((a.a, a.b), (a.c, a.d))
        bb = ((b.a, b.b), (b.c, b.d))
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
    return math.sqrt(float(m.a) ** 2 + float(m.b) ** 2 + float(m.c) ** 2 + float(m.d) ** 2)


def _reference_relation_residual(g, pairs):
    g_norm = _reference_frobenius(g)
    return max(_reference_frobenius(g @ a - b @ g)
               / max(1.0, g_norm * max(_reference_frobenius(a), _reference_frobenius(b)))
               for a, b in pairs)


def _bits(values) -> bytes:
    """The IEEE-754 bytes of floats: comparing them with == is equality of
    every value and of the sign of every zero."""
    return np.asarray(values, dtype=float).tobytes()


def _check_against_references(pair_lists, monkeypatch):
    """Rows, residuals and whole solve_conjugator results of the entry forms
    equal those of the Mat2 forms, with exact results equal as Fractions."""
    results = [solve_conjugator(pairs) for pairs in pair_lists]
    with monkeypatch.context() as patched:
        patched.setattr(sl2, "_intertwiner_rows", _reference_intertwiner_rows)
        patched.setattr(sl2, "relation_residual", _reference_relation_residual)
        references = [solve_conjugator(pairs) for pairs in pair_lists]
    for pairs, got, want in zip(pair_lists, results, references):
        rows, want_rows = _intertwiner_rows(pairs), _reference_intertwiner_rows(pairs)
        assert [list(r) for r in rows] == want_rows
        if not all(a.exact and b.exact for a, b in pairs):
            assert _bits(rows) == _bits(want_rows)
        assert got == want
        if got.candidate is not None:
            assert _bits(got.candidate.entries()) == _bits(want.candidate.entries())
            for g in (got.candidate, got.candidate.neg()):
                for some in (pairs, pairs[:1], [(a, a) for a, _ in pairs]):
                    residual = relation_residual(g, some)
                    assert _bits(residual) == _bits(_reference_relation_residual(g, some))
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
    assert any(r.candidate.exact for r in results if r.candidate is not None)


def test_exact_linear_algebra_helpers():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert exact_rank(rows) == 2
    for v in exact_nullspace(rows):
        for row in rows:
            assert sum(Fraction(r) * c for r, c in zip(row, v)) == 0


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
