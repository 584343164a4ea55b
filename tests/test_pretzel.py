from __future__ import annotations

import dataclasses
import random
import types
from fractions import Fraction

import numpy as np
import pytest

from sl2arc import pretzel, sl2, tracepoly
from sl2arc.arc import continue_arc
from sl2arc.pretzel import (
    _FLOAT_TOL,
    N_CAP,
    FamilyInstance,
    _character_frame,
    _commutator_hessian,
    _exact_curve_data,
    _longitude_hessian,
    _magnitudes,
    analyze_curve,
    gradient_at,
    gradient_m2_closed_form,
    hessian_at,
    hessian_closed_form,
    image_closed_forms,
    jacobian_closed_form,
    kernel_closed_form,
    lin_presentation,
    make_family,
    verify_lemma,
)
from sl2arc.sl2 import Mat2
from sl2arc.tracepoly import TracePolynomial, trace_polynomial
from sl2arc.words import commutator, parse_word

from references import character_frame
from test_words import random_unimodular, random_word


def test_make_family_populates_documented_fields():
    fam = make_family(1)
    assert fam.rho_b == Mat2(3, 1, 2, 1)
    assert fam.rho_a == Mat2(-1, 1, 0, -1)
    assert fam.chi == (-2, 4, -2)
    assert make_family(2).chi == (-2, 6, -4)
    assert fam.m1.spelled() == "aabab"
    assert fam.m2.spelled() == "aaba"
    assert fam.l1.spelled() == "Bab"
    assert fam.l2.spelled() == "Baba"
    assert fam.longitude == fam.m1 * fam.l1 * fam.m1.inverse() * fam.l1.inverse()


@pytest.mark.parametrize("n", [1, 2, 5, 50, 100])
def test_make_family_words_match_their_literal_spellings(n):
    # the words come from the relators of lin_presentation(-2, 1, n); these
    # literals are the spellings they replaced
    fam = make_family(n)
    m1 = parse_word(f"a^{n + 1} b a b")
    l1 = parse_word("b^-1 a b")
    assert fam.m1 == m1
    assert fam.m2 == parse_word(f"a^{n + 1} b a")
    assert fam.l1 == l1
    assert fam.l2 == parse_word("b^-1 a b a")
    assert fam.longitude == m1 * l1 * m1.inverse() * l1.inverse()


def test_make_family_rejects_bad_n():
    with pytest.raises(ValueError):
        make_family(0)
    with pytest.raises(ValueError):
        make_family(-3)
    with pytest.raises(ValueError):
        make_family(10_001)
    for flag in (True, False):
        with pytest.raises(ValueError):
            make_family(flag)


def test_partials_of_zero_and_constant_polynomials_vanish():
    for poly in (TracePolynomial(), TracePolynomial.constant(7)):
        for point in ((-2, 4, -2), (Fraction(1, 3), 2, Fraction(-5, 7))):
            grad, hess = gradient_at(poly, point), hessian_at(poly, point)
            assert grad == (0, 0, 0) and hess == ((0, 0, 0),) * 3
            assert all(type(x) is Fraction for x in grad + hess[0] + hess[1] + hess[2])


@pytest.mark.parametrize("n", [1, 7, 50])
def test_exact_report_numbers_are_fractions(n):
    rep = verify_lemma(n)
    numbers = [x for row in rep.jacobian + rep.hessian for x in row]
    numbers += [rep.minor, rep.hessian_on_kernel]
    assert all(type(x) is Fraction for x in numbers)


@pytest.mark.parametrize("n", list(range(1, 13)) + [50])
def test_commutator_hessian_equals_the_longitude_polynomials_hessian(n):
    fam = make_family(n)
    _, gradients, traces, _ = _exact_curve_data(fam)
    hess = _longitude_hessian(fam, gradients, traces)
    assert hess == hessian_at(trace_polynomial(fam.longitude), fam.chi)
    assert all(type(x) is Fraction for row in hess for x in row)


def test_commutator_hessian_at_random_words_and_rational_points():
    # _commutator_hessian is the J^T Hess(k) J term of the chain rule through
    # Fricke's k; with the sum_i k_i Hess(P_i) term added here it must give
    # the Hessian of the commutator's own polynomial
    rng = random.Random(20261018)
    live = 0
    for _ in range(40):
        u, v = random_word(rng, 8), random_word(rng, 8)
        point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3))
        polys = [trace_polynomial(w) for w in (u, v, u * v)]
        p, q, r = (poly.evaluate(*point) for poly in polys)
        hess = _commutator_hessian((p, q, r), [gradient_at(poly, point) for poly in polys])
        for k, poly in zip((2 * p - q * r, 2 * q - p * r, 2 * r - p * q), polys):
            hp = hessian_at(poly, point)
            hess = tuple(tuple(h + k * x for h, x in zip(row, prow)) for row, prow in zip(hess, hp))
        assert hess == hessian_at(trace_polynomial(commutator(u, v)), point)
        assert all(type(x) is Fraction for row in hess for x in row)
        live += any((2 * p - q * r, 2 * q - p * r, 2 * r - p * q))
    # most cases take the Hess(P_i) terms, so the identity is tested off chi_n too
    assert live >= 20


def test_a_longitude_whose_fricke_partials_do_not_vanish_is_refused():
    # l1 spelled as l2 puts (tr m1, tr l1, tr m1 l1) off the critical points
    # of k, where the first-order data cannot give the Hessian
    fam = make_family(1)
    bad = dataclasses.replace(fam, l1=fam.l2)
    _, gradients, traces, _ = _exact_curve_data(bad)
    with pytest.raises(ValueError, match="Hessian"):
        _longitude_hessian(bad, gradients, traces)


@pytest.mark.parametrize("n", [1, 7])
def test_the_longitude_polynomial_is_never_compiled(n, monkeypatch):
    # a fresh, empty memo: any compilation adds its word's key to it
    monkeypatch.setattr(tracepoly, "_MEMO", {})
    for name in ("gradient_at", "hessian_at"):
        monkeypatch.setattr(pretzel, name, lambda *args, name=name: pytest.fail(f"{name} pass"))
    fam = make_family(n)
    verify_lemma(n)
    verify_lemma(n, exact=False)
    analyze_curve(fam)
    assert len(continue_arc(fam, max_steps=5).samples) == 6
    assert tracepoly._MEMO == {}


@pytest.mark.parametrize("n", [1, 7])
def test_the_exact_curve_data_are_computed_once_per_family(n, monkeypatch):
    # analyze_curve and continue_arc read one integer pass
    calls = []

    def counted(fam):
        calls.append(fam.n)
        return _exact_curve_data(fam)

    monkeypatch.setattr(pretzel, "_exact_curve_data", counted)
    fam = make_family(n)
    analysis = analyze_curve(fam)
    assert len(continue_arc(fam, max_steps=5).samples) == 6
    assert calls == [n]
    assert analysis.jacobian is fam.exact_curve_data[0]
    assert fam.exact_curve_data == _exact_curve_data(make_family(n))


_CURVE_WORDS = ("m1", "m2", "l1", "l2", "m1l1", "m2l2")


@pytest.mark.parametrize("n", range(1, 51))
def test_matrix_route_gradients_match_the_trace_polynomials(n):
    fam = make_family(n)
    jac, gradients, traces, images = _exact_curve_data(fam)
    for name in _CURVE_WORDS:
        word = getattr(fam, name)
        poly = trace_polynomial(word)
        assert gradients[word] == gradient_at(poly, fam.chi), name
        assert traces[word] == poly.evaluate(*fam.chi) == fam.image(word).trace(), name
        assert images[word] == fam.image(word) == image_closed_forms(n)[name], name
        assert all(type(x) is int for x in images[word]), name
    assert jac == tuple(gradient_at(eq, fam.chi) for eq in fam.curve_eqs)
    assert all(type(x) is Fraction for row in jac for x in row)


@pytest.mark.parametrize("n", [1000, 5000, 10_000])
def test_matrix_route_matches_the_closed_forms_far_out(n):
    fam = make_family(n)
    jac, gradients, traces, images = _exact_curve_data(fam)
    assert jac == jacobian_closed_form(n) == fam.exact_curve_data[0]
    assert {name: images[getattr(fam, name)] for name in _CURVE_WORDS} == image_closed_forms(n)
    assert gradients[fam.m2] == gradient_m2_closed_form(n)
    assert _longitude_hessian(fam, gradients, traces) == hessian_closed_form(n)
    analysis = analyze_curve(fam)
    k0 = kernel_closed_form(n)[0]
    assert analysis.rank == 2
    assert analysis.kernel_basis == tuple(Fraction(12 * k, k0) for k in kernel_closed_form(n))


def test_a_reducible_pair_raises_value_error():
    # rho_a and rho_b both upper triangular: tr[a, b] = 2, and the
    # character map has rank below 3 there
    fam = dataclasses.replace(make_family(1), rho_b=Mat2(1, 1, 0, 1))
    with pytest.raises(ValueError, match="reducible"):
        fam.exact_curve_data[0]
    with pytest.raises(ValueError, match="reducible"):
        analyze_curve(fam)


@pytest.mark.parametrize("n", [*range(1, 51), 1000, N_CAP])
def test_the_integer_frame_matches_the_fraction_reference(n):
    fam = make_family(n)
    assert _character_frame(fam.rho_a, fam.rho_b) == character_frame(fam.rho_a, fam.rho_b)


def test_the_integer_frame_matches_the_fraction_reference_on_random_pairs():
    # a reducible pair (tr[a, b] = 2) raises the reference's ValueError
    rng = random.Random(20261022)
    outcomes = []
    for _ in range(200):
        a, b = random_unimodular(rng), random_unimodular(rng)
        try:
            want = character_frame(a, b)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _character_frame(a, b)
            assert str(got.value) == str(exc)
            assert (a @ b @ a.inverse() @ b.inverse()).trace() == 2
            outcomes.append("reducible")
            continue
        assert _character_frame(a, b) == want, (a, b)
        outcomes.append("frame")
    assert outcomes.count("frame") >= 150 and outcomes.count("reducible") >= 1


@pytest.mark.parametrize("n", [1, 21, 50])
def test_analyze_curve_eliminates_the_jacobian_once(n, monkeypatch):
    # one elimination of J, then one of [J; g] per local-coordinate verdict
    fam = make_family(n)
    jac = fam.exact_curve_data[0]  # the character frame's elimination
    sizes = []
    eliminate = sl2._eliminate

    def counted(m):
        sizes.append(len(m))
        return eliminate(m)

    monkeypatch.setattr(sl2, "_eliminate", counted)
    analysis = analyze_curve(fam)
    assert analysis.rank == 2 and len(analysis.local_coordinate_verdicts) == 3
    assert sizes == [len(jac), len(jac) + 1, len(jac) + 1, len(jac) + 1]


@pytest.mark.parametrize("exact, calls", [(False, 1), (True, 0)])
def test_the_float_report_takes_one_svd(exact, calls, monkeypatch):
    count = []

    def svd(*args, **kwargs):
        count.append(1)
        return np.linalg.svd(*args, **kwargs)

    linalg = types.ModuleType(np.linalg.__name__)
    linalg.__dict__.update(vars(np.linalg), svd=svd)
    proxy = types.ModuleType(np.__name__)
    proxy.__dict__.update(vars(np), linalg=linalg)
    monkeypatch.setattr(pretzel, "np", proxy)
    assert verify_lemma(7, exact=exact).all_pass
    assert len(count) == calls


def _abs_terms(poly, point) -> int:
    """Sum of |coefficient * monomial| at point, exact."""
    x, y, z = (abs(c) for c in point)
    return sum(abs(c) * x ** i * y ** j * z ** k for (i, j, k), c in poly.terms.items())


@pytest.mark.parametrize("n", range(1, 51))
def test_the_residue_scale_is_no_looser_than_the_polynomial_terms(n):
    # From n = 6 the magnitude scale is at most the sum |c * monomial| that
    # the float twin used before.  For n <= 5 no product-of-magnitudes scale
    # can be (at n = 1, tr(|X_1| ... |X_L|) is 46 for m1 and 10 for m2,
    # against 36 for their polynomial), but there both tolerances lie below
    # 1/2, and a nonzero residue at rho_n is a nonzero integer: both reject
    # exactly the residues that the exact report rejects.
    fam = make_family(n)
    for (w1, w2), eq in zip(fam.curve_pairs, fam.curve_eqs, strict=True):
        magnitudes = _magnitudes(fam)
        scale, reference = magnitudes[w1] + magnitudes[w2], _abs_terms(eq, fam.chi)
        assert scale > 0 and _FLOAT_TOL * scale < 0.5
        assert scale <= reference or (n <= 5 and _FLOAT_TOL * reference < 0.5)


@pytest.mark.parametrize("n", [1, 50, 100])
def test_both_modes_reject_a_curve_pair_that_disagrees(n, monkeypatch):
    # the third pair becomes (m1 l1, m2), whose traces 2s and -2s differ by 4
    pairs = FamilyInstance.curve_pairs.fget
    monkeypatch.setattr(FamilyInstance, "curve_pairs", property(
        lambda fam: pairs(fam)[:2] + ((fam.m1l1, fam.m2),)))
    for exact in (True, False):
        rep = verify_lemma(n, exact=exact)
        failed = {a.name: a.witness for a in rep.assertions if not a.holds}
        assert "curve_equations_vanish_at_chi" in failed, (exact, failed)
        residues = tuple(map(int if exact else float, (0, 0, 4 * (-1) ** n)))
        assert failed["curve_equations_vanish_at_chi"] == f"residues {residues}"


def test_curve_equations_vanish_at_chi_for_many_n():
    for n in (1, 2, 3, 7, 20):
        fam = make_family(n)
        for eq in fam.curve_eqs:
            assert eq.evaluate(*fam.chi) == 0


def test_image_closed_forms_match_direct_products():
    for n in range(1, 12):
        fam = make_family(n)
        closed = image_closed_forms(n)
        assert fam.image(fam.m1) == closed["m1"]
        assert fam.image(fam.m2) == closed["m2"]
        assert fam.image(fam.l1) == closed["l1"]
        assert fam.image(fam.l2) == closed["l2"]
        assert fam.image(fam.m1l1) == closed["m1l1"]
        assert fam.image(fam.m2l2) == closed["m2l2"]
        for m in closed.values():
            assert m.det() == 1


def test_compiler_and_evaluator_agree_on_family_words():
    for n in (1, 2, 5):
        fam = make_family(n)
        for w in (fam.m1, fam.m2, fam.l1, fam.l2, fam.m1l1, fam.m2l2, fam.longitude):
            assert trace_polynomial(w).evaluate(*fam.chi) == fam.image(w).trace()


def test_longitude_image_is_identity():
    for n in (1, 2, 3, 10):
        fam = make_family(n)
        assert fam.image(fam.longitude) == Mat2.identity()


def test_verify_lemma_passes_n1_with_expected_witnesses():
    rep = verify_lemma(1)
    assert rep.all_pass
    assert rep.jacobian == ((-1, 0, 1), (9, 4, 4), (24, 12, 15))
    assert rep.rank == 2
    assert rep.minor == -4
    assert rep.kernel == (12, -39, 12)
    assert rep.hessian == ((32, 16, 32), (16, 8, 16), (32, 16, 32))
    assert rep.hessian_on_kernel == 648
    assert rep.local_coordinates == {"tr_m1": True, "tr_m2": True}
    names = [a.name for a in rep.assertions]
    assert len(names) == len(set(names))


def test_the_hessian_on_the_kernel_is_72_times_the_square_of_2n_plus_1():
    # H = 8 g g^T and g . k = 3(2n+1), so k^T H k = 72 (2n+1)^2 exactly
    for n in [*range(1, 51), 1000, N_CAP]:
        assert analyze_curve(make_family(n)).hessian_on_kernel == 72 * (2 * n + 1) ** 2, n


def test_verify_lemma_report_serializations():
    rep = verify_lemma(2)
    text = rep.text()
    assert text.splitlines()[0] == "family n=2: PASS"
    assert all(line.startswith("  PASS") for line in text.splitlines()[1:])
    for line in rep.kv_lines():
        parts = line.split(" ", 2)
        assert parts[1] in ("PASS", "FAIL")


def test_verify_lemma_range_is_exact_for_all_small_n():
    for n in range(1, 26):
        assert verify_lemma(n).all_pass, n


_FLOAT_HESSIAN_REACH = pytest.mark.xfail(strict=True, reason=(
    "at n = 207 the float report fails hessian_nonzero_on_kernel alone: the "
    "value 12386304.0 is 7.0e-15 of the sum 1.78e21 of |k_i H_ij k_j|, below "
    "the 64 u tolerance, so the comparator's scale for the Hessian on the "
    "kernel is too coarse from here on (ROADMAP item 4, a float error budget)"))


@pytest.mark.parametrize("n", list(range(1, 51)) + [60, 80, 100, 206,
                                                    pytest.param(207, marks=_FLOAT_HESSIAN_REACH)])
def test_float_report_mirrors_exact_report(n):
    exact, approx = verify_lemma(n), verify_lemma(n, exact=False)
    assert [a.name for a in approx.assertions] == [a.name for a in exact.assertions]
    assert [a.name for a in approx.assertions if not a.holds] == []
    assert not [a.witness for a in approx.assertions if "np." in a.witness]
    numbers = [x for row in approx.jacobian + approx.hessian for x in row]
    numbers += [*approx.kernel, approx.minor, approx.hessian_on_kernel]
    assert all(type(x) is float for x in numbers)


@pytest.mark.parametrize("n", [1, 50, 100])
def test_both_modes_reject_a_wrong_kernel_vector(n, monkeypatch):
    k0, k1, k2 = kernel_closed_form(n)
    monkeypatch.setattr(pretzel, "kernel_closed_form", lambda n: (k0, k1, k2 + 1))
    for exact in (True, False):
        failed = [a.name for a in verify_lemma(n, exact=exact).assertions if not a.holds]
        assert failed == ["kernel_vector_annihilated"], (exact, failed)


def test_jacobian_closed_form_entries_are_integers():
    for n in (1, 2, 3, 4, 9):
        for row in jacobian_closed_form(n):
            for x in row:
                assert Fraction(x).denominator == 1
        for row in hessian_closed_form(n):
            for x in row:
                assert Fraction(x).denominator == 1
        assert all(isinstance(k, int) for k in kernel_closed_form(n))


def test_lin_presentation_verbatim_examples():
    assert lin_presentation(1, 1, 1).relators == (
        "t a^2 (ba) b t^-1 = a^2 (ba)",
        "t b^2 (ab) t^-1 = b^2 (ab) a",
    )
    assert lin_presentation(0, 0, 0).relators == (
        "t a b t^-1 = a",
        "t b t^-1 = b a",
    )


def test_lin_presentation_round_trip():
    for trip in [(1, 1, 1), (0, 0, 0), (-2, 1, 4), (3, -2, 0)]:
        pres = lin_presentation(*trip)
        p, q, r = trip
        gens = ("a", "b", "t")
        t = parse_word("t", gens)
        a = parse_word("a", gens)
        b = parse_word("b", gens)
        core1 = a ** (r + 1) * (b * a) ** q
        core2 = b ** (p + 1) * (a * b) ** q
        (lhs1, rhs1), (lhs2, rhs2) = pres.parsed_sides()
        assert lhs1 == t * core1 * b * t ** -1
        assert rhs1 == core1
        assert lhs2 == t * core2 * t ** -1
        assert rhs2 == core2 * a
