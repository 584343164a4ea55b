from __future__ import annotations

from fractions import Fraction

import pytest

from sl2arc import pretzel
from sl2arc.pretzel import (
    gradient_at,
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
from sl2arc.words import parse_word


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


def _formal_partials(poly, point):
    """Gradient and Hessian by evaluating the derivative polynomials in Fractions."""
    pt = tuple(Fraction(c) for c in point)
    grad = tuple(Fraction(g.evaluate(*pt)) for g in poly.gradient())
    hess = tuple(tuple(Fraction(h.evaluate(*pt)) for h in row) for row in poly.hessian())
    return grad, hess


def _assert_partials_match(poly, point):
    grad, hess = gradient_at(poly, point), hessian_at(poly, point)
    assert (grad, hess) == _formal_partials(poly, point)
    assert all(type(x) is Fraction for x in grad + hess[0] + hess[1] + hess[2])


@pytest.mark.parametrize("n", [1, 7, 50, 100])
def test_integer_partials_match_the_formal_derivatives(n):
    fam = make_family(n)
    polys = [*fam.curve_eqs, *(trace_polynomial(w) for w in (fam.m1, fam.m2, fam.longitude))]
    for point in (fam.chi, (Fraction(1, 3), 2, Fraction(-5, 7)), (Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6))):
        for poly in polys:
            _assert_partials_match(poly, point)


def test_partials_of_zero_and_constant_polynomials_vanish():
    for poly in (TracePolynomial(), TracePolynomial.constant(7)):
        for point in ((-2, 4, -2), (Fraction(1, 3), 2, Fraction(-5, 7))):
            assert gradient_at(poly, point) == (0, 0, 0)
            assert hessian_at(poly, point) == ((0, 0, 0),) * 3
            _assert_partials_match(poly, point)


@pytest.mark.parametrize("n", [1, 7, 50])
def test_exact_report_numbers_are_fractions(n):
    rep = verify_lemma(n)
    numbers = [x for row in rep.jacobian + rep.hessian for x in row]
    numbers += [rep.minor, rep.hessian_on_kernel]
    assert all(type(x) is Fraction for x in numbers)


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


@pytest.mark.parametrize("n", list(range(1, 51)) + [60, 80, 100])
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
