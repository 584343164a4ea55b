from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from sl2arc import tracepoly
from sl2arc.pretzel import make_family
from sl2arc.sl2 import Mat2
from sl2arc.tracepoly import (
    TracePolynomial,
    X,
    Y,
    Z,
    trace_of_spelling,
    trace_polynomial,
)
from sl2arc.words import WordSyntaxError, commutator, evaluate, invert, parse_word

from test_words import random_unimodular, random_word


def test_base_cases():
    assert str(trace_polynomial(parse_word(""))) == "2"
    assert str(trace_polynomial(parse_word("a"))) == "x"
    assert str(trace_polynomial(parse_word("b"))) == "y"
    assert str(trace_polynomial(parse_word("a b"))) == "z"
    assert str(trace_polynomial(parse_word("b a"))) == "z"
    assert str(trace_polynomial(parse_word("a^-1"))) == "x"
    assert str(trace_polynomial(parse_word("a b^-1"))) == "x*y - z"


def test_power_words_are_chebyshev_like():
    assert str(trace_polynomial(parse_word("a^2"))) == "x^2 - 2"
    assert str(trace_polynomial(parse_word("a^3"))) == "x^3 - 3*x"
    assert str(trace_polynomial(parse_word("b^2"))) == "y^2 - 2"


def test_known_small_words():
    assert str(trace_polynomial(parse_word("a^2 b"))) == "x*z - y"
    comm = commutator(parse_word("a"), parse_word("b"))
    assert str(trace_polynomial(comm)) == "x^2 + y^2 + z^2 - x*y*z - 2"


def test_print_order_positive_terms_first_graded_lex():
    p = X * Y - Z + TracePolynomial.constant(5) + X * X * X
    assert str(p) == "x^3 + x*y + 5 - z"
    assert str(TracePolynomial({})) == "0"
    assert str(-X) == "-x"
    assert str(2 * X - 3 * Y) == "2*x - 3*y"


def test_polynomial_ring_operations():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert (p - p).is_zero
    assert p.degree() == 2
    assert (X * Y * Z).degree() == 3
    assert 2 * X == X * 2 == X + X
    assert (X * 0).is_zero and (0 * p).is_zero
    for bad in (Fraction(1, 2), 1.5):
        for op in (lambda: X * bad, lambda: bad * X, lambda: X + bad, lambda: X - bad,
                   lambda: bad - X):
            with pytest.raises(TypeError, match="cannot combine"):
                op()


def test_constants_hash_as_their_integer():
    two, zero = TracePolynomial.constant(2), TracePolynomial()
    assert two == 2 and hash(two) == hash(2)
    assert zero == 0 and hash(zero) == hash(0)
    assert TracePolynomial.constant(0) == zero
    assert len({two, 2}) == 1 and len({zero, 0}) == 1
    assert {2: "two", 0: "zero"}[two] == "two"
    assert {two: "two", zero: "zero"}[2] == "two"
    assert {zero: "zero"}[0] == "zero"
    assert len({X, Y, X * 1, two, zero}) == 4


def test_evaluate_is_exact_on_rationals():
    p = trace_polynomial(parse_word("a^2 b"))
    v = p.evaluate(Fraction(1, 3), Fraction(2), Fraction(-5, 7))
    assert isinstance(v, Fraction)
    assert v == Fraction(1, 3) * Fraction(-5, 7) - 2


def test_matrix_oracle_randomized():
    """Compiled polynomials must reproduce actual matrix traces exactly."""
    rng = random.Random(20260814)
    for _ in range(300):
        ma, mb = random_unimodular(rng), random_unimodular(rng)
        w = random_word(rng, 12)
        lhs = trace_polynomial(w).evaluate(ma.trace(), mb.trace(), (ma @ mb).trace())
        rhs = evaluate(w, ma, mb).trace()
        assert lhs == rhs, w.spelled()


def test_trace_is_a_class_function():
    rng = random.Random(5)
    for _ in range(60):
        w = random_word(rng, 10)
        g = random_word(rng, 6)
        assert trace_polynomial(g * w * invert(g)) == trace_polynomial(w)
        assert trace_polynomial(invert(w)) == trace_polynomial(w)


def test_formal_gradient_and_hessian():
    comm = trace_polynomial(commutator(parse_word("a"), parse_word("b")))
    gx, gy, gz = (comm.derivative(i) for i in range(3))
    assert gx == 2 * X - Y * Z
    assert gy == 2 * Y - X * Z
    assert gz == 2 * Z - X * Y
    h = [[g.derivative(j) for j in "xyz"] for g in (gx, gy, gz)]
    assert h[0][0] == TracePolynomial.constant(2)
    assert h[0][1] == -Z and h[1][0] == -Z
    assert h[0][2] == -Y and h[2][0] == -Y
    assert h[1][2] == -X and h[2][1] == -X


def test_derivative_satisfies_product_and_sum_rules():
    rng = random.Random(9)
    for _ in range(40):
        p = trace_polynomial(random_word(rng, 8))
        q = trace_polynomial(random_word(rng, 8))
        for i in range(3):
            assert (p * q).derivative(i) == p * q.derivative(i) + q * p.derivative(i)
            assert (p + q).derivative(i) == p.derivative(i) + q.derivative(i)


def test_derivative_on_explicit_polynomial():
    p = TracePolynomial({(2, 1, 1): 3, (0, 0, 3): -7, (1, 0, 0): 5, (0, 0, 0): 9})
    assert p.derivative("x") == TracePolynomial({(1, 1, 1): 6, (0, 0, 0): 5})
    assert p.derivative("y") == TracePolynomial({(2, 0, 1): 3})
    assert p.derivative("z") == TracePolynomial({(2, 1, 0): 3, (0, 0, 2): -21})


def test_long_word_compiles():
    n = 60
    w = parse_word(f"a^{n + 1} b a b")
    p = trace_polynomial(w)
    ma = Mat2(-1, 1, 0, -1)
    mb = Mat2(2 * n + 1, n, 2, 1)
    assert p.evaluate(ma.trace(), mb.trace(), (ma @ mb).trace()) == evaluate(w, ma, mb).trace()
    rng = random.Random(60)
    for n in (1, 7, 50, 100):
        fam = make_family(n)
        p = trace_polynomial(fam.longitude)
        pairs = [(fam.rho_a, fam.rho_b)] + [(random_unimodular(rng), random_unimodular(rng))
                                            for _ in range(3)]
        for ma, mb in pairs:
            chi = ma.trace(), mb.trace(), (ma @ mb).trace()
            assert p.evaluate(*chi) == evaluate(fam.longitude, ma, mb).trace()


def _reduced_spellings(max_len: int) -> list:
    """Every freely reduced spelling of length at most max_len."""
    out = frontier = [""]
    for _ in range(max_len):
        frontier = [s + ch for s in frontier for ch in "abAB" if not s or s[-1] != ch.swapcase()]
        out = out + frontier
    return out


def test_fricke_identity_holds_at_every_cut(monkeypatch):
    """tr(UV) = tr(U) tr(V) - tr(U^-1 V) as exact polynomials."""
    monkeypatch.setattr(tracepoly, "_MEMO", {})

    def check(u, v):
        lhs = trace_of_spelling(u + v)
        rhs = trace_of_spelling(u) * trace_of_spelling(v) - trace_of_spelling(u[::-1].swapcase() + v)
        assert lhs == rhs, (u, v)

    spellings = _reduced_spellings(7)
    assert len(spellings) == 4373
    for s in spellings:
        for i in range(len(s) + 1):
            check(s[:i], s[i:])
    rng = random.Random(1972)
    for _ in range(200):
        check(random_word(rng, 16).spelled(), random_word(rng, 16).spelled())


def test_a_random_64_letter_word_compiles_in_two_seconds(monkeypatch):
    monkeypatch.setattr(tracepoly, "_MEMO", {})
    rng = random.Random(64)
    spelling = ""
    while len(spelling) < 64:
        ch = rng.choice("abAB")
        if not spelling or spelling[-1] != ch.swapcase():
            spelling += ch
    start = time.perf_counter()
    p = trace_of_spelling(spelling)
    assert time.perf_counter() - start < 2.0
    word = parse_word(spelling)
    for _ in range(4):
        ma, mb = random_unimodular(rng), random_unimodular(rng)
        assert p.evaluate(ma.trace(), mb.trace(), (ma @ mb).trace()) == evaluate(word, ma, mb).trace()


def test_unknown_letter_is_rejected():
    with pytest.raises(WordSyntaxError, match=r"unknown letter 'c' \(position 2\)") as info:
        trace_of_spelling("abcab")
    assert isinstance(info.value, ValueError) and info.value.position == 2
    with pytest.raises(ValueError, match=r"unknown letter ' ' \(position 0\)"):
        trace_of_spelling(" a")


# ----------------------------------------------------------------------
# the memo key against the plain definitions: free reduction letter by
# letter, then cyclic reduction


def _reference_free_reduction(s: str) -> str:
    out = []
    for ch in s:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _reference_key(s: str) -> str:
    s = _reference_free_reduction(s)
    while len(s) >= 2 and s[0] == s[-1].swapcase():
        s = s[1:-1]
    return s


def _check_keys(spellings):
    keys = set()
    for s in spellings:
        key = tracepoly._reduced(s)
        assert key == _reference_key(s), s
        keys.add(key)
    return keys


def test_reduced_keys_of_all_short_spellings():
    spellings = ("".join(t) for length in range(9) for t in itertools.product("abAB", repeat=length))
    # the empty word and, for each length n >= 1, 3^n + 2 + (-1)^n cyclically
    # reduced words
    assert len(_check_keys(spellings)) == 1 + sum(3 ** n + 2 + (-1) ** n for n in range(1, 9)) == 9857


def test_reduced_keys_of_long_random_spellings():
    rng = random.Random(20261018)
    spellings = []
    for _ in range(300):
        raw = [rng.choice("abAB") for _ in range(rng.randint(0, 220))]
        spellings.append("".join(raw))
        spellings.append(_reference_free_reduction("".join(raw)))
    # long runs of one letter, as in the family words a^(n+1) b a b
    spellings += [f"{'a' * k}bab{'A' * j}B" for k in (1, 50, 101) for j in (0, 3, 101)]
    _check_keys(spellings)


def test_a_conjugate_shares_its_reduced_forms_polynomial():
    assert trace_of_spelling("Bab") is trace_of_spelling("a")
