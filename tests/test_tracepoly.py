from __future__ import annotations

import random
from fractions import Fraction

from sl2arc.sl2 import Mat2
from sl2arc.tracepoly import TracePolynomial, X, Y, Z, character_of, trace_polynomial
from sl2arc.words import Word, commutator, evaluate, invert, parse_word

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
        lhs = trace_polynomial(w).evaluate(*character_of(ma, mb))
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
    gx, gy, gz = comm.gradient()
    assert gx == 2 * X - Y * Z
    assert gy == 2 * Y - X * Z
    assert gz == 2 * Z - X * Y
    h = comm.hessian()
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
    assert p.evaluate(*character_of(ma, mb)) == evaluate(w, ma, mb).trace()
