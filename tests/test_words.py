from __future__ import annotations

import dataclasses
import random

import pytest

from sl2arc.sl2 import Mat2
from sl2arc.words import (
    Word,
    WordSyntaxError,
    commutator,
    evaluate,
    invert,
    parse_word,
)


def random_word(rng: random.Random, max_len: int = 12) -> Word:
    spelling = "".join(rng.choice("abAB") for _ in range(rng.randint(0, max_len)))
    return parse_word(spelling)


def random_unimodular(rng: random.Random) -> Mat2:
    while True:
        a, b, c = rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)
        if a != 0 and (1 + b * c) % a == 0:
            return Mat2(a, b, c, (1 + b * c) // a)


def test_parse_and_spell_round_trip():
    w = parse_word("a^2 b a b")
    assert w.spelled() == "aabab"
    assert str(w) == "a^2 b a b"
    assert len(w) == 5
    assert parse_word(str(w)) == w


def test_a_word_is_its_reduced_spelling():
    assert [f.name for f in dataclasses.fields(Word)] == ["spelling"]
    assert Word("abBAab") == Word("ab") and Word("aA").is_identity
    w = parse_word("a^-3 (ba)^2 B")
    assert w.spelled() == "AAAbabaB" and len(w) == 8
    assert str(w) == "a^-3 b a b a b^-1" and parse_word(str(w)) == w
    assert parse_word("a (ab)^-1 b") == Word("aBAb")
    assert parse_word("A^-2 B^2 (a B)^-2") == Word("aaBBbAbA") == Word("aaBAbA")
    assert (w ** 2).spelled() == "AAAbabaBAAAbabaB" and (w ** -1).spelled() == "bABABaaa"
    assert str(Word()) == "1" and Word() ** 5 == Word() and w ** 0 == Word()


def test_parse_inverse_exponents():
    w = parse_word("b^-1 a b")
    assert w.spelled() == "Bab"
    assert parse_word("a^-3").spelled() == "AAA"


def test_parse_whitespace_and_empty():
    assert parse_word("  ") .is_identity
    assert parse_word("a   b") == parse_word("a b")


def test_parse_errors_carry_position():
    with pytest.raises(WordSyntaxError):
        parse_word("a c")
    with pytest.raises(WordSyntaxError):
        parse_word("a^")
    with pytest.raises(WordSyntaxError):
        parse_word("a^0 b")
    try:
        parse_word("ab q")
    except WordSyntaxError as e:
        assert e.position == 3


def test_free_reduction():
    assert (parse_word("a") * parse_word("a^-1")).is_identity
    assert (parse_word("a b") * parse_word("b^-1 a^-1")).is_identity
    w = parse_word("a b b^-1 a")
    assert w.spelled() == "aa"


def test_group_laws_randomized():
    rng = random.Random(11)
    for _ in range(200):
        u, v, w = (random_word(rng) for _ in range(3))
        assert (u * v) * w == u * (v * w)
        assert (u * invert(u)).is_identity
        assert invert(u * v) == invert(v) * invert(u)
        assert u ** 3 == u * u * u
        assert u ** -2 == invert(u) * invert(u)


def test_commutator_spelling():
    assert commutator(parse_word("a"), parse_word("b")).spelled() == "abAB"


def test_evaluate_matches_manual_product():
    ma = Mat2(-1, 1, 0, -1)
    mb = Mat2(3, 1, 2, 1)
    w = parse_word("a^2 b a^-1")
    expected = ma @ ma @ mb @ ma.inverse()
    assert evaluate(w, ma, mb) == expected


def test_evaluate_is_a_homomorphism():
    rng = random.Random(23)
    for _ in range(100):
        ma, mb = random_unimodular(rng), random_unimodular(rng)
        u, v = random_word(rng), random_word(rng)
        assert evaluate(u * v, ma, mb) == evaluate(u, ma, mb) @ evaluate(v, ma, mb)
        assert evaluate(invert(u), ma, mb) == evaluate(u, ma, mb).inverse()
    assert evaluate(Word(), ma, mb) == Mat2.identity()
