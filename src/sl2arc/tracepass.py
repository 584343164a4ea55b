"""Trace, gradient and image of a word in one pass of 2x2 products.

A word is spelled in letter codes (0, 1, 2, 3 for a, A, b, B), which index
four letter entry tuples (x11, x12, x21, x22); an inverse letter is the
adjugate, so over q = (a11, a12, a21, a22, b11, b12, b21, b22) the trace of
a word is a polynomial in the entries, equal to tr rho(W) where
det Ma = det Mb = 1.  The passes take the identity's one and zero from the
letter entries, so one code serves every number type: ints at the family's
integer representation give exact curve data, and floats along an arc give
the continuation constraints, with the same operations in the same order.
"""

from __future__ import annotations

_LETTER_CODES = {"a": 0, "A": 1, "b": 2, "B": 3}


def _codes(word) -> tuple:
    """The word's letter codes, one per letter."""
    return tuple(_LETTER_CODES[ch] for ch in word.spelled())


def _letters(q: tuple) -> tuple:
    """The entry tuples of a, A, b, B (inverse letters as adjugates)."""
    a11, a12, a21, a22, b11, b12, b21, b22 = q
    return ((a11, a12, a21, a22), (a22, -a12, -a21, a11),
            (b11, b12, b21, b22), (b22, -b12, -b21, b11))


def _identity(letters: tuple) -> tuple:
    """The identity's entry tuple in the number type of the letters (x ** 0
    is a float's 1.0 even for nan or inf, an int's 1, a Fraction's 1)."""
    one = letters[0][0] ** 0
    zero = one - one
    return one, zero, zero, one


def _suffix_products(mats: list, identity: tuple) -> list:
    """The suffix products of a word's letter matrices, from the identity
    (empty suffix) up to the whole product (the word's image), multiplied
    right to left."""
    s11, s12, s21, s22 = identity
    suffixes = [identity]
    for x11, x12, x21, x22 in reversed(mats):
        s11, s12, s21, s22 = (x11 * s11 + x12 * s21, x11 * s12 + x12 * s22,
                              x21 * s11 + x22 * s21, x21 * s12 + x22 * s22)
        suffixes.append((s11, s12, s21, s22))
    return suffixes


def _trace_pass(codes: tuple, letters: tuple) -> tuple:
    """Trace, gradient and image of one word in a single product pass.

    codes spells the word in letter codes, which index the four letter
    entry tuples in letters.  The gradient of tr(P X S) in the entries of X
    is (S P)^T, and an inverse letter is the adjugate, whose entries
    (d, -b, -c, a) turn N = S P into its adjugate (N22, -N12, -N21, N11)
    before the transpose.  Returns (trace, the 8 partials over q, image as
    an entry tuple).
    """
    identity = _identity(letters)
    mats = [letters[c] for c in codes]
    suffixes = _suffix_products(mats, identity)
    image = suffixes.pop()
    g0 = g1 = g2 = g3 = g4 = g5 = g6 = g7 = identity[1]
    p11, p12, p21, p22 = identity
    # the suffix after letter i, S, runs from mats[1:] down to the identity
    for code, (m11, m12, m21, m22), (s11, s12, s21, s22) in zip(codes, mats, reversed(suffixes)):
        n11 = s11 * p11 + s12 * p21
        n12 = s11 * p12 + s12 * p22
        n21 = s21 * p11 + s22 * p21
        n22 = s21 * p12 + s22 * p22
        if code & 1:
            n11, n12, n21, n22 = n22, -n12, -n21, n11
        if code < 2:
            g0 += n11
            g1 += n21
            g2 += n12
            g3 += n22
        else:
            g4 += n11
            g5 += n21
            g6 += n12
            g7 += n22
        p11, p12, p21, p22 = (p11 * m11 + p12 * m21, p11 * m12 + p12 * m22,
                              p21 * m11 + p22 * m21, p21 * m12 + p22 * m22)
    return image[0] + image[3], (g0, g1, g2, g3, g4, g5, g6, g7), image
