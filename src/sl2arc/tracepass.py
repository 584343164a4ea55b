"""Trace, gradient and image of a set of words in one pass of 2x2 products.

A word is spelled in letter codes (0, 1, 2, 3 for a, A, b, B), which index
four letter entry tuples (x11, x12, x21, x22); an inverse letter is the
adjugate, so over q = (a11, a12, a21, a22, b11, b12, b21, b22) the trace of
a word is a polynomial in the entries, equal to tr rho(W) where
det Ma = det Mb = 1.  The pass takes the identity's one and zero from the
letter entries, so one code serves every number type: ints at the family's
integer representation give exact curve data, and floats along an arc give
the continuation constraints, with the same operations in the same order.

The words of one set share heads and tails (m1, m2, m1 l1 and m2 l2 all
start with a^(n+1), and l2 ends m2 l2), so a TracePlan, built once per word
set, computes each distinct suffix product and each distinct prefix product
once per pass; the per-letter products S P and the gradient sums stay per
word, in the order of a word-by-word pass, so every result is bit for bit
the same.
"""

from __future__ import annotations

_LETTER_CODES = {"a": 0, "A": 1, "b": 2, "B": 3}


def _codes(word) -> tuple:
    """The word's letter codes, one per letter."""
    return tuple(map(_LETTER_CODES.__getitem__, word.spelled()))


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


def _common(x: tuple, y: tuple) -> int:
    """How many letters x and y share from their start, by halving: the
    slices compared add up to at most the shorter length."""
    lo, hi = 0, min(len(x), len(y))
    while lo < hi:  # x[:lo] == y[:lo], and they share at most hi letters
        mid = (lo + hi + 1) // 2
        if x[lo:mid] == y[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _plan(chains: list) -> tuple:
    """Share the product lists of chains of letter codes, each given in the
    order its letters are multiplied in.

    A chain's list runs from the identity through the product of its first
    k letters for every k.  List 0 is the identity's own, and chain i's is
    list i + 1.  The lists are built in the lexicographic order of their
    chains, where the longest head that a chain shares with any chain before
    it is the one it shares with the chain just before it; each list starts
    as a copy of that head of the list built before it, so the products made
    are the distinct nonempty heads of the chains.  Returns, per chain in
    that order, (its list, the list to copy from, how many entries to copy,
    the letters to multiply in after them).
    """
    steps, source, before = [], 0, ()
    for i in sorted(range(len(chains)), key=chains.__getitem__):
        chain = chains[i]
        depth = _common(chain, before)
        steps.append((i + 1, source, depth + 1, chain[depth:]))
        source, before = i + 1, chain
    return tuple(steps)


class TracePlan:
    """The shared suffix and prefix products of a tuple of coded words.

    Word i's suffix list runs from the identity up to its image, multiplied
    right to left; its prefix list runs from the identity up to the product
    of all letters but the last (the whole-word prefix is never read).  The
    plan keeps, per word and list, which list to copy the head from, how
    many entries to copy and which letters to multiply in after them.
    passes adds one product per letter of every word, and images makes the
    suffix products only.
    """

    def __init__(self, words):
        self.words = tuple(words)
        self.suffixes = _plan([codes[::-1] for codes in self.words])
        self.prefixes = _plan([codes[:-1] for codes in self.words])

    def _suffix_lists(self, letters: tuple) -> list:
        """The identity's list, then each word's suffix list."""
        lists = [[_identity(letters)]] + [None] * len(self.words)
        for i, source, keep, todo in self.suffixes:
            chain = lists[source][:keep]
            s11, s12, s21, s22 = chain[-1]
            for code in todo:
                x11, x12, x21, x22 = letters[code]
                s11, s12, s21, s22 = (x11 * s11 + x12 * s21, x11 * s12 + x12 * s22,
                                      x21 * s11 + x22 * s21, x21 * s12 + x22 * s22)
                chain.append((s11, s12, s21, s22))
            lists[i] = chain
        return lists

    def images(self, letters: tuple) -> list:
        """Each word's image as an entry tuple: the suffix half of a pass."""
        return [chain[-1] for chain in self._suffix_lists(letters)[1:]]

    def passes(self, letters: tuple) -> list:
        """(trace, the 8 partials over q, image as an entry tuple) of each word.

        letters are the four letter entry tuples.  The gradient of tr(P X S)
        in the entries of X is (S P)^T, and an inverse letter is the
        adjugate, whose entries (d, -b, -c, a) turn N = S P into its
        adjugate (N22, -N12, -N21, N11) before the transpose.
        """
        suffix_lists = self._suffix_lists(letters)
        zero = suffix_lists[0][0][1]
        prefix_lists = [suffix_lists[0]] + [None] * len(self.words)
        for i, source, keep, todo in self.prefixes:
            chain = prefix_lists[source][:keep]
            p11, p12, p21, p22 = chain[-1]
            for code in todo:
                x11, x12, x21, x22 = letters[code]
                p11, p12, p21, p22 = (p11 * x11 + p12 * x21, p11 * x12 + p12 * x22,
                                      p21 * x11 + p22 * x21, p21 * x12 + p22 * x22)
                chain.append((p11, p12, p21, p22))
            prefix_lists[i] = chain
        out = []
        for codes, suffixes, prefixes in zip(self.words, suffix_lists[1:], prefix_lists[1:]):
            g0 = g1 = g2 = g3 = g4 = g5 = g6 = g7 = zero
            # letter i meets the suffix after it, S, and the prefix before it, P
            after = reversed(suffixes)
            image = next(after)
            for code, (s11, s12, s21, s22), (p11, p12, p21, p22) in zip(codes, after, prefixes):
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
            out.append((image[0] + image[3], (g0, g1, g2, g3, g4, g5, g6, g7), image))
        return out
