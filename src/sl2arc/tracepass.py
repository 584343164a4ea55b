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
set, keeps two tries of single letters: one over the reversed words, whose
nodes are the distinct suffixes, and one over the words short of their last
letter, whose nodes are the distinct prefixes.  A pass makes one product per
node, from its parent's product and its letter.  For the per-letter
products S P, the plan precomputes each word's image node and, per letter,
the triple (letter code, suffix node after it, prefix node before it), so a
pass loops over plain tuples; the products and the gradient sums stay per
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


def _trie(chains) -> tuple:
    """The trie of the heads of chains of letter codes: (nodes, paths).

    nodes holds (letter code, parent node) per node, in the order they were
    made; node 0 is the empty head (None), and every parent comes before
    its child, found under the key 4 * parent + code.  paths holds, per
    chain, the node of its head of each length from 0 up.
    """
    nodes, children, paths = [None], {}, []
    for chain in chains:
        node, path = 0, [0]
        for code in chain:
            child = children.setdefault(4 * node + code, len(nodes))
            if child == len(nodes):
                nodes.append((code, node))
            node = child
            path.append(node)
        paths.append(path)
    return nodes, paths


class TracePlan:
    """The shared suffix and prefix products of a tuple of coded words.

    suffixes is the _trie of the reversed words: a node's product is its
    letter times its parent's, and the last node of word i's path holds its
    image.  prefixes is the _trie of the words short of their last letter
    (the whole-word prefix is never read): a node's product is its parent's
    times its letter.  Per word, the plan keeps its image node and, per
    letter, the triple (letter code, suffix node after it, prefix node
    before it).  passes makes both products plus one per letter of every
    word, and images makes the suffix products only.
    """

    def __init__(self, words):
        self.words = tuple(words)
        self.suffixes = _trie(codes[::-1] for codes in self.words)
        self.prefixes = _trie(codes[:-1] for codes in self.words)
        self._image_nodes = [path[-1] for path in self.suffixes[1]]
        self._triples = [tuple(zip(codes, reversed(suffix_path[:-1]), prefix_path))
                         for codes, suffix_path, prefix_path
                         in zip(self.words, self.suffixes[1], self.prefixes[1])]

    def _suffix_products(self, letters: tuple) -> list:
        """The product of every suffix node, by node id."""
        products = [_identity(letters)]
        for code, parent in self.suffixes[0][1:]:
            x11, x12, x21, x22 = letters[code]
            s11, s12, s21, s22 = products[parent]
            products.append((x11 * s11 + x12 * s21, x11 * s12 + x12 * s22,
                             x21 * s11 + x22 * s21, x21 * s12 + x22 * s22))
        return products

    def images(self, letters: tuple) -> list:
        """Each word's image as an entry tuple: the suffix half of a pass."""
        products = self._suffix_products(letters)
        return [products[node] for node in self._image_nodes]

    def passes(self, letters: tuple) -> list:
        """(trace, the 8 partials over q, image as an entry tuple) of each word.

        letters are the four letter entry tuples.  The gradient of tr(P X S)
        in the entries of X is (S P)^T, and an inverse letter is the
        adjugate, whose entries (d, -b, -c, a) turn N = S P into its
        adjugate (N22, -N12, -N21, N11) before the transpose.
        """
        suffixes = self._suffix_products(letters)
        prefixes = [suffixes[0]]
        for code, parent in self.prefixes[0][1:]:
            x11, x12, x21, x22 = letters[code]
            p11, p12, p21, p22 = prefixes[parent]
            prefixes.append((p11 * x11 + p12 * x21, p11 * x12 + p12 * x22,
                             p21 * x11 + p22 * x21, p21 * x12 + p22 * x22))
        zero = suffixes[0][1]
        out = []
        for node, triples in zip(self._image_nodes, self._triples):
            g0 = g1 = g2 = g3 = g4 = g5 = g6 = g7 = zero
            # letter i meets the suffix after it, S, and the prefix before it, P
            for code, after, before in triples:
                s11, s12, s21, s22 = suffixes[after]
                p11, p12, p21, p22 = prefixes[before]
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
            image = suffixes[node]
            out.append((image[0] + image[3], (g0, g1, g2, g3, g4, g5, g6, g7), image))
        return out
