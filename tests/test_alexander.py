"""The Alexander polynomial of the spliced presentations, by Fox calculus.

Both relators of lin_presentation(p, q, r) are differentiated in a and b
and sent to Z[t, t^-1] by a, b -> 1, t -> t; the 2x2 determinant is the
Alexander polynomial of the odd pretzel knot P(2p+1, 2q+1, 2r+1), up to a
unit +-t^k.
"""

from __future__ import annotations

import itertools

from sl2arc.pretzel import N_CAP, lin_presentation


def _fox(word, gen: str) -> dict:
    """d word / d gen under a, b -> 1, t -> t, as {exponent of t: coefficient}."""
    out, e = {}, 0
    for ch in word.spelled():
        if ch.lower() == gen:
            out[e] = out.get(e, 0) + (1 if ch == gen else -1)
        e += {"t": 1, "T": -1}.get(ch, 0)
    return out


def _times(p: dict, q: dict, sign: int, out: dict) -> None:
    for i, c in p.items():
        for j, d in q.items():
            out[i + j] = out.get(i + j, 0) + sign * c * d


def alexander(p: int, q: int, r: int) -> dict:
    """Delta(t) with Delta(1) = 1 and Delta(t) = Delta(1/t)."""
    rels = [lhs * rhs.inverse() for lhs, rhs in lin_presentation(p, q, r).parsed_sides()]
    (a1, b1), (a2, b2) = [(_fox(w, "a"), _fox(w, "b")) for w in rels]
    det = {}
    _times(a1, b2, 1, det)
    _times(b1, a2, -1, det)
    det = {k: v for k, v in det.items() if v}
    lo, hi = min(det), max(det)
    assert (lo + hi) % 2 == 0, det
    sign = 1 if sum(det.values()) > 0 else -1
    out = {k - (lo + hi) // 2: sign * v for k, v in det.items()}
    assert sum(out.values()) == 1 and all(out[k] == out.get(-k) for k in out), out
    return out


def _pretzel_formula(p: int, q: int, r: int) -> dict:
    """(1/4)[s (t - 2 + 1/t) + (t + 2 + 1/t)], s = PQ + QR + RP for P = 2p+1, ..."""
    big_p, big_q, big_r = 2 * p + 1, 2 * q + 1, 2 * r + 1
    s = big_p * big_q + big_q * big_r + big_r * big_p
    out = {1: (s + 1) // 4, 0: (2 - 2 * s) // 4, -1: (s + 1) // 4}
    return {k: v for k, v in out.items() if v}


def test_trefoil():
    assert alexander(0, 0, 0) == {1: 1, 0: -1, -1: 1}


def test_matches_the_odd_pretzel_formula():
    for p, q, r in itertools.product(range(-3, 3), repeat=3):
        assert alexander(p, q, r) == _pretzel_formula(p, q, r), (p, q, r)


def test_the_family_has_one_alexander_polynomial():
    # P(-3, 3, 2n+1): -2t + 5 - 2/t for every n, so its determinant
    # |Delta(-1)| is 9 and Delta is not monic
    for n in [*range(1, 51), 1000, N_CAP]:
        delta = alexander(-2, 1, n)
        assert delta == {1: -2, 0: 5, -1: -2}, n
    assert abs(sum(c * (-1) ** k for k, c in delta.items())) == 9
