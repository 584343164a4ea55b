"""Reference computations that only the tests use: a rotation matrix, the
iterate-limit translation number of a matrix path's endpoint, the
irreducibility margin of an arc sample, and Gauss-Jordan elimination in
Fractions with the character frame read off it."""

from __future__ import annotations

import math
from fractions import Fraction

from sl2arc import sl2
from sl2arc.arc import RepSample
from sl2arc.sl2 import BASE_DIRECTION, Mat2, MatClass


def rotation(theta: float) -> Mat2:
    """R(theta) = [[cos, -sin], [sin, cos]]; note Delta(R) = -2 sin(theta)."""
    return Mat2(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta))


def irreducibility_margin(sample: RepSample) -> float:
    """|tr rho([m1, l1]) - 2|: zero exactly at the limiting character."""
    return abs(sample.longitude_trace - 2.0)


def translation_number_by_iteration(mats, base_theta: float = BASE_DIRECTION,
                                    iterations: int = 1 << 16) -> float:
    """Reference value for the path's endpoint: the displacement between
    iterates n and 2n of the lifted map, divided by n pi.

    The limit does not depend on the starting direction; for non-elliptic
    endpoints a start near the attracting fixed direction is used so the
    transient is negligible.
    """
    if not mats:
        raise ValueError("empty path")
    mats = [m.to_float() if m.exact else m for m in mats]
    mat = mats[-1]
    p, image = base_theta, sl2._act(mat, (math.cos(base_theta), math.sin(base_theta)))
    fp = sl2._tracked_angles(mats, base_theta)[-1]  # lift value F(p) at the image M v(p)
    # F gains _swept(M v(p), M v(q)) from p to any q within half a turn of p
    if not sl2._near_central(mat) and (cls := sl2._classify(mat, False)) != MatClass.ELLIPTIC:  # elliptic: any start works
        _, (vx, vy) = sl2._eigen_pairs(mat, cls)[0]
        start = sl2._dir_angle(vx, vy) + 0.05
        start += math.pi * round((p - start) / math.pi)
        nxt = sl2._act(mat, (math.cos(start), math.sin(start)))
        fp, p, image = fp + sl2._swept(image, nxt), start, nxt
    # The iterate is p + k pi with fp = F(p).  As F(x + pi) = F(x) + pi,
    # the next iterate F(p) + k pi is carried by its representative
    # nearest p, so each step spans at most a quarter turn.
    k = 0
    half = p, k
    for i in range(2 * iterations):
        if i == iterations:
            half = p, k
        j = round((fp - p) / math.pi)
        q = fp - j * math.pi
        nxt = sl2._act(mat, (math.cos(q), math.sin(q)))
        fp, p, k, image = fp + sl2._swept(image, nxt), q, k + j, nxt
    return (p - half[0] + (k - half[1]) * math.pi) / (math.pi * iterations)


def fraction_rref(rows):
    """Gauss-Jordan elimination in Fractions: the reference for the
    fraction-free integer elimination.  Returns (rref, pivot_cols)."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    pivots, r = [], 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return m, pivots


def character_frame(rho_a: Mat2, rho_b: Mat2) -> tuple:
    """pretzel._character_frame read off the Fraction rref: V's columns over
    the lcm of their denominators, and that lcm."""
    a11, a12, a21, a22 = rho_a
    b11, b12, b21, b22 = rho_b
    rows = ((1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0),
            (b11, b21, b12, b22, a11, a21, a12, a22, 0, 0, 1),
            (a22, -a21, -a12, a11, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, b22, -b21, -b12, b11, 0, 0, 0))
    rref, pivots = fraction_rref(rows)
    if len(pivots) < 5 or pivots[-1] >= 8:
        raise ValueError("the character map has rank below 3 at this pair (reducible, tr[a, b] = 2)")
    solution = [(0, 0, 0)] * 8
    for row, col in zip(rref, pivots):
        solution[col] = row[8:]
    den = math.lcm(*(Fraction(x).denominator for row in solution for x in row))
    frame = tuple(tuple(x.numerator * (den // x.denominator) for x in col) for col in zip(*solution))
    return frame, den
