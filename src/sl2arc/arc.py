"""Continuation of representation arcs out of the limiting character.

The family's limiting character chi_n sits on the curve C_n cut out by the
three trace-difference equations.  The exact curve data there live in
pretzel (analyze_curve is re-exported here); continuation takes from them
only the exact Jacobian, for its rank gate and its pin choice.  This module
provides:

  * continue_arc -- a pseudo-arclength predictor-corrector that transports an
    actual representation (not just a character) away from rho_n through the
    8-dimensional space of (Ma, Mb) entries, subject to the 5 constraints
    det Ma = det Mb = 1 and the three curve equations, with 2 entries of Ma
    frozen at their rho_n values as gauge pins;
  * glue_hnn -- promote a sample to an HNN extension by normalizing the joint
    conjugator of {(m1, m2), (l1, l2)} to determinant +1 (the stable letter);
  * irreducibility_margin -- |tr rho([m1, l1]) - 2|, which must stay positive
    off the limiting character.

Constraint evaluation.  Each curve equation is tr W1 - tr W2 for one of
the family's curve_pairs, evaluated as the trace of a product of 2x2 matrices
(an inverse letter is the adjugate, so F is a polynomial in the entries)
rather than from the expanded trace polynomials, whose floating-point
error grows far faster with n.  The six words run through the family's
curve_plan, a tracepass.TracePlan built once per family: the pass that
pretzel runs on integers at rho_n for the exact curve data.  A pass over
the six words builds each distinct suffix and prefix product once (19 and
11 for the 30 letters at n = 1) and one product S P per letter, with the
2x2 products written out and the gradient summed in locals; it gives each
word's trace, its gradient through d tr(P X S)/dX = (S P)^T, and its
image.  The corrector runs on plain float tuples: F and the Jacobian rows
are tuples.  Each iteration writes into one bordered matrix, allocated
once per reduced system, the rows' free entries, the tangent row and the
gauge row g[free] / sqrt(g . g), and F into one right-hand side; the next
tangent is the solved column t, copied, over sqrt(t . t).  Both are
np.linalg.norm's own steps without its wrapper, so every bit is the same.
The images of m1, m2, l1, l2 at the converged iterate become the sample's
stored images (a Mat2 is its entry tuple), so no later stage rebuilds
them, and the longitude is m1 l1 m1^-1 l1^-1 of those images with true
inverses.  On {det = 1} these rows agree with the character-form rows
(exact Jacobian) . D(chi) up to multiples of the two determinant rows, by
the chain rule that gives the exact Jacobian; continue_arc checks at rho_n
only that the constraints vanish there, exactly: det rho_n(a) =
det rho_n(b) = 1, and each curve pair's two traces agree in the exact
curve data.

Gauge geometry.  Conjugating (Ma, Mb) by the centralizer of Ma moves matrix
entries without moving the character: the flow fixes Ma and moves Mb by
[Ma, Mb], so it survives any two Ma pins and the constraint Jacobian always
has a 2-dimensional kernel (rank 4) spanned by that gauge flow and the arc
tangent.  The corrector makes each Newton update well posed by appending
the unit gauge vector as a row with right-hand side 0, beside the 5
constraint rows and the pseudo-arclength row; without it the gauge motion
would rest on lstsq truncating a singular value that sits near its cutoff.
Pins are the Ma entry pair that cuts the conjugation orbit ([X, Ma],
[X, Mb]), X in sl2, in rank 2 at rho_n, an exact test on the integer
[X, rho_n(a)]: such a pair leaves the constraint rows rank 4 and a kernel
that moves the character, and any other drops the rank or stalls the arc
at chi_n on pure gauge (_select_pins gives the argument).  Of the feasible
pairs, the one with the largest fourth singular value wins.

The arc tangent is the kernel direction of the reduced Jacobian orthogonal
to the unit gauge row (Allgower & Georg ch. 2-3); as the gauge flow has
character speed zero, it is the kernel direction of maximal character speed
||D(chi) v||.  At the base point it comes from one SVD; after that, the
lstsq call that solves the bordered matrix [jr; tau; gauge] for a Newton
update also solves it for e_tau, which gives the next tangent with its sign
fixed by tau . t = 1.  The corrector starts at the Euler predictor, so one
update reaches the tolerance and a step costs one fused evaluation, one
lstsq and one value-only pass (F and the word images) to check the update,
and no SVD.  The corrected points become samples in blocks of _BLOCK = 64.
A block's word images become one (K, 4, 4) array, converted once: its
(K, 2, 2, 4) view of the pairs [(m1, m2), (l1, l2)] goes to
sl2.solve_conjugators, and its m1 and l1 give the block's longitudes in
one stacked pass of the Mat2 operations (sl2._products and
sl2._inverses).  A sample stores what the corrector and the block
computed; its character, longitude trace and meridian trace are read off
those on access.  The termination checks then run over the block in step
order, so an arc ends on the same sample as with one solve per step, and
the corrector steps after that sample (at most _BLOCK - 1) are dropped.
The initial orientation is probed one corrector step on each side: the
direction flag +1 denotes the side whose joint conjugator has determinant
+1 (a real stable letter exists, the arc glues to an HNN extension, and
the meridian trace grows without bound toward the limiting character); -1
denotes the opposite side, where the conjugator determinant is negative.

Shape of the meridian trace on the +1 side: it diverges like c/sqrt(t) as
t -> 0+ (the limiting character itself is the point at infinity of the
extended variety -- the conjugator is singular there), falls to an
intrinsic minimum a few units of arclength out, and then grows like the
square root of tr(Mb) forever.  The trace ceiling is therefore a stand-in
for closeness to the point at infinity, approached at the t -> 0 end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter, sub

import numpy as np

from .pretzel import FamilyInstance, analyze_curve
from .sl2 import (ConjugatorResult, Mat2, _inverses, _max_abs, _products, _relation_residuals,
                  exact_rank, solve_conjugators)
from .tracepass import _letters

__all__ = [
    "Arc",
    "ContinuationError",
    "GluedRepresentation",
    "GluingError",
    "RepSample",
    "analyze_curve",
    "continue_arc",
    "glue_hnn",
    "irreducibility_margin",
]


class ContinuationError(RuntimeError):
    """Continuation could not start or the first corrector step diverged."""


class GluingError(ValueError):
    """The sample does not glue to a real HNN extension."""


# ----------------------------------------------------------------------
# continuation samples

@dataclass(frozen=True, slots=True)
class RepSample:
    """One accepted point of the representation arc.

    residual is the max absolute violation of the 5 constraints after
    correction.  word_images holds the float images of (m1, m2, l1, l2) from
    the converged iterate, and longitude the commutator [m1, l1] built from
    them with true inverses.  commutation_residual is the relation residual
    of the conjugator's candidate over the pair (longitude, longitude), how
    far it is from commuting with the longitude (nan without a candidate).
    The character, the longitude trace and the meridian trace are read off
    these on access.
    """

    t: float
    ma: Mat2
    mb: Mat2
    residual: float
    conjugator: ConjugatorResult
    word_images: tuple
    longitude: Mat2
    commutation_residual: float

    @property
    def character(self) -> tuple:
        """(tr Ma, tr Mb, tr Ma Mb)."""
        a11, a12, a21, a22 = self.ma
        b11, b12, b21, b22 = self.mb
        return (a11 + a22, b11 + b22, a11 * b11 + a12 * b21 + a21 * b12 + a22 * b22)

    @property
    def longitude_trace(self) -> float:
        return self.longitude.trace()

    @property
    def meridian_trace(self) -> float:
        """|tr T| of the determinant-+1 stable letter: +inf at the singular
        limiting character, nan when no real stable letter exists because
        the conjugator determinant is negative."""
        conj = self.conjugator
        if conj.det_sign == 1:
            return abs(conj.candidate.trace())
        return math.inf if conj.det_sign == 0 else math.nan

    @property
    def det_sign(self) -> int:
        return self.conjugator.det_sign

    def images(self) -> dict:
        return dict(zip(("m1", "m2", "l1", "l2"), self.word_images))


@dataclass(frozen=True)
class Arc:
    """An ordered run of RepSamples with its termination verdict."""

    family: FamilyInstance
    samples: tuple
    termination_reason: str
    direction: int
    step_size: float
    pins: tuple

    def longitude_images(self) -> list:
        return [s.longitude for s in self.samples]


# ----------------------------------------------------------------------
# the constraint system in entry space

def _constraints(q: tuple, traces) -> tuple:
    """F from the entries and the six word traces."""
    a11, a12, a21, a22, b11, b12, b21, b22 = q
    t1, t2, t3, t4, t5, t6 = traces
    return (a11 * a22 - a12 * a21 - 1.0, b11 * b22 - b12 * b21 - 1.0,
            t1 - t2, t3 - t4, t5 - t6)


class _EntrySystem:
    """F: R^8 -> R^5 (two unit-determinant equations, three curve equations
    tr W1 - tr W2) over q = (a11, a12, a21, a22, b11, b12, b21, b22), and
    the Jacobian of the character map chi(q) = (tr Ma, tr Mb, tr Ma Mb).
    The six curve words share the family's TracePlan."""

    def __init__(self, fam: FamilyInstance):
        self.plan = fam.curve_plan

    @staticmethod
    def char_grad(q) -> np.ndarray:
        a11, a12, a21, a22, b11, b12, b21, b22 = q
        g = np.zeros((3, 8))
        g[0, 0] = g[0, 3] = 1.0
        g[1, 4] = g[1, 7] = 1.0
        g[2] = (b11, b21, b12, b22, a11, a21, a12, a22)
        return g

    @staticmethod
    def gauge_flow(q) -> tuple:
        """Tangent of conjugation by Ma: Ma stays, Mb moves by [Ma, Mb]."""
        a11, a12, a21, a22, b11, b12, b21, b22 = q
        return (0.0, 0.0, 0.0, 0.0,
                a12 * b21 - b12 * a21,
                a11 * b12 + a12 * b22 - b11 * a12 - b12 * a22,
                a21 * b11 + a22 * b21 - b21 * a11 - b22 * a21,
                a21 * b12 - b21 * a12)

    def evaluate(self, q: tuple) -> tuple:
        """(F, its 5x8 Jacobian, the images of m1, m2, l1, l2) at the float
        entry tuple q: F is a tuple, the Jacobian a tuple of row tuples and
        each image an entry tuple."""
        a11, a12, a21, a22, b11, b12, b21, b22 = q
        (t1, g1, m1), (t2, g2, m2), (t3, g3, l1), (t4, g4, l2), (t5, g5, _), (t6, g6, _) = (
            self.plan.passes(_letters(q)))
        zeros = (0.0, 0.0, 0.0, 0.0)
        jac = ((a22, -a21, -a12, a11) + zeros, zeros + (b22, -b21, -b12, b11),
               tuple(map(sub, g1, g2)), tuple(map(sub, g3, g4)), tuple(map(sub, g5, g6)))
        return _constraints(q, (t1, t2, t3, t4, t5, t6)), jac, (m1, m2, l1, l2)

    def values(self, q: tuple) -> tuple:
        """(F, the images of m1, m2, l1, l2): evaluate without the Jacobian,
        bit for bit equal to its F and images."""
        images = self.plan.images(_letters(q))
        return _constraints(q, [m[0] + m[3] for m in images]), tuple(images[:4])


class _ReducedSystem:
    """The entry system with two pinned coordinates eliminated."""

    def __init__(self, system: _EntrySystem, pins: tuple, pinned_values):
        self.system = system
        self.pins = pins
        free = [i for i in range(8) if i not in pins]
        self.free = np.array(free)
        self.take = itemgetter(*free)
        # the full entry tuple is (*pinned values, *free values) reordered
        self._pinned = tuple(pinned_values)
        self._place = itemgetter(*(pins.index(i) if i in pins else 2 + free.index(i)
                                   for i in range(8)))
        # newton's bordered matrix [jr; tau; gauge] and its two right-hand
        # sides, refilled in every iteration: e_tau's 1 and the gauge row's
        # zeros are never overwritten
        self._bordered = np.empty((7, len(free)))
        self._rhs = np.zeros((7, 2))
        self._rhs[5, 1] = 1.0

    def expand(self, qr) -> tuple:
        """The full entry tuple with free entries qr."""
        return self._place((*self._pinned, *qr))

    def reduce(self, q) -> np.ndarray:
        """The free entries of the full entry tuple q."""
        return np.array(self.take(q))

    def gauge_row(self, q) -> np.ndarray:
        """The free entries of the unit gauge flow tangent."""
        g = np.array(_EntrySystem.gauge_flow(q))
        # np.linalg.norm of a real vector is sqrt(g . g), without its checks
        return g[self.free] / math.sqrt(g.dot(g))

    def tangent(self, q, jr) -> np.ndarray:
        """Null vector of jr stacked over the unit reduced gauge row at the
        full entry vector q, of either sign: the kernel direction of jr
        orthogonal to the gauge flow, which is the one of maximal character
        speed."""
        aug = np.empty((6, len(self.free)))
        aug[:5] = jr
        aug[5] = self.gauge_row(q)
        return np.linalg.svd(aug)[2][-1]

    def newton(self, q_pred, tau) -> tuple:
        """Correct the predictor q_pred onto {F = 0} inside the
        pseudo-arclength hyperplane tau . (q - q_pred) = 0, with each update
        orthogonal to the gauge flow.

        Each iteration makes one lstsq solve of the bordered matrix
        [jr; tau; gauge] with two right-hand sides: (F, tau . (q - q_pred),
        0) gives the update, and e_tau (1 in the tau row) gives the unit
        kernel direction of jr orthogonal to the gauge flow with
        tau . t > 0, the next step's tangent (Allgower & Georg ch. 2-3).
        Each updated iterate is checked by a value-only pass; only when that
        misses NEWTON_TOL does a full evaluation follow, for the next solve.

        The iterate q is the free-entry array and full its entry tuple, on
        which the passes run as given.  Returns (the full entry tuple,
        residual, word images, tangent) at the last iterate: the converged
        one, the one after NEWTON_MAX_ITER updates, or the first whose
        residual is not finite.  The tangent comes from the last solve, and
        is tau itself when q_pred is returned unsolved.
        """
        q = q_pred
        full = self.expand(q.tolist())
        f, jac, images = self.system.evaluate(full)
        tangent = tau
        take, a, b = self.take, self._bordered, self._rhs
        a[5] = tau
        extra = 0.0  # tau . (q - q_pred) at q = q_pred
        for it in range(NEWTON_MAX_ITER + 1):
            res = max(_max_abs(f), abs(extra))
            if res <= NEWTON_TOL or not math.isfinite(res) or it == NEWTON_MAX_ITER:
                return full, res, images, tangent
            if jac is None:
                f, jac, images = self.system.evaluate(full)
            f1, f2, f3, f4, f5 = f
            a[:5] = tuple(map(take, jac))
            a[6] = self.gauge_row(full)
            b[:6, 0] = (-f1, -f2, -f3, -f4, -f5, -extra)
            x = np.linalg.lstsq(a, b, rcond=1e-12)[0]
            q = q + x[:, 0]
            # np.linalg.norm's own steps: a contiguous copy, its dot, a sqrt
            tangent = x[:, 1].copy()
            tangent /= math.sqrt(tangent.dot(tangent))
            full = self.expand(q.tolist())
            f, images = self.system.values(full)
            jac = None
            extra = float(np.dot(tau, q - q_pred))


NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 25
_BLOCK = 64             # corrector steps whose conjugators share one stacked solve


def _pin_pairs(a: Mat2) -> list:
    """The Ma entry pairs (i, j) whose entries of [X, a], over X = H, E, F
    of sl2, have rank 2: some 2x2 minor of the integer 2x3 matrix is
    nonzero.  A non-central a has at least one such pair."""
    a11, a12, a21, a22 = a
    orbit = ((0, a21, -a12), (2 * a12, a22 - a11, 0), (-2 * a21, 0, a11 - a22), (0, -a21, a12))
    return [(i, j) for i, j in combinations(range(4), 2)
            if any(orbit[i][k] * orbit[j][l] != orbit[i][l] * orbit[j][k]
                   for k, l in ((0, 1), (0, 2), (1, 2)))]


def _select_pins(rows: np.ndarray, a: Mat2) -> tuple:
    """The Ma entry pair to freeze, given the 5x8 character-form constraint
    rows at the base point and Ma = a there.

    At an irreducible pair on a curve of rank 2 the rows have rank 4 and
    their kernel is the conjugation orbit ([X, Ma], [X, Mb]) plus one curve
    direction.  A pair that cuts the orbit in rank 2 (_pin_pairs) leaves
    rank 4 and a kernel of the gauge flow and a direction that moves the
    character; any other pair drops the rank or leaves pure gauge.  The
    feasible pair with the largest fourth singular value wins.
    """
    return max(_pin_pairs(a),
               key=lambda pins: np.linalg.svd(np.delete(rows, pins, axis=1), compute_uv=False)[3])


def _base_point(fam: FamilyInstance) -> tuple:
    """rho_n as a float entry tuple."""
    return tuple(float(x) for x in fam.rho_a.entries() + fam.rho_b.entries())


def _character_rows(jacobian: tuple, q0: tuple, jac0: np.ndarray) -> np.ndarray:
    """Constraint rows at rho_n with the curve rows in character form: the
    exact curve Jacobian times D(chi), beside the two determinant rows.

    They span the same rows as the matrix-route Jacobian jac0 but are scaled
    differently, and pin ranking compares singular values across pairs, so
    the pins come from these rows.
    """
    rows = jac0.copy()
    exact = np.array([[float(x) for x in row] for row in jacobian])
    rows[2:] = exact @ _EntrySystem.char_grad(q0)
    return rows


_NO_CANDIDATE = (math.nan,) * 4  # a nullspace of dimension 0 commutes with nothing


def _samples_at(points) -> list:
    """The RepSamples at corrected points (t, q, residual, images).  The
    block's images (m1, m2, l1, l2) become one (K, 4, 4) array, whose
    (K, 2, 2, 4) view holds the pairs [(m1, m2), (l1, l2)] of the joint
    conjugators, solved in one stack, and whose m1 and l1 give the
    longitudes m1 l1 m1^-1 l1^-1 in one stacked pass; the candidates'
    commutation residuals with the longitudes take one more."""
    if not points:
        return []
    stack = np.array([point[3] for point in points])
    conjugators = solve_conjugators(stack.reshape(len(points), 2, 2, 4))
    m1, l1 = stack[:, 0], stack[:, 2]
    longitudes = _products(_products(_products(m1, l1), _inverses(m1)), _inverses(l1))
    candidates = np.array([_NO_CANDIDATE if conj.candidate is None else conj.candidate
                           for conj in conjugators])
    with np.errstate(all="ignore"):  # huge entries overflow into a nan, as in the solve
        commutations = _relation_residuals(candidates, np.stack((longitudes, longitudes), 1)[:, None])
    # positional, in field order
    return [RepSample(t, Mat2._make(q[:4]), Mat2._make(q[4:]), residual, conj,
                      tuple(map(Mat2._make, images)), Mat2._make(longitude), commutation)
            for (t, q, residual, images), conj, longitude, commutation in zip(
                points, conjugators, longitudes.tolist(), commutations.tolist())]


def _probe_det_sign(reduced: _ReducedSystem, q0: tuple,
                    v0: np.ndarray, h: float) -> tuple:
    """(conjugator determinant class, cause) one corrector step along +v0.

    The two sides of the arc through the limiting character are separated by
    this class from the very first sample: only one side carries a real
    determinant-+1 stable letter (the side that glues to an HNN extension);
    the other side's joint conjugator has determinant -1.  The class is 0
    when the probe step fails or the conjugator stays singular, and the
    cause then says which, with its value; it is "" otherwise.
    """
    q, res, images, _ = reduced.newton(reduced.reduce(q0) + h * v0, v0)
    if not res <= NEWTON_TOL:
        return 0, f"Newton residual {res:.3e} misses NEWTON_TOL {NEWTON_TOL:.0e}"
    conj = _samples_at([(h, q, res, images)])[0].conjugator
    if conj.det_sign:
        return conj.det_sign, ""
    if conj.candidate is None:
        return 0, "no conjugator, nullspace dimension 0"
    return 0, f"singular conjugator, det_sign 0 at det {conj.candidate.det():.3e}"


def continue_arc(fam: FamilyInstance, step_size: float = 1e-3,
                 max_steps: int = 2000, direction: int = 1,
                 trace_ceiling: float = 1e6) -> Arc:
    """Pseudo-arclength continuation of the representation arc from rho_n.

    direction +1 follows the side whose joint conjugator has determinant +1
    (probed one corrector step out on each side); -1 follows the opposite
    side.  Terminates on max_steps, on the meridian trace crossing
    trace_ceiling, on Newton failure (a residual above NEWTON_TOL or not
    finite), or on a change of conjugator determinant class; trace_ceiling
    must exceed 2, the least hyperbolic |trace|, and may be inf.  Raises
    ContinuationError when the curve rank at chi_n is not 2, when rho_n does
    not solve the constraints exactly, when the orientation probe fails on
    both sides, or when Newton fails at the first step.
    """
    if not 1e-6 <= step_size <= 1e-1:
        raise ValueError(f"step_size must lie in [1e-6, 1e-1], got {step_size}")
    if isinstance(direction, bool) or not isinstance(direction, int) or direction not in (1, -1):
        raise ValueError(f"direction must be the int +1 or -1, got {direction!r}")
    if isinstance(max_steps, bool) or not isinstance(max_steps, int) or max_steps < 0:
        raise ValueError(f"max_steps must be a nonnegative int, got {max_steps!r}")
    if not trace_ceiling > 2.0:
        raise ValueError(f"trace_ceiling must exceed 2 (a hyperbolic |trace|), got {trace_ceiling}")
    jacobian, _, traces, _ = fam.exact_curve_data
    rank = exact_rank(jacobian)
    if rank != 2:
        raise ContinuationError(f"curve rank at chi_n is {rank}, need 2")
    # Audit, exactly: rho_n solves the constraints, so a curve pair whose
    # words disagree at rho_n fails it.
    dets = fam.rho_a.det(), fam.rho_b.det()
    if dets != (1, 1):
        raise ContinuationError(
            f"base point audit failed: det rho_n(a) = {dets[0]}, det rho_n(b) = {dets[1]}")
    for (w1, w2), name in zip(fam.curve_pairs, ("(m1, m2)", "(l1, l2)", "(m1 l1, m2 l2)")):
        if traces[w1] != traces[w2]:
            raise ContinuationError(f"base point audit failed: the pair {name} has traces "
                                    f"{traces[w1]} and {traces[w2]} at rho_n")

    system = _EntrySystem(fam)
    q0 = _base_point(fam)
    _, jac0, images0 = system.evaluate(q0)
    jac0 = np.array(jac0)
    pins = _select_pins(_character_rows(jacobian, q0, jac0), fam.rho_a)
    reduced = _ReducedSystem(system, pins, [q0[p] for p in pins])
    v0 = reduced.tangent(q0, jac0[:, reduced.free])
    plus, plus_cause = _probe_det_sign(reduced, q0, v0, step_size)
    if plus != 1:
        minus, minus_cause = _probe_det_sign(reduced, q0, -v0, step_size)
        if minus == 1:
            v0 = -v0
        elif plus == 0 and minus == 0:
            raise ContinuationError(
                "orientation probe failed on both sides of the limiting character "
                f"(+ side: {plus_cause}; - side: {minus_cause})")
    if direction < 0:
        v0 = -v0

    samples = _samples_at([(0.0, q0, 0.0, images0)])
    reason = None
    q, v = q0, v0
    t = 0.0
    step = 0
    base_det_sign = None
    while reason is None:
        points = []
        while len(points) < _BLOCK:
            if step == max_steps:
                reason = "maxSteps"
                break
            step += 1
            q, res, images, v = reduced.newton(reduced.reduce(q) + step_size * v, v)
            if not res <= NEWTON_TOL:
                if step == 1:
                    raise ContinuationError(
                        f"Newton diverged at the first step (last residual {res:.3e})")
                reason = "newtonFailure"
                break
            t += step_size
            points.append((t, q, res, images))
        # The block's samples are checked in step order: the first one that
        # ends the arc outranks a later Newton failure or the step limit, and
        # the corrected points after it are dropped.
        for sample in _samples_at(points):
            samples.append(sample)
            if base_det_sign is None:
                base_det_sign = sample.det_sign
            elif sample.det_sign != base_det_sign:
                reason = "classChange"
                break
            if trace_ceiling < sample.meridian_trace < math.inf:  # a nan never stops
                reason = "meridianTraceCeiling"
                break
    return Arc(fam, tuple(samples), reason, direction, step_size, pins)


# ----------------------------------------------------------------------
# HNN gluing and irreducibility

@dataclass(frozen=True)
class GluedRepresentation:
    """A sample promoted to the HNN extension: t-letter T with det T = +1,
    T rho(m1) T^-1 = rho(m2) and T rho(l1) T^-1 = rho(l2)."""

    t_letter: Mat2
    relation_residual: float
    longitude_commutation_residual: float


GLUE_TOL = 1e-8


def glue_hnn(sample: RepSample, fam: FamilyInstance) -> GluedRepresentation:
    """The gluing gate: normalize the sample's stored joint conjugator of the
    meridian and longitude pairs into an HNN stable letter.

    fam names the family the sample belongs to.  T is the conjugator with
    determinant +1 and nonnegative trace; its relation residual is the one
    solve_conjugators stored and its commutation residual with the
    longitude the one the sample stored (negating T leaves both unchanged).
    Raises GluingError when no determinant-+1 real conjugator exists or
    either residual exceeds GLUE_TOL.
    """
    conj = sample.conjugator
    if conj.det_sign != 1:
        raise GluingError(
            f"no determinant-+1 real conjugator at t={sample.t:.6g} "
            f"(determinant class {conj.det_sign_label})")
    t_letter = conj.candidate
    if t_letter.trace() < 0:
        t_letter = t_letter.neg()
    rel, comm = conj.residual, sample.commutation_residual
    if not rel <= GLUE_TOL:
        raise GluingError(
            f"gluing relation residual {rel:.3e} exceeds {GLUE_TOL:.0e}")
    if not comm <= GLUE_TOL:
        raise GluingError(
            f"stable letter fails to commute with the longitude ({comm:.3e})")
    return GluedRepresentation(t_letter, rel, comm)


def irreducibility_margin(sample: RepSample) -> float:
    """|tr rho([m1, l1]) - 2|: zero exactly at the limiting character."""
    return abs(sample.longitude_trace - 2.0)
