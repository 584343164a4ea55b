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
error grows far faster with n.  The six words are compiled once into
letter codes, and the hot path runs on float entry tuples: one
prefix/suffix product pass per word, with the 2x2 products written out
and the gradient summed in locals, gives the trace, the gradient through
d tr(P X S)/dX = (S P)^T, and the word's image; F and J are then built
with one array call each.  The images of m1, m2, l1, l2 at the converged
iterate become the sample's stored images (a Mat2 is its entry tuple), so
no later stage rebuilds them, and the longitude is m1 l1 m1^-1 l1^-1 of
those images with true inverses.  On {det = 1} these
rows agree with the character-form rows D(poly) . D(chi) up to multiples
of the two determinant rows; continue_arc audits this at rho_n before
every continuation.

Gauge geometry.  Conjugating (Ma, Mb) by the centralizer of Ma moves matrix
entries without moving the character: the flow fixes Ma and moves Mb by
[Ma, Mb], so it survives any two Ma pins and the constraint Jacobian always
has a 2-dimensional kernel (rank 4) spanned by that gauge flow and the arc
tangent.  The corrector makes each Newton update well posed by appending
the unit gauge vector as a row with right-hand side 0, beside the 5
constraint rows and the pseudo-arclength row; without it the gauge motion
would rest on lstsq truncating a singular value that sits near its cutoff.
Pins are selected at the base point by scanning all Ma entry pairs on the
exact character-form rows and keeping those whose reduced Jacobian has
rank exactly 4 *and* a kernel that still moves the character (some pin
choices freeze tr(Ma) or force Ma to stay triangular, stalling the arc at
chi_n); among the feasible pairs the one with the largest fourth singular
value wins.

The arc tangent is the kernel direction of the reduced Jacobian orthogonal
to the unit gauge row (Allgower & Georg ch. 2-3); as the gauge flow has
character speed zero, it is the kernel direction of maximal character speed
||D(chi) v||.  At the base point it comes from one SVD; after that, the
lstsq call that solves the bordered matrix [jr; tau; gauge] for a Newton
update also solves it for e_tau, which gives the next tangent with its sign
fixed by tau . t = 1.  The corrector starts at the Euler predictor, so one
update reaches the tolerance and a step costs one fused evaluation, one
lstsq and one value-only pass (F and the word images) to check the update,
and no SVD.
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

import numpy as np

from .pretzel import FamilyInstance, analyze_curve, curve_jacobian
from .sl2 import ConjugatorResult, Mat2, exact_rank, relation_residual, solve_conjugator

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

@dataclass(frozen=True)
class RepSample:
    """One accepted point of the representation arc.

    residual is the max absolute violation of the 5 constraints after
    correction; meridian_trace is |tr T| of the determinant-+1 stable letter
    (+inf at the singular limiting character, nan when no real stable letter
    exists because the conjugator determinant is negative).  word_images
    holds the float images of (m1, m2, l1, l2) from the converged iterate,
    and longitude the commutator [m1, l1] built from them with true inverses.
    """

    t: float
    ma: Mat2
    mb: Mat2
    character: tuple
    residual: float
    conjugator: ConjugatorResult
    longitude_trace: float
    meridian_trace: float
    word_images: tuple
    longitude: Mat2

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

_PIN_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_LETTER_CODES = {"a": 0, "A": 1, "b": 2, "B": 3}


def _suffix_products(mats: list) -> list:
    """The suffix products of a word's letter matrices, from the identity
    (empty suffix) up to the whole product (the word's image), multiplied
    right to left."""
    s11, s12, s21, s22 = 1.0, 0.0, 0.0, 1.0
    suffixes = [(s11, s12, s21, s22)]
    for x11, x12, x21, x22 in reversed(mats):
        s11, s12, s21, s22 = (x11 * s11 + x12 * s21, x11 * s12 + x12 * s22,
                              x21 * s11 + x22 * s21, x21 * s12 + x22 * s22)
        suffixes.append((s11, s12, s21, s22))
    return suffixes


def _trace_pass(codes: tuple, letters: tuple) -> tuple:
    """Trace, gradient and image of one word in a single product pass.

    codes spells the word in letter codes (0, 1, 2, 3 for a, A, b, B), which
    index the four letter entry tuples in letters.  The gradient of
    tr(P X S) in the entries of X is (S P)^T, and an inverse letter is the
    adjugate, whose entries (d, -b, -c, a) turn N = S P into its adjugate
    (N22, -N12, -N21, N11) before the transpose.  Returns (trace, the 8
    partials over q, image as an entry tuple).
    """
    mats = [letters[c] for c in codes]
    suffixes = _suffix_products(mats)
    image = suffixes.pop()
    g0 = g1 = g2 = g3 = g4 = g5 = g6 = g7 = 0.0
    p11, p12, p21, p22 = 1.0, 0.0, 0.0, 1.0
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


def _letters(q: tuple) -> tuple:
    """The entry tuples of a, A, b, B (inverse letters as adjugates)."""
    a11, a12, a21, a22, b11, b12, b21, b22 = q
    return ((a11, a12, a21, a22), (a22, -a12, -a21, a11),
            (b11, b12, b21, b22), (b22, -b12, -b21, b11))


def _constraints(q: tuple, traces) -> np.ndarray:
    """F from the entries and the six word traces."""
    a11, a12, a21, a22, b11, b12, b21, b22 = q
    t1, t2, t3, t4, t5, t6 = traces
    return np.array((a11 * a22 - a12 * a21 - 1.0, b11 * b22 - b12 * b21 - 1.0,
                     t1 - t2, t3 - t4, t5 - t6))


class _EntrySystem:
    """F: R^8 -> R^5 (two unit-determinant equations, three curve equations
    tr W1 - tr W2) over q = (a11, a12, a21, a22, b11, b12, b21, b22), and
    the Jacobian of the character map chi(q) = (tr Ma, tr Mb, tr Ma Mb)."""

    def __init__(self, fam: FamilyInstance):
        self.codes = tuple(tuple(_LETTER_CODES[ch] for ch in word.spelled())
                           for pair in fam.curve_pairs for word in pair)

    @staticmethod
    def char_grad(q) -> np.ndarray:
        a11, a12, a21, a22, b11, b12, b21, b22 = q
        g = np.zeros((3, 8))
        g[0, 0] = g[0, 3] = 1.0
        g[1, 4] = g[1, 7] = 1.0
        g[2] = (b11, b21, b12, b22, a11, a21, a12, a22)
        return g

    @staticmethod
    def gauge(q) -> np.ndarray:
        """Unit tangent of conjugation by Ma: Ma stays, Mb moves by [Ma, Mb]."""
        a11, a12, a21, a22, b11, b12, b21, b22 = map(float, q)
        g = np.array((0.0, 0.0, 0.0, 0.0,
                      a12 * b21 - b12 * a21,
                      a11 * b12 + a12 * b22 - b11 * a12 - b12 * a22,
                      a21 * b11 + a22 * b21 - b21 * a11 - b22 * a21,
                      a21 * b12 - b21 * a12))
        return g / np.linalg.norm(g)

    def evaluate(self, q) -> tuple:
        """(F, its 5x8 Jacobian, the images of m1, m2, l1, l2 as entry tuples)."""
        q = tuple(map(float, q))
        a11, a12, a21, a22, b11, b12, b21, b22 = q
        letters = _letters(q)
        (t1, g1, m1), (t2, g2, m2), (t3, g3, l1), (t4, g4, l2), (t5, g5, _), (t6, g6, _) = (
            _trace_pass(codes, letters) for codes in self.codes)
        zeros = (0.0, 0.0, 0.0, 0.0)
        jac = np.array(((a22, -a21, -a12, a11) + zeros, zeros + (b22, -b21, -b12, b11),
                        tuple(map(float.__sub__, g1, g2)), tuple(map(float.__sub__, g3, g4)),
                        tuple(map(float.__sub__, g5, g6))))
        return _constraints(q, (t1, t2, t3, t4, t5, t6)), jac, (m1, m2, l1, l2)

    def values(self, q) -> tuple:
        """(F, the images of m1, m2, l1, l2): evaluate without the Jacobian,
        bit for bit equal to its F and images."""
        q = tuple(map(float, q))
        letters = _letters(q)
        images = [_suffix_products([letters[c] for c in codes])[-1] for codes in self.codes]
        return _constraints(q, [m[0] + m[3] for m in images]), tuple(images[:4])


class _ReducedSystem:
    """The entry system with two pinned coordinates eliminated."""

    def __init__(self, system: _EntrySystem, pins: tuple, pinned_values: np.ndarray):
        self.system = system
        self.pins = pins
        self.free = np.array([i for i in range(8) if i not in pins])
        self.pinned = np.zeros(8)
        self.pinned[list(pins)] = pinned_values

    def expand(self, qr) -> np.ndarray:
        q = self.pinned.copy()
        q[self.free] = qr
        return q

    def tangent(self, q, jr) -> np.ndarray:
        """Null vector of jr stacked over the unit reduced gauge row at the
        full entry vector q, of either sign: the kernel direction of jr
        orthogonal to the gauge flow, which is the one of maximal character
        speed."""
        aug = np.empty((6, len(self.free)))
        aug[:5] = jr
        aug[5] = self.system.gauge(q)[self.free]
        return np.linalg.svd(aug)[2][-1]

    def newton(self, q_pred, tau, tol: float, max_iter: int) -> tuple:
        """Correct the predictor q_pred onto {F = 0} inside the
        pseudo-arclength hyperplane tau . (q - q_pred) = 0, with each update
        orthogonal to the gauge flow.

        Each iteration makes one lstsq solve of the bordered matrix
        [jr; tau; gauge] with two right-hand sides: (F, tau . (q - q_pred),
        0) gives the update, and e_tau (1 in the tau row) gives the unit
        kernel direction of jr orthogonal to the gauge flow with
        tau . t > 0, the next step's tangent (Allgower & Georg ch. 2-3).
        Each updated iterate is checked by a value-only pass; only when that
        misses tol does a full evaluation follow, for the next solve.

        Returns (the full entry vector, residual, word images, tangent) at
        the last iterate: the converged one, the one after max_iter updates,
        or the first whose residual is not finite.  The tangent comes from
        the last solve, and is tau itself when q_pred is returned unsolved.
        """
        q = np.array(q_pred, dtype=float)
        a = np.empty((7, len(self.free)))
        a[5] = tau
        b = np.zeros((7, 2))
        b[5, 1] = 1.0
        full = self.expand(q)
        f, jac, images = self.system.evaluate(full)
        tangent = tau
        for it in range(max_iter + 1):
            extra = float(np.dot(tau, q - q_pred))
            res = max(float(np.abs(f).max()), abs(extra))
            if res <= tol or not math.isfinite(res) or it == max_iter:
                return full, res, images, tangent
            if jac is None:
                f, jac, images = self.system.evaluate(full)
            a[:5] = jac[:, self.free]
            a[6] = self.system.gauge(full)[self.free]
            b[:5, 0] = -f
            b[5, 0] = -extra
            x = np.linalg.lstsq(a, b, rcond=1e-12)[0]
            q = q + x[:, 0]
            tangent = x[:, 1] / np.linalg.norm(x[:, 1])
            full = self.expand(q)
            f, images = self.system.values(full)
            jac = None


NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 25
_RANK_FLOOR = 1e-7      # sigma_4 / sigma_1 below this: constraint rank < 4
_KERNEL_CEIL = 1e-9     # sigma_5 / sigma_1 above this: kernel is not 2-dim
_CHAR_SPEED_FLOOR = 0.05


def _select_pins(rows: np.ndarray, q0: np.ndarray) -> tuple:
    """Pick the Ma entry pair to freeze, ranking pairs on the 5x8 constraint
    rows at the base point.

    Feasible pairs leave the reduced Jacobian with rank exactly 4 and leave
    a kernel direction that moves the character; the pair with the largest
    fourth singular value (best-conditioned constraint block) is chosen.
    """
    cg = _EntrySystem.char_grad(q0)
    best = None
    for pins in _PIN_PAIRS:
        free = [i for i in range(8) if i not in pins]
        _, sig, vt = np.linalg.svd(rows[:, free])
        if sig[0] <= 0 or sig[3] / sig[0] < _RANK_FLOOR or sig[4] / sig[0] > _KERNEL_CEIL:
            continue
        speed = float(np.linalg.svd(cg[:, free] @ vt[4:].T, compute_uv=False)[0])
        if speed < _CHAR_SPEED_FLOOR:
            continue
        if best is None or sig[3] > best[1]:
            best = (pins, sig[3])
    if best is None:
        raise ContinuationError(
            "no gauge pin pair gives a rank-4 constraint block with a moving character")
    return best[0]


def _base_point(fam: FamilyInstance) -> np.ndarray:
    """rho_n as a float point of entry space."""
    return np.array([float(x) for x in fam.rho_a.entries() + fam.rho_b.entries()])


def _character_rows(jacobian: tuple, q0: np.ndarray, jac0: np.ndarray) -> np.ndarray:
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


def _sample_at(t: float, q, residual: float, images: tuple) -> RepSample:
    a11, a12, a21, a22, b11, b12, b21, b22 = map(float, q)
    m1, m2, l1, l2 = map(Mat2._make, images)
    conj = solve_conjugator([(m1, m2), (l1, l2)])
    longitude = m1 @ l1 @ m1.inverse() @ l1.inverse()
    if conj.det_sign == 1 and conj.candidate is not None:
        meridian = abs(conj.candidate.trace())
    elif conj.det_sign == 0:
        meridian = math.inf
    else:
        meridian = math.nan
    return RepSample(
        t=t,
        ma=Mat2(a11, a12, a21, a22),
        mb=Mat2(b11, b12, b21, b22),
        character=(a11 + a22, b11 + b22, a11 * b11 + a12 * b21 + a21 * b12 + a22 * b22),
        residual=residual,
        conjugator=conj,
        longitude_trace=longitude.trace(),
        meridian_trace=meridian,
        word_images=(m1, m2, l1, l2),
        longitude=longitude,
    )


def _probe_det_sign(reduced: _ReducedSystem, q0: np.ndarray,
                    v0: np.ndarray, h: float) -> int:
    """Conjugator determinant class one corrector step along +v0.

    The two sides of the arc through the limiting character are separated by
    this class from the very first sample: only one side carries a real
    determinant-+1 stable letter (the side that glues to an HNN extension);
    the other side's joint conjugator has determinant -1.  Returns 0 when the
    probe step fails or the conjugator stays singular.
    """
    q, res, images, _ = reduced.newton(q0[reduced.free] + h * v0, v0, NEWTON_TOL, NEWTON_MAX_ITER)
    if not res <= NEWTON_TOL:
        return 0
    return _sample_at(h, q, res, images).det_sign


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
    ContinuationError when Newton fails at the first step, or when the exact
    curve data at chi_n do not describe the constraints continuation solves.
    """
    if not 1e-6 <= step_size <= 1e-1:
        raise ValueError(f"step_size must lie in [1e-6, 1e-1], got {step_size}")
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    if not trace_ceiling > 2.0:
        raise ValueError(f"trace_ceiling must exceed 2 (a hyperbolic |trace|), got {trace_ceiling}")
    jacobian = curve_jacobian(fam)
    rank = exact_rank(jacobian)
    if rank != 2:
        raise ContinuationError(f"curve rank at chi_n is {rank}, need 2")

    system = _EntrySystem(fam)
    q0 = _base_point(fam)
    f0, jac0, images0 = system.evaluate(q0)
    rows = _character_rows(jacobian, q0, jac0)
    # Audit: at rho_n the matrix-route curve rows and the exact character-form
    # rows agree on {det = 1}, so their difference lies in the span of the two
    # determinant rows, and the constraints vanish; both relative to the
    # largest curve-row entry.
    diff = (jac0 - rows)[2:].T
    det_rows = jac0[:2].T
    coef = np.linalg.lstsq(det_rows, diff, rcond=None)[0]
    scale = max(1.0, float(np.max(np.abs(jac0[2:]))))
    gap = float(np.max(np.abs(det_rows @ coef - diff))) / scale
    value = float(np.max(np.abs(f0))) / scale
    if gap > 1e-12 or value > 1e-12:
        raise ContinuationError(
            f"exact/matrix-route constraint audit failed (row gap {gap:.3e}, "
            f"constraint value {value:.3e}, relative)")
    pins = _select_pins(rows, q0)
    reduced = _ReducedSystem(system, pins, q0[list(pins)])
    v0 = reduced.tangent(q0, jac0[:, reduced.free])
    plus = _probe_det_sign(reduced, q0, v0, step_size)
    if plus != 1:
        minus = _probe_det_sign(reduced, q0, -v0, step_size)
        if minus == 1:
            v0 = -v0
        elif plus == 0 and minus == 0:
            raise ContinuationError(
                "orientation probe failed on both sides of the limiting character")
    if direction < 0:
        v0 = -v0

    samples = [_sample_at(0.0, q0, 0.0, images0)]
    reason = "maxSteps"
    q, v = q0, v0
    t = 0.0
    base_det_sign = None
    for step in range(1, max_steps + 1):
        q, res, images, v = reduced.newton(q[reduced.free] + step_size * v, v,
                                           NEWTON_TOL, NEWTON_MAX_ITER)
        if not res <= NEWTON_TOL:
            if step == 1:
                raise ContinuationError(
                    f"Newton diverged at the first step (last residual {res:.3e})")
            reason = "newtonFailure"
            break
        t += step_size
        sample = _sample_at(t, q, res, images)
        samples.append(sample)
        if base_det_sign is None:
            base_det_sign = sample.det_sign
        elif sample.det_sign != base_det_sign:
            reason = "classChange"
            break
        if math.isfinite(sample.meridian_trace) and sample.meridian_trace > trace_ceiling:
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
    solve_conjugator stored (negating T leaves it unchanged), and its
    commutation with the sample's longitude is measured the same way.
    Raises GluingError when no determinant-+1 real conjugator exists or
    either residual exceeds GLUE_TOL.
    """
    conj = sample.conjugator
    if conj.det_sign != 1 or conj.candidate is None:
        raise GluingError(
            f"no determinant-+1 real conjugator at t={sample.t:.6g} "
            f"(determinant class {conj.det_sign_label})")
    t_letter = conj.candidate
    if t_letter.trace() < 0:
        t_letter = t_letter.neg()
    rel = conj.residual
    comm = relation_residual(t_letter, [(sample.longitude, sample.longitude)])
    if rel > GLUE_TOL:
        raise GluingError(
            f"gluing relation residual {rel:.3e} exceeds {GLUE_TOL:.0e}")
    if comm > GLUE_TOL:
        raise GluingError(
            f"stable letter fails to commute with the longitude ({comm:.3e})")
    return GluedRepresentation(t_letter, rel, comm)


def irreducibility_margin(sample: RepSample) -> float:
    """|tr rho([m1, l1]) - 2|: zero exactly at the limiting character."""
    return abs(sample.longitude_trace - 2.0)
