from __future__ import annotations

import dataclasses
import math
import types
from fractions import Fraction

import numpy as np
import pytest

import sl2arc.arc as arc_module
from sl2arc.arc import (
    NEWTON_TOL,
    ContinuationError,
    GluingError,
    _EntrySystem,
    _ReducedSystem,
    _trace_pass,
    analyze_curve,
    continue_arc,
    glue_hnn,
    irreducibility_margin,
)
from sl2arc.cli import main
from sl2arc.pretzel import kernel_closed_form, make_family
from sl2arc.sl2 import Mat2, frobenius_distance
from sl2arc.words import evaluate


@pytest.fixture(scope="module")
def fam1():
    return make_family(1)


@pytest.fixture(scope="module")
def arc1(fam1):
    return continue_arc(fam1, step_size=1e-3, max_steps=600, direction=1)


@pytest.fixture(scope="module")
def arcs200():
    """200-step determinant-+1 arcs, keyed by n."""
    return {n: continue_arc(make_family(n), step_size=1e-3, max_steps=200, direction=1)
            for n in (1, 7, 21)}


# ----------------------------------------------------------------------
# curve analysis


def test_analyze_curve_closed_forms(fam1):
    analysis = analyze_curve(fam1)
    assert analysis.rank == 2
    assert analysis.kernel_basis == (Fraction(12), Fraction(-39), Fraction(12))
    assert analysis.hessian_on_kernel == 648
    assert analysis.local_coordinate_verdicts == {
        "tr_m1": True,
        "tr_m2": True,
        "tr_m1l1": False,
    }
    # the kernel really is annihilated by the exact Jacobian
    for row in analysis.jacobian:
        assert sum(r * k for r, k in zip(row, analysis.kernel_basis)) == 0


@pytest.mark.parametrize("n", [2, 3, 7, 30, 50, 100])
def test_analyze_curve_kernel_scaling_matches_closed_form(n):
    analysis = analyze_curve(make_family(n))
    closed = kernel_closed_form(n)
    scale = Fraction(12) / Fraction(closed[0])
    assert analysis.kernel_basis == tuple(Fraction(c) * scale for c in closed)


def test_exact_and_float_jacobians_agree(fam1):
    analysis = analyze_curve(fam1)
    exact = np.array([[float(x) for x in row] for row in analysis.jacobian])
    chi_f = tuple(float(c) for c in fam1.chi)
    floats = np.array(
        [[float(eq.derivative(v).evaluate(*chi_f)) for v in range(3)]
         for eq in fam1.curve_eqs])
    scale = max(1.0, float(np.max(np.abs(exact))))
    assert float(np.max(np.abs(exact - floats))) / scale <= 1e-12


# ----------------------------------------------------------------------
# continuation


def test_arc_base_sample_is_rho_n(fam1, arc1):
    s0 = arc1.samples[0]
    assert s0.t == 0.0
    assert s0.residual == 0.0
    assert s0.character == tuple(float(c) for c in fam1.chi)
    assert s0.longitude_trace == 2.0
    assert s0.det_sign == 0
    assert math.isinf(s0.meridian_trace)
    assert s0.ma.entries() == tuple(float(x) for x in fam1.rho_a.entries())
    assert s0.mb.entries() == tuple(float(x) for x in fam1.rho_b.entries())


def test_arc_time_and_residual_invariants(fam1, arc1):
    ts = [s.t for s in arc1.samples]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert all(s.residual <= 1e-10 for s in arc1.samples)
    # every character sits on the curve to 1e-9
    for s in arc1.samples[::20]:
        for eq in fam1.curve_eqs:
            assert abs(float(eq.evaluate(*s.character))) <= 1e-9


def test_arc_pins_freeze_ma_entries(fam1, arc1):
    assert len(arc1.pins) == 2
    assert all(p in (0, 1, 2, 3) for p in arc1.pins)
    frozen = [float(fam1.rho_a.entries()[p]) for p in arc1.pins]
    for s in arc1.samples[:: len(arc1.samples) // 4]:
        got = [s.ma.entries()[p] for p in arc1.pins]
        assert got == frozen


def test_direction_plus_has_det_plus_conjugators(arc1):
    assert all(s.det_sign == 1 for s in arc1.samples[1:])
    assert all(math.isfinite(s.meridian_trace) and s.meridian_trace > 2.0
               for s in arc1.samples[1:])


def test_direction_minus_goes_to_the_negative_class(fam1):
    arc = continue_arc(fam1, step_size=1e-3, max_steps=20, direction=-1)
    s1 = arc.samples[1]
    assert s1.det_sign == -1
    assert math.isnan(s1.meridian_trace)


def test_longitude_trace_moves_off_two(arc1):
    for s in arc1.samples[1:]:
        assert s.longitude_trace != 2.0
        assert irreducibility_margin(s) > 0.0
    assert irreducibility_margin(arc1.samples[0]) == 0.0


def test_irreducibility_margin_is_quadratic_with_hessian_coefficient(fam1, arc1):
    analysis = analyze_curve(fam1)
    v = np.array([float(x) for x in analysis.kernel_basis])
    h_on_kernel = float(analysis.hessian_on_kernel)
    chi0 = np.array([float(c) for c in fam1.chi])
    margins, projections = [], []
    for s in arc1.samples[1:9]:
        disp = np.array(s.character) - chi0
        proj = float(disp @ v) / float(v @ v)
        projections.append(abs(proj))
        margins.append(irreducibility_margin(s))
    # leading coefficient: margin ~= (1/2) * (v^T H v) * s^2
    for m, p in zip(margins, projections):
        assert m == pytest.approx(0.5 * h_on_kernel * p * p, rel=5e-3)
    # log-log slope across a decade of s
    slope = (math.log(margins[-1]) - math.log(margins[0])) / (
        math.log(projections[-1]) - math.log(projections[0]))
    assert 1.9 <= slope <= 2.1


def test_step_halving_is_second_order(fam1):
    coarse = continue_arc(fam1, step_size=2e-3, max_steps=60, direction=1)
    fine = continue_arc(fam1, step_size=1e-3, max_steps=120, direction=1)
    for k in range(1, 61):
        gap = max(abs(a - b) for a, b in
                  zip(coarse.samples[k].character, fine.samples[2 * k].character))
        assert gap <= 10 * (2e-3) ** 2


def test_longitude_path_satisfies_continuity_guard(arc1):
    longs = arc1.longitude_images()
    for a, b in zip(longs, longs[1:]):
        assert frobenius_distance(a, b) < 0.5


def test_trace_ceiling_terminates_immediately_when_low(fam1):
    arc = continue_arc(fam1, step_size=1e-3, max_steps=50, direction=1,
                       trace_ceiling=50.0)
    assert arc.termination_reason == "meridianTraceCeiling"
    assert len(arc.samples) == 2  # t=0 plus the first sample above the ceiling
    assert arc.samples[1].meridian_trace > 50.0


def test_class_change_detected_on_the_loop_side(fam1):
    # the -1 side loops back to the limiting character (a node); crossing it
    # the corrector lands on the determinant-+1 branch and the arc stops
    arc = continue_arc(fam1, step_size=1e-3, max_steps=7500, direction=-1)
    assert arc.termination_reason == "classChange"
    signs = [s.det_sign for s in arc.samples[1:]]
    assert signs[0] == -1 and signs[-1] == 1
    assert all(s == -1 for s in signs[:-1])


def test_invalid_arguments_are_rejected(fam1):
    with pytest.raises(ValueError):
        continue_arc(fam1, step_size=1e-7)
    with pytest.raises(ValueError):
        continue_arc(fam1, step_size=1.0)
    with pytest.raises(ValueError):
        continue_arc(fam1, direction=0)
    with pytest.raises(ValueError):
        continue_arc(fam1, max_steps=-1)


@pytest.mark.parametrize("ceiling", [1.5, 2.0, -1.0, math.nan])
def test_trace_ceiling_must_exceed_two(fam1, ceiling):
    with pytest.raises(ValueError, match="trace_ceiling"):
        continue_arc(fam1, max_steps=5, trace_ceiling=ceiling)


def test_an_infinite_trace_ceiling_is_no_ceiling(fam1):
    arc = continue_arc(fam1, max_steps=5, trace_ceiling=math.inf)
    assert arc.termination_reason == "maxSteps" and len(arc.samples) == 6


def test_zero_steps_returns_base_sample_only(fam1):
    arc = continue_arc(fam1, max_steps=0)
    assert len(arc.samples) == 1
    assert arc.termination_reason == "maxSteps"


def _count_step_work(monkeypatch) -> dict:
    """Count Jacobian evaluations, value passes, and the lstsq and svd calls
    made through arc's numpy (not those of sl2 or pretzel)."""
    counts = {"evaluate": 0, "values": 0, "lstsq": 0, "svd": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(_EntrySystem, "evaluate", counted("evaluate", _EntrySystem.evaluate))
    monkeypatch.setattr(_EntrySystem, "values", counted("values", _EntrySystem.values))
    linalg = types.ModuleType(np.linalg.__name__)
    linalg.__dict__.update(vars(np.linalg))
    linalg.lstsq = counted("lstsq", np.linalg.lstsq)
    linalg.svd = counted("svd", np.linalg.svd)
    proxy = types.ModuleType(np.__name__)
    proxy.__dict__.update(vars(np))
    proxy.linalg = linalg
    monkeypatch.setattr(arc_module, "np", proxy)
    return counts


@pytest.mark.parametrize("n", [1, 21])
def test_a_step_costs_one_jacobian_one_value_pass_and_one_solve(n, monkeypatch):
    fam = make_family(n)
    counts = _count_step_work(monkeypatch)
    totals = []
    for steps in (100, 200):
        counts.update(evaluate=0, values=0, lstsq=0, svd=0)
        arc = continue_arc(fam, step_size=1e-3, max_steps=steps, direction=1)
        assert arc.termination_reason == "maxSteps" and len(arc.samples) == steps + 1
        totals.append(dict(counts))
    assert {k: totals[1][k] - totals[0][k] for k in counts} == {
        "evaluate": 100, "values": 100, "lstsq": 100, "svd": 0}


def _reference_newton(self, q_pred, tau, tol, max_iter):
    """The step without the bordered tangent: a full evaluation at every
    iterate, a one-right-hand-side lstsq update, and the next tangent from
    the SVD at the accepted point, sign-matched to tau."""
    q = np.array(q_pred, dtype=float)
    a = np.empty((7, len(self.free)))
    a[5] = tau
    b = np.zeros(7)
    for it in range(max_iter + 1):
        full = self.expand(q)
        f, jac, images = self.system.evaluate(full)
        jr = jac[:, self.free]
        extra = float(np.dot(tau, q - q_pred))
        res = max(float(np.abs(f).max()), abs(extra))
        if res <= tol or not math.isfinite(res) or it == max_iter:
            if not res <= tol:
                return full, res, images, tau
            v = self.tangent(full, jr)
            return full, res, images, v if float(np.dot(v, tau)) >= 0.0 else -v
        a[:5] = jr
        a[6] = self.system.gauge(full)[self.free]
        b[:5] = f
        b[5] = extra
        q = q + np.linalg.lstsq(a, -b, rcond=1e-12)[0]


def _reference_arc(fam, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ReducedSystem, "newton", _reference_newton)
        return continue_arc(fam, **kwargs)


def _relative_gaps(arc, reference) -> tuple:
    """The largest relative gaps of the characters and of the finite
    meridian traces between two arcs of the same length."""
    char_gap = max(abs(x - y) / max(1.0, abs(y))
                   for s, r in zip(arc.samples, reference.samples)
                   for x, y in zip(s.character, r.character))
    meridian_gap = max((abs(s.meridian_trace - r.meridian_trace) / r.meridian_trace
                        for s, r in zip(arc.samples, reference.samples)
                        if math.isfinite(r.meridian_trace)), default=0.0)
    return char_gap, meridian_gap


def _assert_matches_reference(arc, reference, char_bound, meridian_bound):
    assert arc.termination_reason == reference.termination_reason
    assert len(arc.samples) == len(reference.samples)
    assert [s.det_sign for s in arc.samples] == [s.det_sign for s in reference.samples]
    assert all(s.residual <= NEWTON_TOL for s in arc.samples)
    char_gap, meridian_gap = _relative_gaps(arc, reference)
    assert char_gap <= char_bound
    assert meridian_gap <= meridian_bound


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("n", [1, 7, 21])
def test_the_bordered_tangent_step_matches_the_reference_step(n, direction, arcs200):
    # The tangent comes from the Jacobian at the last iterate rather than at
    # the accepted point, which moves the arc within the corrector's
    # tolerance.  Largest measured gaps: characters 1.04e-11 (n = 1,
    # direction -1; bound margin 9.6x) and meridian traces 9.6e-9 (n = 21,
    # direction +1; margin 10x).
    fam = make_family(n)
    arc = (arcs200[n] if direction == 1 else
           continue_arc(fam, step_size=1e-3, max_steps=200, direction=direction))
    reference = _reference_arc(fam, step_size=1e-3, max_steps=200, direction=direction)
    assert arc.termination_reason == "maxSteps" and len(arc.samples) == 201
    _assert_matches_reference(arc, reference, char_bound=1e-10, meridian_bound=1e-7)


def test_the_second_newton_iteration_solves_on_a_fresh_jacobian(fam1, monkeypatch):
    # steps of 0.02 at n = 1 take two Newton iterations each
    counts = _count_step_work(monkeypatch)
    arc = continue_arc(fam1, step_size=0.02, max_steps=500, direction=1)
    assert arc.termination_reason == "maxSteps" and len(arc.samples) == 501
    assert counts["lstsq"] > 500
    # every Newton solve follows one Jacobian evaluation; the base-point
    # evaluation, which no solve follows, pairs with the audit's lstsq
    assert counts["lstsq"] == counts["evaluate"]
    reference = _reference_arc(fam1, step_size=0.02, max_steps=500, direction=1)
    # measured gaps: characters 1.8e-11 (bound margin 5.6x), meridian traces
    # 4.4e-12 (margin 23x); residuals stay within NEWTON_TOL = 1e-10
    _assert_matches_reference(arc, reference, char_bound=1e-10, meridian_bound=1e-10)


@pytest.mark.parametrize("n", [1, 7, 21])
def test_the_value_pass_matches_evaluate_bit_for_bit(n, arcs200):
    system = _EntrySystem(make_family(n))
    for s in arcs200[n].samples[::10]:
        q = np.array(s.ma.entries() + s.mb.entries())
        f, _, images = system.evaluate(q)
        want_f, want_images = system.values(q)
        assert _bits(f) == _bits(want_f)
        assert _bits(images) == _bits(want_images)


def _max_character_speed_tangent(system, free, q, jr):
    """The two-SVD reference: the unit vector of ker jr that maximizes
    character speed ||D(chi) v||."""
    kernel = np.linalg.svd(jr)[2][4:]
    cg = system.char_grad(q)[:, free]
    v = kernel.T @ np.linalg.svd(cg @ kernel.T)[2][0]
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("n", [1, 7, 21])
def test_tangent_is_the_max_character_speed_kernel_direction(n, arcs200):
    fam = make_family(n)
    arc = arcs200[n]
    assert len(arc.samples) == 201
    system = _EntrySystem(fam)
    for s in arc.samples[::20]:
        q = np.array(s.ma.entries() + s.mb.entries())
        reduced = _ReducedSystem(system, arc.pins, q[list(arc.pins)])
        jr = system.evaluate(q)[1][:, reduced.free]
        reference = _max_character_speed_tangent(system, reduced.free, q, jr)
        v = reduced.tangent(q, jr)
        assert min(float(np.max(np.abs(v - reference))),
                   float(np.max(np.abs(v + reference)))) <= 1e-11


def _exact_images(fam, sample, words, inverse):
    """Exact images of the named words at the sample's float entries, with
    inverse letters taken as inverse(M) (a true inverse or the adjugate)."""
    ma = Mat2(*(Fraction(x) for x in sample.ma.entries()))
    mb = Mat2(*(Fraction(x) for x in sample.mb.entries()))
    letters = {"a": ma, "b": mb, "A": inverse(ma), "B": inverse(mb)}
    out = {}
    for name in words:
        image = Mat2.identity()
        for ch in getattr(fam, name).spelled():
            image = image @ letters[ch]
        out[name] = image
    return out


_CURVE_PAIRS = (("m1", "m2"), ("l1", "l2"), ("m1l1", "m2l2"))
_CURVE_WORDS = tuple(w for pair in _CURVE_PAIRS for w in pair)


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("n", [6, 7, 8])
def test_true_curve_residual_is_within_the_newton_tolerance(n, direction):
    # the true residual |tr W1 - tr W2|, in exact arithmetic at the samples'
    # float entries, must stay within the bound the reported residual claims
    fam = make_family(n)
    arc = continue_arc(fam, step_size=1e-3, max_steps=60, direction=direction)
    assert arc.termination_reason == "maxSteps" and len(arc.samples) == 61
    for s in arc.samples:
        assert s.residual <= 1e-10
        exact = _exact_images(fam, s, _CURVE_WORDS, Mat2.inverse)
        for w1, w2 in _CURVE_PAIRS:
            assert abs(exact[w1].trace() - exact[w2].trace()) <= Fraction(1, 10 ** 10)


@pytest.mark.parametrize("n", [1, 7])
def test_fused_evaluation_matches_exact_traces_and_differences(n):
    fam = make_family(n)
    arc = continue_arc(fam, step_size=1e-3, max_steps=40, direction=1)
    system = _EntrySystem(fam)
    for s in arc.samples[::10]:
        q = np.array(s.ma.entries() + s.mb.entries())
        f, jac, images = system.evaluate(q)
        exact = _exact_images(fam, s, _CURVE_WORDS, Mat2.adjugate)
        scale = max(m.max_abs() for m in exact.values())
        for row, (w1, w2) in enumerate(_CURVE_PAIRS):
            want = exact[w1].trace() - exact[w2].trace()
            assert abs(Fraction(f[2 + row]) - want) <= Fraction(1e-12) * Fraction(scale)
        for name, image in zip(("m1", "m2", "l1", "l2"), images):
            assert frobenius_distance(Mat2(*image), exact[name].to_float()) <= 1e-12 * scale
        diffs = np.zeros((5, 8))
        for j in range(8):
            h = 1e-6 * max(1.0, abs(q[j]))
            step = np.zeros(8)
            step[j] = h
            diffs[:, j] = (system.evaluate(q + step)[0] - system.evaluate(q - step)[0]) / (2 * h)
        for got, want in zip(jac, diffs):
            assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(got))
        gauge = _EntrySystem.gauge(q)
        assert np.linalg.norm(gauge) == pytest.approx(1.0)
        assert np.all(gauge[:4] == 0.0)
        for row in jac[2:]:
            assert abs(row @ gauge) <= 1e-12 * np.linalg.norm(row)


# The product pass on letter strings with a _mul per product, and the
# evaluation that filled F and J element by element: the references that the
# coded pass and evaluate must match bit for bit.

_REF_IDENTITY = (1.0, 0.0, 0.0, 1.0)


def _reference_mul(x, y):
    x11, x12, x21, x22 = x
    y11, y12, y21, y22 = y
    return (x11 * y11 + x12 * y21, x11 * y12 + x12 * y22,
            x21 * y11 + x22 * y21, x21 * y12 + x22 * y22)


def _reference_trace_pass(spelling, letters):
    mats = [letters[ch] for ch in spelling]
    suffix = [_REF_IDENTITY] * (len(mats) + 1)
    for i in range(len(mats) - 1, -1, -1):
        suffix[i] = _reference_mul(mats[i], suffix[i + 1])
    grad = [0.0] * 8
    prefix = _REF_IDENTITY
    for i, ch in enumerate(spelling):
        n11, n12, n21, n22 = _reference_mul(suffix[i + 1], prefix)
        k = 0 if ch in "aA" else 4
        if ch.islower():
            grad[k] += n11
            grad[k + 1] += n21
            grad[k + 2] += n12
            grad[k + 3] += n22
        else:
            grad[k] += n22
            grad[k + 1] -= n21
            grad[k + 2] -= n12
            grad[k + 3] += n11
        prefix = _reference_mul(prefix, mats[i])
    image = suffix[0]
    return image[0] + image[3], grad, image


def _reference_letters(q):
    a11, a12, a21, a22, b11, b12, b21, b22 = (float(x) for x in q)
    return {"a": (a11, a12, a21, a22), "A": (a22, -a12, -a21, a11),
            "b": (b11, b12, b21, b22), "B": (b22, -b12, -b21, b11)}


def _reference_evaluate(spellings, q):
    a11, a12, a21, a22, b11, b12, b21, b22 = (float(x) for x in q)
    passes = [_reference_trace_pass(w, _reference_letters(q)) for w in spellings]
    f = np.empty(5)
    jac = np.zeros((5, 8))
    f[0] = a11 * a22 - a12 * a21 - 1.0
    f[1] = b11 * b22 - b12 * b21 - 1.0
    jac[0, :4] = (a22, -a21, -a12, a11)
    jac[1, 4:] = (b22, -b21, -b12, b11)
    for row in range(3):
        (tr1, g1, _), (tr2, g2, _) = passes[2 * row], passes[2 * row + 1]
        f[2 + row] = tr1 - tr2
        jac[2 + row] = [x - y for x, y in zip(g1, g2)]
    return f, jac, [p[2] for p in passes[:4]]


def _bits(values) -> bytes:
    """The IEEE-754 bytes of floats: comparing them with == is equality of
    every value and of the sign of every zero."""
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("n", [1, 7, 21])
def test_coded_pass_and_evaluation_match_the_references_bit_for_bit(n, arcs200):
    fam = make_family(n)
    system = _EntrySystem(fam)
    spellings = [getattr(fam, name).spelled() for name in _CURVE_WORDS]
    samples = arcs200[n].samples[::10]
    assert len(samples) == 21
    for s in samples:
        q = np.array(s.ma.entries() + s.mb.entries())
        named = _reference_letters(q)
        coded = tuple(named[ch] for ch in "aAbB")
        for spelling, codes in zip(spellings, system.codes):
            trace, grad, image = _trace_pass(codes, coded)
            want_trace, want_grad, want_image = _reference_trace_pass(spelling, named)
            assert _bits(trace) == _bits(want_trace)
            assert _bits(grad) == _bits(want_grad)
            assert _bits(image) == _bits(want_image)
        f, jac, images = system.evaluate(q)
        want_f, want_jac, want_images = _reference_evaluate(spellings, q)
        assert _bits(f) == _bits(want_f)
        assert _bits(jac) == _bits(want_jac)
        assert _bits(images) == _bits(want_images)
        assert _bits([m.entries() for m in s.word_images]) == _bits(want_images)


@pytest.mark.parametrize("poisoned_after, outcome", [(40, "newtonFailure"), (3, "first step")])
def test_a_non_finite_residual_ends_the_arc(poisoned_after, outcome, fam1, monkeypatch,
                                           capfd, tmp_path):
    # F turns NaN from Jacobian evaluation poisoned_after + 1 on.  The base
    # point and the two orientation probes take three evaluations, so 3
    # poisons the first step and 40 the thirty-eighth.
    evaluate_entries = _EntrySystem.evaluate
    calls = [0]

    def poisoned(self, q):
        calls[0] += 1
        f, jac, images = evaluate_entries(self, q)
        if calls[0] > poisoned_after:
            f = f.copy()
            f[2] = math.nan
        return f, jac, images

    monkeypatch.setattr(_EntrySystem, "evaluate", poisoned)
    argv = ["arc", "--n", "1", "--steps", "100", "--out", str(tmp_path / "arc.csv")]
    if outcome == "newtonFailure":
        arc = continue_arc(fam1, step_size=1e-3, max_steps=100, direction=1)
        assert arc.termination_reason == "newtonFailure"
        assert 2 < len(arc.samples) < 101
        assert all(s.residual <= NEWTON_TOL for s in arc.samples)
        calls[0] = 0
        assert main(argv) == 0
        out, err = capfd.readouterr()
        assert out.endswith(" termination=newtonFailure\n")
        assert err == ""
    else:
        with pytest.raises(ContinuationError, match="first step"):
            continue_arc(fam1, step_size=1e-3, max_steps=100, direction=1)
        calls[0] = 0
        assert main(argv) == 3
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("error: Newton diverged at the first step (last residual nan)")
        assert err.count("\n") == 1


def test_samples_store_their_word_images(fam1, arc1):
    for s in (arc1.samples[0], arc1.samples[1], arc1.samples[-1]):
        for name, image in s.images().items():
            direct = evaluate(getattr(fam1, name), s.ma, s.mb)
            assert frobenius_distance(image, direct) <= 1e-12 * direct.frobenius()
        assert s.longitude.det() == pytest.approx(1.0, abs=1e-14)
        assert float(s.longitude.trace()) == s.longitude_trace
    assert arc1.longitude_images() == [s.longitude for s in arc1.samples]


# ----------------------------------------------------------------------
# gluing


def test_glue_hnn_on_accepted_samples(fam1, arc1):
    for s in (arc1.samples[1], arc1.samples[100], arc1.samples[-1]):
        glued = glue_hnn(s, fam1)
        assert glued.relation_residual <= 1e-8
        assert glued.longitude_commutation_residual <= 1e-8
        assert glued.t_letter.det() == pytest.approx(1.0, abs=1e-9)
        assert glued.t_letter.trace() >= 0.0
        im1 = evaluate(fam1.m1, s.ma, s.mb)
        im2 = evaluate(fam1.m2, s.ma, s.mb)
        moved = glued.t_letter @ im1 @ glued.t_letter.inverse()
        assert frobenius_distance(moved, im2) <= 1e-6


def test_glue_hnn_rejects_the_base_sample(fam1, arc1):
    with pytest.raises(GluingError):
        glue_hnn(arc1.samples[0], fam1)


def test_glue_hnn_rejects_negative_class(fam1):
    arc = continue_arc(fam1, step_size=1e-3, max_steps=5, direction=-1)
    with pytest.raises(GluingError):
        glue_hnn(arc.samples[1], fam1)


def test_rank_gate_raises_for_degenerate_input():
    fam = make_family(1)
    bad = type(fam)(
        n=fam.n, m1=fam.m1, m2=fam.m2, l1=fam.l1, l2=fam.l2,
        longitude=fam.longitude, rho_a=fam.rho_a, rho_b=fam.rho_b,
        chi=fam.chi,
        curve_eqs=(fam.curve_eqs[0], fam.curve_eqs[0], fam.curve_eqs[0]))
    with pytest.raises(ContinuationError):
        continue_arc(bad)


def test_continuation_audits_its_base_point(fam1):
    # the curve polynomials listed in another order leave the exact analysis
    # unchanged, but its rows no longer describe the word pairs continuation
    # evaluates
    eqs = fam1.curve_eqs
    swapped = dataclasses.replace(fam1, curve_eqs=(eqs[1], eqs[0], eqs[2]))
    with pytest.raises(ContinuationError, match="audit failed"):
        continue_arc(swapped, max_steps=2)
