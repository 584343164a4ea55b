from __future__ import annotations

import dataclasses
import math
import random
import types
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import sl2arc.arc as arc_module
from sl2arc.arc import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    ContinuationError,
    GluingError,
    _EntrySystem,
    _ReducedSystem,
    analyze_curve,
    continue_arc,
    glue_hnn,
)
from sl2arc.cli import main
from sl2arc.locus import LocusPoint, locus_points
from sl2arc.pretzel import (N_CAP, FamilyInstance, kernel_closed_form,
                             lin_presentation, make_family)
from sl2arc.sl2 import Mat2, exact_nullspace, exact_rank, solve_conjugator
from sl2arc.tracepass import TracePlan
from sl2arc.words import Word, commutator, evaluate

from references import irreducibility_margin
from test_sl2 import _bits, _reference_relation_residual, _residual_bits, _result_bits


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


@pytest.fixture(scope="module")
def minus_arcs200():
    """200-step arcs of direction -1, keyed by n."""
    return {n: continue_arc(make_family(n), step_size=1e-3, max_steps=200, direction=-1)
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


# ----------------------------------------------------------------------
# gauge pins: the rank-2 orbit test against the exact reduced rows

def _exact_character_rows(fam):
    """(the character-form constraint rows at rho_n, D(chi) there), exact:
    the two determinant rows beside the exact curve Jacobian times D(chi)."""
    a11, a12, a21, a22 = fam.rho_a
    b11, b12, b21, b22 = fam.rho_b
    zeros = (0, 0, 0, 0)
    dchi = ((1, 0, 0, 1) + zeros, zeros + (1, 0, 0, 1), (b11, b21, b12, b22, a11, a21, a12, a22))
    curve = [[sum(j * d[k] for j, d in zip(row, dchi)) for k in range(8)]
             for row in fam.exact_curve_data[0]]
    return [(a22, -a21, -a12, a11) + zeros, zeros + (b22, -b21, -b12, b11), *curve], dchi


def _exact_pin_verdict(rows, dchi, pins):
    """None for a feasible pin pair; "rank" when the reduced rows have rank
    below 4, "gauge" when D(chi) sends their whole kernel to zero."""
    free = [i for i in range(8) if i not in pins]
    reduced = [[row[i] for i in free] for row in rows]
    if exact_rank(reduced) < 4:
        return "rank"
    kernel = exact_nullspace(reduced)
    assert len(kernel) == 2
    moved = any(sum(d[i] * x for i, x in zip(free, v)) for v in kernel for d in dchi)
    return None if moved else "gauge"


def _pins_at_base_point(fam):
    system = _EntrySystem(fam)
    q0 = arc_module._base_point(fam)
    jac0 = np.array(system.evaluate(q0)[1])
    return arc_module._select_pins(arc_module._character_rows(fam.exact_curve_data[0], q0, jac0),
                                   fam.rho_a)


@pytest.mark.parametrize("n", [*range(1, 51), 100, 1000])
def test_the_orbit_test_agrees_with_the_exact_reduced_rows(n):
    fam = make_family(n)
    rows, dchi = _exact_character_rows(fam)
    assert exact_rank(rows) == 4
    feasible = [pins for pins in combinations(range(4), 2)
                if _exact_pin_verdict(rows, dchi, pins) is None]
    assert arc_module._pin_pairs(fam.rho_a) == feasible
    assert _pins_at_base_point(fam) == ((1, 3) if n <= 5 else (0, 1))


@pytest.mark.parametrize("a", [Mat2(-1, 1, 0, -1), Mat2(1, 0, 0, 1), Mat2(-1, 0, 0, -1),
                               Mat2(2, 0, 0, 1), Mat2(1, 0, 3, 1), Mat2(0, -1, 1, 0),
                               Mat2(3, 1, 2, 1), Mat2(2, 1, 1, 1), Mat2(1, 2, 0, 1)])
def test_pin_pairs_are_the_entry_pairs_the_orbit_moves_in_rank_2(a):
    orbit = [x @ a - a @ x for x in (Mat2(1, 0, 0, -1), Mat2(0, 1, 0, 0), Mat2(0, 0, 1, 0))]
    assert arc_module._pin_pairs(a) == [
        pins for pins in combinations(range(4), 2)
        if exact_rank([[c[p] for c in orbit] for p in pins]) == 2]


def test_each_rejected_pin_pair_at_n_1_fails_for_its_reason(fam1):
    # rho_n(a) = [[-1, 1], [0, -1]]: conjugation moves neither entry 2 nor
    # entries 0 and 3 apart, so (0, 3) and each pair with entry 2 cut the
    # orbit in rank 1; each keeps rank 4 and leaves a kernel of pure gauge
    rows, dchi = _exact_character_rows(fam1)
    assert {pins: _exact_pin_verdict(rows, dchi, pins) for pins in combinations(range(4), 2)} == {
        (0, 1): None, (0, 2): "gauge", (0, 3): "gauge", (1, 2): "gauge", (1, 3): None,
        (2, 3): "gauge"}


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
        assert (a - b).frobenius() < 0.5


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
    # a float budget never equals the step count, so the arc would run on
    # past it, and a bool would pass as 1
    for max_steps in (2.5, math.nan, 3.0, True):
        with pytest.raises(ValueError, match="max_steps must be a nonnegative int"):
            continue_arc(fam1, max_steps=max_steps)
    for direction in (True, 1.0):
        with pytest.raises(ValueError, match="direction must be the int"):
            continue_arc(fam1, direction=direction)


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


def _patch_arc_linalg(monkeypatch, **functions):
    """Replace np.linalg functions as arc's numpy sees them (not as sl2's
    or pretzel's do)."""
    linalg = types.ModuleType(np.linalg.__name__)
    linalg.__dict__.update(vars(np.linalg))
    linalg.__dict__.update(functions)
    proxy = types.ModuleType(np.__name__)
    proxy.__dict__.update(vars(np))
    proxy.linalg = linalg
    monkeypatch.setattr(arc_module, "np", proxy)


def _count_step_work(monkeypatch) -> dict:
    """Count Jacobian evaluations, value passes, and the lstsq and svd calls
    made through arc's numpy."""
    counts = {"evaluate": 0, "values": 0, "lstsq": 0, "svd": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(_EntrySystem, "evaluate", counted("evaluate", _EntrySystem.evaluate))
    monkeypatch.setattr(_EntrySystem, "values", counted("values", _EntrySystem.values))
    _patch_arc_linalg(monkeypatch, lstsq=counted("lstsq", np.linalg.lstsq),
                      svd=counted("svd", np.linalg.svd))
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


def _reference_newton(self, q_pred, tau):
    """The step without the bordered tangent: a full evaluation at every
    iterate, a one-right-hand-side lstsq update, and the next tangent from
    the SVD at the accepted point, sign-matched to tau."""
    q = np.array(q_pred, dtype=float)
    a = np.empty((7, len(self.free)))
    a[5] = tau
    b = np.zeros(7)
    for it in range(NEWTON_MAX_ITER + 1):
        full = self.expand(q)
        f, jac, images = self.system.evaluate(full)
        jr = np.array(jac)[:, self.free]
        extra = float(np.dot(tau, q - q_pred))
        res = max(float(np.abs(f).max()), abs(extra))
        if res <= NEWTON_TOL or not math.isfinite(res) or it == NEWTON_MAX_ITER:
            if not res <= NEWTON_TOL:
                return full, res, images, tau
            v = self.tangent(full, jr)
            return full, res, images, v if float(np.dot(v, tau)) >= 0.0 else -v
        a[:5] = jr
        gauge = np.array(_EntrySystem.gauge_flow(full))
        a[6] = (gauge / np.linalg.norm(gauge))[self.free]
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
def test_the_bordered_tangent_step_matches_the_reference_step(n, direction, arcs200,
                                                               minus_arcs200):
    # The tangent comes from the Jacobian at the last iterate rather than at
    # the accepted point, which moves the arc within the corrector's
    # tolerance.  Largest measured gaps: characters 1.04e-11 (n = 1,
    # direction -1; bound margin 9.6x) and meridian traces 9.6e-9 (n = 21,
    # direction +1; margin 10x).
    fam = make_family(n)
    arc = arcs200[n] if direction == 1 else minus_arcs200[n]
    reference = _reference_arc(fam, step_size=1e-3, max_steps=200, direction=direction)
    assert arc.termination_reason == "maxSteps" and len(arc.samples) == 201
    _assert_matches_reference(arc, reference, char_bound=1e-10, meridian_bound=1e-7)


def test_the_second_newton_iteration_solves_on_a_fresh_jacobian(fam1, monkeypatch):
    # steps of 0.02 at n = 1 take two Newton iterations each
    counts = _count_step_work(monkeypatch)
    arc = continue_arc(fam1, step_size=0.02, max_steps=500, direction=1)
    assert arc.termination_reason == "maxSteps" and len(arc.samples) == 501
    assert counts["lstsq"] > 500
    # every Newton solve follows one Jacobian evaluation, and no solve
    # follows the base-point evaluation
    assert counts["lstsq"] == counts["evaluate"] - 1
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
        jr = np.array(system.evaluate(q)[1])[:, reduced.free]
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
        scale = max(abs(float(x)) for m in exact.values() for x in m)
        for row, (w1, w2) in enumerate(_CURVE_PAIRS):
            want = exact[w1].trace() - exact[w2].trace()
            assert abs(Fraction(f[2 + row]) - want) <= Fraction(1e-12) * Fraction(scale)
        for name, image in zip(("m1", "m2", "l1", "l2"), images):
            assert (Mat2(*image) - exact[name].to_float()).frobenius() <= 1e-12 * scale
        diffs = np.zeros((5, 8))
        for j in range(8):
            h = 1e-6 * max(1.0, abs(q[j]))
            step = np.zeros(8)
            step[j] = h
            diffs[:, j] = (np.array(system.evaluate(q + step)[0])
                           - np.array(system.evaluate(q - step)[0])) / (2 * h)
        for got, want in zip(jac, diffs):
            assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(got))
        gauge = np.array(_EntrySystem.gauge_flow(q))
        gauge /= np.linalg.norm(gauge)
        assert np.linalg.norm(gauge) == pytest.approx(1.0)
        assert np.all(gauge[:4] == 0.0)
        for row in jac[2:]:
            assert abs(row @ gauge) <= 1e-12 * np.linalg.norm(row)
        reduced = _ReducedSystem(system, arc.pins, q[list(arc.pins)])
        row = reduced.gauge_row(tuple(q))
        assert _bits(row) == _bits(reduced.take(gauge))
        assert np.linalg.norm(row) == pytest.approx(1.0)


# The product pass on letter strings with a _mul per product, one word at a
# time, and the evaluation that filled F and J element by element: the
# references that the shared-product pass and evaluate must match bit for
# bit.


def _reference_mul(x, y):
    x11, x12, x21, x22 = x
    y11, y12, y21, y22 = y
    return (x11 * y11 + x12 * y21, x11 * y12 + x12 * y22,
            x21 * y11 + x22 * y21, x21 * y12 + x22 * y22)


def _reference_trace_pass(spelling, letters):
    one = letters["a"][0] ** 0
    zero = one - one
    identity = (one, zero, zero, one)
    mats = [letters[ch] for ch in spelling]
    suffix = [identity] * (len(mats) + 1)
    for i in range(len(mats) - 1, -1, -1):
        suffix[i] = _reference_mul(mats[i], suffix[i + 1])
    grad = [zero] * 8
    prefix = identity
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


def _reference_letters(q, number=float):
    a11, a12, a21, a22, b11, b12, b21, b22 = (number(x) for x in q)
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
        q = s.ma.entries() + s.mb.entries()
        named = _reference_letters(q)
        coded = tuple(named[ch] for ch in "aAbB")
        images = system.plan.images(coded)
        for spelling, (trace, grad, image), image_only in zip(
                spellings, system.plan.passes(coded), images, strict=True):
            want_trace, want_grad, want_image = _reference_trace_pass(spelling, named)
            assert _bits(trace) == _bits(want_trace)
            assert _bits(grad) == _bits(want_grad)
            assert _bits(image) == _bits(want_image)
            assert _bits(image_only) == _bits(want_image)
        f, jac, images = system.evaluate(q)
        want_f, want_jac, want_images = _reference_evaluate(spellings, q)
        assert _bits(f) == _bits(want_f)
        assert _bits(jac) == _bits(want_jac)
        assert _bits(images) == _bits(want_images)
        assert _bits([m.entries() for m in s.word_images]) == _bits(want_images)


def _check_integer_passes(n):
    fam = make_family(n)
    words = [getattr(fam, name) for name in _CURVE_WORDS]
    named = _reference_letters(fam.rho_a.entries() + fam.rho_b.entries(), int)
    passes = fam.curve_plan.passes(tuple(named[ch] for ch in "aAbB"))
    for word, (trace, grad, image) in zip(words, passes, strict=True):
        want_trace, want_grad, want_image = _reference_trace_pass(word.spelled(), named)
        assert (trace, list(grad), image) == (want_trace, want_grad, want_image)
        assert all(type(x) is int for x in (trace, *grad, *image))


@pytest.mark.parametrize("ns", [range(1, 51), (100, 1000, N_CAP)], ids=["1..50", "100-1000-N_CAP"])
def test_the_integer_pass_at_rho_n_matches_the_reference(ns):
    for n in ns:
        _check_integer_passes(n)


def _products(trie) -> int:
    """The 2x2 products that a pass makes for one trie of a TracePlan: one
    per node but the empty head."""
    nodes, _ = trie
    return len(nodes) - 1


def _check_trie_shape(trie, chains):
    """Parents come before their children, path k of chain i is the node of
    its head of length k, and equal heads share a node."""
    nodes, paths = trie
    assert nodes[0] is None
    assert all(parent < node for node, (_, parent) in enumerate(nodes[1:], 1))
    heads = {}
    for chain, path in zip(chains, paths, strict=True):
        assert len(path) == len(chain) + 1 and path[0] == 0
        for k in range(1, len(path)):
            assert nodes[path[k]] == (chain[k - 1], path[k - 1])
            assert heads.setdefault(tuple(chain[:k]), path[k]) == path[k]
    assert len(set(heads.values())) == len(heads) == _products(trie)


def test_the_curve_words_share_their_products():
    # n = 1: m1 aabab, m2 aaba, l1 Bab, l2 Baba, m1l1 aabaab, m2l2 aabaBaba,
    # 30 letters.  19 distinct suffixes; 11 distinct prefixes of each word
    # short of its last letter (the whole-word prefix is never read).
    plan = _EntrySystem(make_family(1)).plan
    assert sum(map(len, plan.words)) == 30
    assert (_products(plan.suffixes), _products(plan.prefixes)) == (19, 11)
    _check_trie_shape(plan.suffixes, [c[::-1] for c in plan.words])
    _check_trie_shape(plan.prefixes, [c[:-1] for c in plan.words])
    plan = _EntrySystem(make_family(N_CAP)).plan
    assert _products(plan.suffixes) + _products(plan.prefixes) <= 2 * sum(map(len, plan.words))


def _distinct(chains) -> int:
    return len({chain[:k] for chain in chains for k in range(1, len(chain) + 1)})


def test_the_plan_matches_per_word_passes_on_random_word_sets():
    # words glued from a few shared pieces, so heads and tails repeat;
    # entries include signed zeros and products that underflow to them (the
    # reference subtracts where the pass adds a negation, which agree on
    # every value but a NaN's sign, so no entry makes a NaN)
    rng = random.Random(18)
    values = [0.0, -0.0, 1.0, -2.5, 1e-200, -3e-200, 0.75, -1.25]
    for _ in range(300):
        pieces = ["".join(rng.choice("aAbB") for _ in range(rng.randrange(1, 5))) for _ in range(3)]
        spellings = ["".join(rng.choice(pieces) for _ in range(rng.randrange(0, 4)))
                     for _ in range(rng.randrange(1, 7))]
        codes = [tuple("aAbB".index(ch) for ch in w) for w in spellings]
        plan = TracePlan(codes)
        assert _products(plan.suffixes) == _distinct([c[::-1] for c in codes])
        assert _products(plan.prefixes) == _distinct([c[:-1] for c in codes])
        _check_trie_shape(plan.suffixes, [c[::-1] for c in codes])
        _check_trie_shape(plan.prefixes, [c[:-1] for c in codes])
        q = [rng.choice(values) if rng.random() < 0.3 else rng.uniform(-3, 3) for _ in range(8)]
        named = _reference_letters(q)
        coded = tuple(named[ch] for ch in "aAbB")
        got, images = plan.passes(coded), plan.images(coded)
        for spelling, (trace, grad, image), image_only in zip(spellings, got, images, strict=True):
            want_trace, want_grad, want_image = _reference_trace_pass(spelling, named)
            assert _bits(trace) == _bits(want_trace)
            assert _bits(grad) == _bits(want_grad)
            assert _bits(image) == _bits(image_only) == _bits(want_image)


def _same_samples(got, want) -> bool:
    """Equal sample sequences, bit for bit: repr writes every float exactly,
    with the sign of a zero and NaN included."""
    return list(map(repr, got)) == list(map(repr, want))


def _newton_steps(monkeypatch, record: list):
    """Wrap _ReducedSystem.newton to append the count of Jacobian
    evaluations made so far after each call; returns that running count."""
    evaluations = [0]
    evaluate_entries, newton = _EntrySystem.evaluate, _ReducedSystem.newton

    def counted_evaluate(self, q):
        evaluations[0] += 1
        return evaluate_entries(self, q)

    def counted_newton(self, q_pred, tau):
        out = newton(self, q_pred, tau)
        record.append(evaluations[0])
        return out

    monkeypatch.setattr(_EntrySystem, "evaluate", counted_evaluate)
    monkeypatch.setattr(_ReducedSystem, "newton", counted_newton)
    return evaluations


@pytest.mark.parametrize("entry", range(5), ids=lambda k: f"F{k}")
@pytest.mark.parametrize("poisoned_after, outcome", [
    (40, "newtonFailure"), (80, "newtonFailure"), (3, "first step")])
def test_a_non_finite_residual_ends_the_arc(poisoned_after, outcome, entry, fam1, monkeypatch,
                                           capfd, tmp_path):
    # From Jacobian evaluation poisoned_after + 1 on, F is NaN in one entry
    # and 0 in the others.  The base point and the two orientation probes
    # take three evaluations, so 3 poisons the first step, 40 a step of the
    # first block of samples and 80 one past it.  A max over |F| that skips
    # a NaN after its first argument would read the poisoned F as converged.
    with monkeypatch.context() as counting:
        ends = []
        evaluations = _newton_steps(counting, ends)
        continue_arc(fam1, step_size=1e-3, max_steps=0, direction=1)
        probes = len(ends)
        ends.clear()
        evaluations[0] = 0
        free = continue_arc(fam1, step_size=1e-3, max_steps=100, direction=1)
    # the step whose evaluations reach the poison fails; the steps before it
    # are the arc
    failing = next(k for k, end in enumerate(ends[probes:], 1) if end > poisoned_after)
    evaluate_entries = _EntrySystem.evaluate
    calls = [0]

    def poisoned(self, q):
        calls[0] += 1
        f, jac, images = evaluate_entries(self, q)
        if calls[0] > poisoned_after:
            f = tuple(math.nan if k == entry else 0.0 for k in range(5))
        return f, jac, images

    monkeypatch.setattr(_EntrySystem, "evaluate", poisoned)
    argv = ["arc", "--n", "1", "--steps", "100", "--out", str(tmp_path / "arc.csv")]
    if outcome == "newtonFailure":
        arc = continue_arc(fam1, step_size=1e-3, max_steps=100, direction=1)
        assert arc.termination_reason == "newtonFailure"
        assert len(arc.samples) == failing
        assert _same_samples(arc.samples, free.samples[:failing])
        assert all(s.residual <= NEWTON_TOL for s in arc.samples)
        calls[0] = 0
        assert main(argv) == 0
        out, err = capfd.readouterr()
        assert out.endswith(" termination=newtonFailure\n")
        assert err == ""
    else:
        assert failing == 1
        with pytest.raises(ContinuationError, match="first step"):
            continue_arc(fam1, step_size=1e-3, max_steps=100, direction=1)
        calls[0] = 0
        assert main(argv) == 3
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("error: Newton diverged at the first step (last residual nan)")
        assert err.count("\n") == 1


@pytest.fixture(scope="module")
def free_arc1(fam1):
    """The n = 1 arc without a trace ceiling, 200 steps."""
    return continue_arc(fam1, step_size=1e-3, max_steps=200, direction=1, trace_ceiling=math.inf)


@pytest.mark.parametrize("max_steps", [0, 1, 63, 64, 65])
def test_a_shorter_arc_is_a_prefix_of_a_longer_one(max_steps, fam1, free_arc1):
    arc = continue_arc(fam1, step_size=1e-3, max_steps=max_steps, direction=1,
                       trace_ceiling=math.inf)
    assert arc.termination_reason == "maxSteps"
    assert _same_samples(arc.samples, free_arc1.samples[:max_steps + 1])


@pytest.mark.parametrize("k", [1, 63, 64, 65, 130])
def test_the_ceiling_stops_the_arc_at_the_first_sample_above_it(k, fam1, monkeypatch):
    # The corrector runs ahead of the checks by at most one block of
    # samples, and the samples after the first one above the ceiling are
    # dropped.  The meridian trace is replaced by 2 + t, which rises along
    # the arc (the true one falls over its first few units of t).
    monkeypatch.setattr(arc_module.RepSample, "meridian_trace", property(lambda s: 2.0 + s.t))
    free = continue_arc(fam1, step_size=1e-3, max_steps=200, direction=1, trace_ceiling=math.inf)
    ceiling = math.nextafter(free.samples[k].meridian_trace, 0.0)
    ends = []
    _newton_steps(monkeypatch, ends)
    continue_arc(fam1, step_size=1e-3, max_steps=0, direction=1)
    probes = len(ends)
    arc = continue_arc(fam1, step_size=1e-3, max_steps=200, direction=1, trace_ceiling=ceiling)
    assert arc.termination_reason == "meridianTraceCeiling"
    assert _same_samples(arc.samples, free.samples[:k + 1])
    assert k <= len(ends) - 2 * probes <= k + 63


def test_svd_calls_grow_by_one_per_block_of_steps(fam1, monkeypatch):
    # one stacked conjugator solve per block of corrector steps, not one
    # per sample
    svd = np.linalg.svd
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    totals = []
    for steps in (200, 1000):
        calls[0] = 0
        arc = continue_arc(fam1, step_size=1e-3, max_steps=steps, direction=1)
        assert arc.termination_reason == "maxSteps"
        totals.append(calls[0])
    assert 0 <= totals[1] - totals[0] <= math.ceil(800 / 64)


def test_samples_store_their_word_images(fam1, arc1):
    for s in (arc1.samples[0], arc1.samples[1], arc1.samples[-1]):
        for name, image in s.images().items():
            direct = evaluate(getattr(fam1, name), s.ma, s.mb)
            assert (image - direct).frobenius() <= 1e-12 * direct.frobenius()
        assert s.longitude.det() == pytest.approx(1.0, abs=1e-14)
        assert float(s.longitude.trace()) == s.longitude_trace
    assert arc1.longitude_images() == [s.longitude for s in arc1.samples]


def _points_of(samples) -> list:
    """The corrected points (t, q, residual, images) the samples came from."""
    return [(s.t, (*s.ma, *s.mb), s.residual, s.word_images) for s in samples]


def test_a_block_of_one_sample_equals_that_sample_in_a_full_block(free_arc1):
    assert arc_module._samples_at([]) == []
    points = _points_of(free_arc1.samples[1:65])
    block = arc_module._samples_at(points)
    assert _same_samples(block, free_arc1.samples[1:65])
    for point, want in zip(points, block):
        assert _same_samples(arc_module._samples_at([point]), [want])


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("n", [1, 7, 21])
def test_block_conjugators_equal_the_list_solve(n, direction, arcs200, minus_arcs200):
    # the block path builds its rows from one array of the word images, the
    # list path from Mat2 lists: every result agrees bit for bit, from the
    # arc's blocks, from one block of the whole arc and from one-point blocks
    samples = (arcs200 if direction == 1 else minus_arcs200)[n].samples
    assert len(samples) == 201 and samples[0].det_sign == 0  # the singular base sample
    points = _points_of(samples)
    whole = arc_module._samples_at(points)
    for k, (s, again) in enumerate(zip(samples, whole)):
        want = _result_bits(solve_conjugator([s.word_images[:2], s.word_images[2:]]))
        assert _result_bits(s.conjugator) == _result_bits(again.conjugator) == want
        if k % 50 == 0:
            (alone,) = arc_module._samples_at([points[k]])
            assert _result_bits(alone.conjugator) == want


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("n", [1, 7, 21])
def test_the_derived_values_equal_the_stored_formulas(n, direction, arcs200, minus_arcs200):
    # a sample derives its character, longitude trace and meridian trace on
    # access, in the float operations that once built them into the record:
    # the longitude traces as one stacked sum over the block
    samples = (arcs200 if direction == 1 else minus_arcs200)[n].samples
    longitudes = np.array([s.longitude for s in samples])
    for s, trace in zip(samples, (longitudes[:, 0] + longitudes[:, 3]).tolist()):
        a11, a12, a21, a22 = s.ma
        b11, b12, b21, b22 = s.mb
        conj = s.conjugator
        if conj.det_sign == 1 and conj.candidate is not None:
            meridian = abs(conj.candidate.trace())
        elif conj.det_sign == 0:
            meridian = math.inf
        else:
            meridian = math.nan
        character = (a11 + a22, b11 + b22, a11 * b11 + a12 * b21 + a21 * b12 + a22 * b22)
        values = (*s.character, s.longitude_trace, s.meridian_trace)
        assert all(type(x) is float for x in values)
        assert _bits(values) == _bits((*character, trace, meridian))
    assert {s.det_sign for s in samples} == ({0, 1} if direction == 1 else {0, -1})


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("n", [1, 7, 21])
def test_the_stored_commutation_residual_is_the_reference_one(n, direction, arcs200,
                                                              minus_arcs200):
    # each sample's candidate over the pair (longitude, longitude), stacked
    # over the block, is the scalar Mat2 form's residual bit for bit, for
    # the candidate and its negation; the gluing gate reads it unchanged
    fam = make_family(n)
    samples = (arcs200 if direction == 1 else minus_arcs200)[n].samples
    for s in samples:
        g, pairs = s.conjugator.candidate, [(s.longitude, s.longitude)]
        want = _residual_bits(_reference_relation_residual(g, pairs))
        assert _residual_bits(s.commutation_residual) == want
        assert _residual_bits(_reference_relation_residual(g.neg(), pairs)) == want
        if s.det_sign == 1:
            glued = glue_hnn(s, fam).longitude_commutation_residual
            assert _bits(glued) == _bits(s.commutation_residual)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_image_in_a_block_is_rejected_before_the_solve(bad, free_arc1):
    # inf - inf in the rows of a pair (x, x) would warn; the check comes first
    points = _points_of(free_arc1.samples[1:6])
    t, q, residual, images = points[2]
    x = Mat2(bad, 1.0, 0.0, 1.0)
    for where in ((0,), (1,), (3,), (0, 1), (2, 3)):
        poisoned = [x if k in where else image for k, image in enumerate(images)]
        block = points[:2] + [(t, q, residual, tuple(poisoned))] + points[3:]
        for some in (block, block[2:3]):
            with pytest.raises(ValueError, match="finite"):
                arc_module._samples_at(some)


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("n", [1, 7, 21])
def test_the_corrector_rows_equal_the_norm_forms(n, direction, monkeypatch):
    # the gauge row g[free] / sqrt(g . g) and the tangent t / sqrt(t . t)
    # of a contiguous copy t are np.linalg.norm's forms, bit for bit, at
    # every predictor and every solve of the arc
    solves, checked = [], [0]
    lstsq, newton = np.linalg.lstsq, _ReducedSystem.newton

    def recorded(a, b, **kwargs):
        out = lstsq(a, b, **kwargs)
        solves.append((a.copy(), out[0]))
        return out

    _patch_arc_linalg(monkeypatch, lstsq=recorded)

    def checked_newton(self, q_pred, tau):
        solves.clear()
        out = newton(self, q_pred, tau)
        full = self.expand(q_pred.tolist())
        g = np.array(_EntrySystem.gauge_flow(full))
        want = (g / np.linalg.norm(g))[self.free]
        assert _bits(self.gauge_row(full)) == _bits(want)
        if solves:
            assert _bits(solves[0][0][6]) == _bits(want)
            x = solves[-1][1][:, 1]
            assert _bits(out[3]) == _bits(x / np.linalg.norm(x))
            checked[0] += 1
        return out

    monkeypatch.setattr(_ReducedSystem, "newton", checked_newton)
    arc = continue_arc(make_family(n), step_size=1e-3, max_steps=200, direction=direction)
    assert len(arc.samples) == 201 and checked[0] >= 200


def test_a_singular_image_raises_as_its_inverse_does(free_arc1):
    (t, q, residual, (m1, m2, l1, l2)), = _points_of(free_arc1.samples[5:6])
    flat = Mat2(1.0, 2.0, 0.5, 1.0)
    for images in ((flat, m2, l1, l2), (m1, m2, flat, l2)):
        with pytest.raises(ZeroDivisionError, match="singular"):
            arc_module._samples_at([(t, q, residual, images)])


def test_records_have_slots_and_still_replace(arc1):
    sample = arc1.samples[100]
    point = locus_points(arc1).first[0]
    for record in (sample, sample.conjugator, point):
        assert type(record).__slots__ and not hasattr(record, "__dict__")
    moved = dataclasses.replace(sample, conjugator=dataclasses.replace(sample.conjugator, residual=1.0))
    assert (moved.conjugator.residual, moved.t) == (1.0, sample.t)
    assert dataclasses.replace(point, w=0.0) == LocusPoint(point.u, 0.0, point.branch, point.slope)


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
        assert (moved - im2).frobenius() <= 1e-6


def test_glue_hnn_rejects_the_base_sample(fam1, arc1):
    with pytest.raises(GluingError):
        glue_hnn(arc1.samples[0], fam1)


def test_glue_hnn_rejects_negative_class(fam1):
    arc = continue_arc(fam1, step_size=1e-3, max_steps=5, direction=-1)
    with pytest.raises(GluingError):
        glue_hnn(arc.samples[1], fam1)


@pytest.mark.parametrize("residual", ["relation", "commutation"])
def test_glue_hnn_rejects_a_nan_residual(residual, fam1, arc1):
    s = arc1.samples[100]
    if residual == "relation":
        s = dataclasses.replace(s, conjugator=dataclasses.replace(s.conjugator, residual=math.nan))
        match = "relation residual"
    else:
        s = dataclasses.replace(s, commutation_residual=math.nan)
        match = "commute"
    with pytest.raises(GluingError, match=match):
        glue_hnn(s, fam1)


def test_rank_gate_raises_for_degenerate_input():
    # each curve pair spelled with the same word twice: every row is zero
    fam = make_family(1)
    bad = dataclasses.replace(fam, m2=fam.m1, l2=fam.l1)
    with pytest.raises(ContinuationError, match="rank at chi_n is 0"):
        continue_arc(bad)


def test_continuation_audits_its_base_point(fam1):
    # m1 spelled as m2: the curve rank stays 2, but the third pair,
    # (m2 l1, m2 l2), disagrees at rho_n, so rho_n does not solve the
    # constraints that continuation starts from
    bad = dataclasses.replace(fam1, m1=fam1.m2)
    with pytest.raises(ContinuationError, match="audit failed"):
        continue_arc(bad, max_steps=2)
    # the exact audit names the pair and its two traces at rho_n
    want = [bad.image(w).trace() for w in (bad.m1l1, bad.m2l2)]
    assert want[0] != want[1]
    with pytest.raises(ContinuationError, match=(
            rf"^base point audit failed: the pair \(m1 l1, m2 l2\) has traces "
            rf"{want[0]} and {want[1]} at rho_n$")):
        continue_arc(bad, max_steps=2)
    # a pair off determinant 1, given rho_n's exact curve data to pass the
    # rank gate, fails the determinant audit
    off = dataclasses.replace(fam1, rho_b=Mat2(6, 2, 4, 2))
    vars(off)["exact_curve_data"] = fam1.exact_curve_data
    with pytest.raises(ContinuationError, match=(
            r"^base point audit failed: det rho_n\(a\) = 1, det rho_n\(b\) = 4$")):
        continue_arc(off, max_steps=2)


def _second_presentation(n: int) -> FamilyInstance:
    """The family read off lin_presentation(1, -2, n), which presents
    P(3, -3, 2n+1), the same knot, with rho'(a) = [[-1, 1], [0, -1]] and
    rho'(b) = [[-(2n+3), -(3n+5)], [2, 3]] at chi' = (-2, -2n, 2n+2)."""
    (tm1, m2), (tl1, l2) = lin_presentation(1, -2, n).parsed_sides()
    m1, l1 = (Word(w.spelled()[1:-1]) for w in (tm1, tl1))  # strip t ... t^-1
    return FamilyInstance(n, m1, m2, l1, l2, commutator(m1, l1), Mat2(-1, 1, 0, -1),
                          Mat2(-(2 * n + 3), -(3 * n + 5), 2, 3), (-2, -2 * n, 2 * n + 2))


def test_the_probe_failure_names_a_newton_residual_on_each_side():
    # at n = 250 the probe steps stop at residuals near 8e-10 on both sides
    newton = r"Newton residual \d\.\d{3}e-\d\d misses NEWTON_TOL 1e-10"
    with pytest.raises(ContinuationError, match=(
            rf"^orientation probe failed on both sides of the limiting character "
            rf"\(\+ side: {newton}; - side: {newton}\)$")):
        continue_arc(make_family(250), max_steps=2)


def test_the_probe_failure_names_a_singular_conjugator_on_each_side():
    # the second presentation runs at n = 27; at n = 28 both probes converge
    # but both conjugators fall under SINGULAR_DET_TOL
    arc = continue_arc(_second_presentation(27), max_steps=2)
    assert [s.det_sign for s in arc.samples] == [0, 1, 1]
    singular = r"singular conjugator, det_sign 0 at det -?\d\.\d{3}e-\d\d"
    with pytest.raises(ContinuationError, match=(
            rf"^orientation probe failed on both sides of the limiting character "
            rf"\(\+ side: {singular}; - side: {singular}\)$")):
        continue_arc(_second_presentation(28), max_steps=2)
