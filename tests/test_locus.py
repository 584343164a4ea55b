from __future__ import annotations

import dataclasses
import math
import random
import struct

import numpy as np
import pytest

import sl2arc.cli as cli_module
import sl2arc.locus as locus_module
import sl2arc.sl2 as sl2_module
from sl2arc.arc import Arc, GluedRepresentation, GluingError, RepSample, continue_arc, glue_hnn
from sl2arc.cli import main as cli_main
from sl2arc.locus import (
    CSV_HEADER,
    LocusError,
    LocusPoint,
    csv_text,
    emit_csv,
    emit_svg,
    locus_points,
    orderable_interval,
    orderable_interval_of_points,
    peripheral_point_pair,
    svg_text,
)
from sl2arc.pretzel import make_family, verify_lemma
from sl2arc.sl2 import (
    BASE_DIRECTION,
    ConjugatorResult,
    Mat2,
    eigen_data,
    translation_numbers_along_arc,
)
from sl2arc.words import evaluate

from references import rotation, translation_number_by_iteration
from test_sl2 import _reference_read, _row_read, _stacked_residual
from test_words import random_unimodular


@pytest.fixture(scope="module")
def fam1():
    return make_family(1)


@pytest.fixture(scope="module")
def arc1(fam1):
    return continue_arc(fam1, step_size=1e-3, max_steps=400, direction=1)


@pytest.fixture(scope="module")
def locus1(arc1):
    return locus_points(arc1)


def _diag(lam: float) -> Mat2:
    return Mat2(lam, 0.0, 0.0, 1.0 / lam)


# ----------------------------------------------------------------------
# peripheral_point_pair


def test_point_pair_diagonal_example():
    first, second, direction = peripheral_point_pair(_diag(math.e),
                                                     _diag(math.e ** 2))
    assert first.u == pytest.approx(1.0, abs=1e-12)
    assert first.w == pytest.approx(2.0, abs=1e-12)
    assert first.slope == pytest.approx(-2.0, abs=1e-12)
    assert second.u == pytest.approx(-1.0, abs=1e-12)
    assert second.w == pytest.approx(-2.0, abs=1e-12)
    assert second.slope == pytest.approx(-2.0, abs=1e-12)
    assert direction == (1.0, 0.0)


def test_point_pair_identity_longitude_is_horizontal():
    first, second, _ = peripheral_point_pair(_diag(3.0), Mat2.identity(exact=False))
    assert first.w == 0.0 and second.w == 0.0
    assert first.u == pytest.approx(math.log(3.0))
    assert math.isnan(first.slope) or first.slope == 0.0 or first.slope == -0.0


def test_point_pair_rejects_parabolic_meridian():
    with pytest.raises(LocusError):
        peripheral_point_pair(Mat2(1.0, 1.0, 0.0, 1.0), _diag(2.0))


_NOT_HYPERBOLIC = {
    "elliptic": rotation(0.3),
    "nan": Mat2(math.nan, 0.0, 0.0, math.nan),
    "off determinant": Mat2(3.0, 0.0, 0.0, 0.5),
}


@pytest.mark.parametrize("case", sorted(_NOT_HYPERBOLIC))
def test_a_meridian_eigen_data_cannot_split_is_a_locus_error(case, fam1, monkeypatch):
    # eigen_data's TRACE_TOL band and determinant check are the one gate;
    # its ValueError becomes a LocusError naming |trace|, and t on an arc
    meridian = _NOT_HYPERBOLIC[case]
    with pytest.raises(LocusError, match=r"not hyperbolic \(\|trace\| = "):
        peripheral_point_pair(meridian, _diag(2.0))
    ident = Mat2.identity(exact=False)
    monkeypatch.setattr(locus_module, "glue_hnn",
                        lambda sample, fam: GluedRepresentation(meridian, 0.0, 0.0))
    with pytest.raises(LocusError, match=r"hyperbolic .* at t=0\.1$") as info:
        locus_points(_fake_arc(fam1, meridian, ident, ident))
    assert type(info.value.__cause__.__cause__) is ValueError


# ----------------------------------------------------------------------
# orderable_interval_of_points


def _points(*uw):
    return [LocusPoint(u, w, "first", -w / u) for u, w in uw]


def test_interval_synthetic_positive_side():
    pts = _points((1.0, -0.5), (2.0, -0.25), (4.0, -0.1))
    assert orderable_interval_of_points(pts) == (0.0, 0.5)


def test_interval_synthetic_negative_side():
    pts = _points((1.0, 0.5), (2.0, 0.25))
    assert orderable_interval_of_points(pts) == (-0.5, 0.0)


def test_interval_picks_the_wider_side():
    pts = _points((1.0, -0.5), (1.0, 0.3))
    assert orderable_interval_of_points(pts) == (0.0, 0.5)


def test_interval_horizontal_arc_raises():
    with pytest.raises(LocusError, match=r"^arc is horizontal: every \|w\| is below 1e-09$"):
        orderable_interval_of_points(_points((1.0, 0.0), (2.0, 5e-10)))


def test_interval_with_no_finite_slope_raises():
    points = [LocusPoint(0.0, w, "first", math.nan) for w in (0.5, -2.0)]
    with pytest.raises(LocusError, match="^no finite slopes on the arc$"):
        orderable_interval_of_points(points)


def test_interval_empty_raises():
    with pytest.raises(LocusError):
        orderable_interval_of_points([])


# ----------------------------------------------------------------------
# locus_points on a real arc


def test_locus_accepts_every_glueable_sample(arc1, locus1):
    assert len(locus1.first) == len(locus1.second)
    assert len(locus1.first) == len(locus1.sample_indices)
    # the whole +1-direction arc past t=0 is glueable
    assert len(locus1.first) == len(arc1.samples) - 1
    assert all(arc1.samples[i].det_sign == 1 for i in locus1.sample_indices)
    assert 0 not in locus1.sample_indices


def test_locus_points_are_ordered_by_u(arc1, locus1):
    us = [p.u for p in locus1.first]
    assert us == sorted(us)
    # on this family u shrinks as t grows, so u-order reverses sample order
    assert list(locus1.sample_indices) == sorted(locus1.sample_indices,
                                                 reverse=True)


def test_locus_longitude_translations_vanish(arc1, locus1):
    # at n = 1 the undirected reads, at each longitude's own expanding
    # direction, agree with the locus: every accepted sample translates by 0
    translations = translation_numbers_along_arc(arc1.longitude_images())
    assert {translations[i].value for i in locus1.sample_indices} == {0.0}


def test_locus_branches_are_negatives(locus1):
    for p1, p2 in zip(locus1.first, locus1.second):
        assert abs(p1.u + p2.u) <= 1e-9
        assert abs(p1.w + p2.w) <= 1e-9


def test_locus_slope_consistency(locus1):
    for p in locus1.first + locus1.second:
        assert abs(p.slope - (-p.w / p.u)) <= 1e-12


def test_locus_summary_fields_cohere(locus1):
    assert locus1.max_abs_w > 1e-9
    assert locus1.tail_max_abs_w <= locus1.max_abs_w
    assert locus1.tail_final_abs_w == abs(locus1.first[-1].w)
    tail_len = max(1, len(locus1.first) // 5)
    tail = locus1.first[-tail_len:]
    assert locus1.tail_min_u == min(p.u for p in tail)
    lo, hi = orderable_interval(locus1)
    assert lo == 0.0 or hi == 0.0
    assert lo < hi


def test_locus_empty_arc(fam1):
    arc = continue_arc(fam1, max_steps=0)
    locus = locus_points(arc)
    assert locus.first == ()
    with pytest.raises(LocusError):
        orderable_interval(locus)


# ----------------------------------------------------------------------
# the longitude's translation integer, read at the stable letter's direction

REACH_N = range(9, 51)


@pytest.fixture(scope="module")
def reach_arcs():
    """200-step arcs for n = 1..50.  From n = 9 the longitude's own
    eigendirection misses the translation integer by 1.1-2.2e-6 (and at
    n = 20 its determinant is 1.6e-12 off)."""
    return {n: continue_arc(make_family(n), step_size=1e-3, max_steps=200, direction=1)
            for n in range(1, 51)}


@pytest.mark.parametrize("n", REACH_N)
def test_locus_reaches_n_9_to_21_with_integer_zero(reach_arcs, n):
    arc = reach_arcs[n]
    assert arc.pins == (0, 1)
    locus = locus_points(arc)
    assert len(locus.first) == sum(s.det_sign == 1 for s in arc.samples) > 0
    # the iterate-limit reference agrees on a subsample; it classifies the
    # endpoint, so the endpoint is scaled to determinant 1 first
    longitudes = arc.longitude_images()
    kept = sorted(locus.sample_indices)
    for k in (kept[0], kept[len(kept) // 2], kept[-1]):
        end = longitudes[k]
        path = longitudes[:k] + [end.scale(1.0 / math.sqrt(end.det()))]
        assert abs(translation_number_by_iteration(path, iterations=1 << 12)) <= 1e-4


@pytest.mark.parametrize("n", range(1, 51))
def test_every_index_has_a_negative_orderable_interval(reach_arcs, n):
    # the whole family end to end: the exact and the float report pass, and
    # the 200-step +1 arcs give lo from -0.02467 (n = 1) to -3.389e-5 (n = 50)
    assert verify_lemma(n).all_pass and verify_lemma(n, exact=False).all_pass
    lo, hi = orderable_interval(locus_points(reach_arcs[n]))
    assert hi == 0.0 and -math.inf < lo < 0.0


@pytest.mark.parametrize("n", range(1, 51))
def test_every_minus_arc_has_an_empty_locus(n):
    # past the singular base sample every conjugator of a -1 arc has
    # determinant -1, so no sample glues and there is no slope interval
    arc = continue_arc(make_family(n), step_size=1e-3, max_steps=200, direction=-1)
    assert arc.termination_reason == "maxSteps" and len(arc.samples) == 201
    assert {s.det_sign for s in arc.samples[1:]} == {-1}
    locus = locus_points(arc)
    assert locus.first == locus.second == locus.sample_indices == ()
    with pytest.raises(LocusError, match="^empty locus arc has no slope interval$"):
        orderable_interval(locus)


def test_the_two_meridian_eigenvalues_are_reciprocal(reach_arcs):
    # u2 is log |1 / lambda1|, not log |(tr - root) / 2|, whose cancellation
    # put |u1 + u2| at 6.8e-9 at n = 50
    worst = 0.0
    for arc in reach_arcs.values():
        locus = locus_points(arc)
        worst = max([worst] + [abs(p.u + q.u) for p, q in zip(locus.first, locus.second)])
    assert worst <= 4e-15


def _projective_gap(v: tuple, w: tuple) -> float:
    """Distance between unit directions modulo sign."""
    return min(math.dist(v, w), math.hypot(v[0] + w[0], v[1] + w[1]))


@pytest.fixture(scope="module")
def coarse_arc():
    """The n = 1 arc of 100 steps of 0.1."""
    return continue_arc(make_family(1), step_size=0.1, max_steps=100, direction=1)


def test_the_expanding_direction_stays_the_nearer_one_along_an_arc(reach_arcs, coarse_arc):
    # Every accepted sample's stable letter is hyperbolic, so its expanding
    # eigenvalue never changes place: the expanding direction is nearer the
    # previous accepted sample's than the contracting one is, by at least
    # 1.86e4x on the 200-step arcs and 86x on the n = 1 arc of step 0.1.
    worst = math.inf
    for arc in [*reach_arcs.values(), coarse_arc]:
        kept = sorted(locus_points(arc).sample_indices)
        assert len(kept) == sum(s.det_sign == 1 for s in arc.samples) > 0
        pairs = [eigen_data(glue_hnn(arc.samples[i], arc.family).t_letter) for i in kept]
        for ((_, prev), _), ((_, expanding), (_, contracting)) in zip(pairs, pairs[1:]):
            near, far = _projective_gap(prev, expanding), _projective_gap(prev, contracting)
            worst = min(worst, far / near if near else math.inf)
    assert worst >= 10.0


def _rows(mats, directions) -> list:
    """The (longitude, direction) of each row of the stacked translation read."""
    return [(Mat2._make(m), tuple(v)) for m, v in zip(mats.tolist(), directions.tolist())]


def _misdirect(monkeypatch, direction_of):
    """Make the locus read each longitude at direction_of(longitude, the
    stable letter's expanding direction) instead, row by row of its stacked
    translation read."""
    read = locus_module._translations

    def misdirected(mats, alphas, base_theta, directions):
        moved = [direction_of(mat, direction) for mat, direction in _rows(mats, directions)]
        return read(mats, alphas, base_theta, np.array(moved).reshape(-1, 2))

    monkeypatch.setattr(locus_module, "_translations", misdirected)


@pytest.mark.parametrize("n", REACH_N)
def test_the_longitude_contracting_direction_fails_the_read(reach_arcs, n, monkeypatch):
    # a fixed direction of L too, but ill-conditioned next to chi_n
    _misdirect(monkeypatch, lambda mat, direction: eigen_data(mat)[-1][1])
    with pytest.raises(LocusError, match="longitude translation numbers failed"):
        locus_points(reach_arcs[n])


_FIRST_DIRECTION_PASSES = pytest.mark.xfail(strict=True, reason=(
    "from n = 25 the longitude misses the first sample's stable-letter direction by less "
    "than the 1e-6 integrality check, so the read at that direction passes (ROADMAP item 13)"))


@pytest.mark.parametrize("n", [n if n < 25 else pytest.param(n, marks=_FIRST_DIRECTION_PASSES)
                               for n in REACH_N])
def test_the_stable_letter_direction_of_another_sample_fails_the_read(reach_arcs, n, monkeypatch):
    seen = []

    def first_direction(mat, direction):
        seen.append(direction)
        return seen[0]

    _misdirect(monkeypatch, first_direction)
    with pytest.raises(LocusError, match="not close to an integer"):
        locus_points(reach_arcs[n])


def _fixed_direction_miss(mat: Mat2, direction: tuple) -> float:
    """The angle, in [-pi/2, pi/2), from a direction to its image under mat."""
    theta = sl2_module._dir_angle(*direction)
    cs, sn = math.cos(theta), math.sin(theta)
    image = sl2_module._dir_angle(mat.a * cs + mat.b * sn, mat.c * cs + mat.d * sn)
    return (image - theta + math.pi / 2) % math.pi - math.pi / 2


@pytest.mark.parametrize("n", range(1, 51))
def test_the_locus_reads_each_longitude_at_a_direction_it_fixes(reach_arcs, n, monkeypatch):
    # The integrality check (1e-6) would also pass the previous sample's
    # direction, which the longitude misses by up to 9.8e-10 (n = 50) to
    # 3.6e-7 (n = 3); the stable letter's own direction is missed by at most
    # 4.7e-10, so at n = 50 the 1e-9 bound no longer tells the two apart.
    arc, reads = reach_arcs[n], []
    read = locus_module._translations

    def recorded(mats, alphas, base_theta, directions):
        reads.extend(_rows(mats, directions))
        return read(mats, alphas, base_theta, directions)

    monkeypatch.setattr(locus_module, "_translations", recorded)
    locus_points(arc)
    assert len(reads) == sum(s.det_sign == 1 for s in arc.samples) > 0
    for mat, direction in reads:
        assert abs(_fixed_direction_miss(mat, direction)) / math.pi <= 1e-9


@pytest.mark.xfail(raises=GluingError, strict=True, reason=(
    "at n = 100 the stable letter misses commuting with the longitude by 1.405e-8, "
    "above GLUE_TOL = 1e-8 (ROADMAP item 13)"))
def test_locus_reaches_n_100():
    arc = continue_arc(make_family(100), step_size=1e-3, max_steps=200, direction=1)
    assert arc.pins == (0, 1)
    assert arc.termination_reason == "maxSteps" and len(arc.samples) == 201
    locus_points(arc)


def test_locus_decomposes_one_matrix_per_sample_and_never_a_longitude(arc1, monkeypatch):
    longitudes = set(arc1.longitude_images())
    calls = {"locus eigen_data": 0, "longitude": 0}
    sl2_classify, sl2_eigen_data = sl2_module.classify, sl2_module.eigen_data
    split = locus_module._hyperbolic_split

    def counted(stack):
        calls["locus eigen_data"] += len(stack)
        calls["longitude"] += sum(Mat2._make(row) in longitudes for row in stack.tolist())
        return split(stack)

    def watched(fn):
        def call(mat, *args):
            calls["longitude"] += mat in longitudes
            return fn(mat, *args)
        return call

    monkeypatch.setattr(locus_module, "_hyperbolic_split", counted)
    monkeypatch.setattr(locus_module, "eigen_data", watched(eigen_data))
    monkeypatch.setattr(sl2_module, "classify", watched(sl2_classify))
    monkeypatch.setattr(sl2_module, "_classify", watched(sl2_module._classify))
    monkeypatch.setattr(sl2_module, "eigen_data", watched(sl2_eigen_data))
    locus = locus_points(arc1)
    assert len(locus.first) > 0
    assert calls == {"locus eigen_data": sum(s.det_sign == 1 for s in arc1.samples),
                     "longitude": 0}


def test_the_undirected_reads_classify_each_endpoint_once(reach_arcs, monkeypatch):
    longitudes = reach_arcs[1].longitude_images()
    classified = []
    classify = sl2_module._classify

    def counted(mat, exact):
        classified.append(mat)
        return classify(mat, exact)

    monkeypatch.setattr(sl2_module, "_classify", counted)
    translations = translation_numbers_along_arc(longitudes)
    # the first longitude is the identity, read off the track unclassified
    assert len(translations) == 201 and len(classified) == 200
    end = longitudes[100]
    classified.clear()
    translation_number_by_iteration(longitudes[:100] + [end.scale(1.0 / math.sqrt(end.det()))],
                                    iterations=16)
    assert len(classified) == 1


@pytest.mark.parametrize("value", [-1.0, 1.0])
def test_the_locus_keeps_only_samples_whose_longitude_does_not_translate(value, arc1, locus1,
                                                                          monkeypatch):
    odd = set(arc1.longitude_images()[1::2])
    read = locus_module._translations

    def translated(mats, alphas, base_theta, directions):
        got = read(mats, alphas, base_theta, directions)
        return np.array([value if mat in odd else v
                         for (mat, _), v in zip(_rows(mats, directions), got.tolist())])

    monkeypatch.setattr(locus_module, "_translations", translated)
    kept = locus_points(arc1).sample_indices
    assert kept == tuple(i for i in locus1.sample_indices if i % 2 == 0)


_UNLIFTABLE = {
    # the first longitude sends the base direction to 0
    "singular first": ([Mat2(0.0, 0.0, 0.0, 0.0), Mat2(0.1, 0.0, 0.0, 0.1)], ArithmeticError,
                       "direction collapsed; matrix is singular"),
    # from m to -m the image of the base direction runs through 0
    "through zero": ([Mat2(0.1, 0.02, -0.03, 0.1), Mat2(-0.1, -0.02, 0.03, -0.1)],
                     sl2_module.ContinuityError, "image direction collapsed along the path"),
}


@pytest.mark.parametrize("case", sorted(_UNLIFTABLE))
def test_a_longitude_path_the_track_cannot_lift_is_a_locus_error(case, arc1, monkeypatch):
    path, error, message = _UNLIFTABLE[case]
    monkeypatch.setattr(Arc, "longitude_images", lambda self: path)
    with pytest.raises(LocusError, match=f"longitude translation numbers failed: {message}") as info:
        locus_points(arc1)
    assert type(info.value.__cause__) is error


@pytest.fixture(scope="module")
def minus_arc9():
    return continue_arc(make_family(9), step_size=1e-3, max_steps=200, direction=-1)


def test_locus_of_a_minus_arc_skips_its_translation_numbers(minus_arc9):
    # no sample of this -1 arc glues, and its longitude translation numbers
    # miss an integer by 2.2e-6, so reading them would raise
    arc = minus_arc9
    assert arc.termination_reason == "maxSteps" and len(arc.samples) == 201
    assert all(s.det_sign != 1 for s in arc.samples)
    with pytest.raises(ArithmeticError, match="not close to an integer"):
        translation_numbers_along_arc(arc.longitude_images())
    locus = locus_points(arc)
    assert locus.first == locus.second == locus.sample_indices == ()


def test_the_earliest_failing_prefix_raises_either_way(minus_arc9):
    # Prefix 1 of this arc's longitude path misses its integer.  A
    # determinant failure at prefix 5 comes later and is not the one raised,
    # while one at prefix 1 is classified before any read.
    longitudes = minus_arc9.longitude_images()
    with pytest.raises(ArithmeticError, match="^translation number .* is not close to an integer$"):
        translation_numbers_along_arc(longitudes[:2])
    for prefix, error, message in [(5, ArithmeticError, "not close to an integer"),
                                   (1, ValueError, "^matrix must have determinant 1, got ")]:
        path = list(longitudes)
        path[prefix] = path[prefix].scale(1.001)
        with pytest.raises(error, match=message) as info:
            translation_numbers_along_arc(path)
        assert type(info.value) is error


# ----------------------------------------------------------------------
# gates on hand-made samples


def _fake_arc(fam, conjugator: Mat2, ma: Mat2, mb: Mat2) -> Arc:
    images = tuple(evaluate(getattr(fam, w), ma, mb) for w in ("m1", "m2", "l1", "l2"))
    im1, _, il1, _ = images
    longitude = im1 @ il1 @ im1.inverse() @ il1.inverse()
    commutation = _stacked_residual(conjugator, [(longitude, longitude)])
    sample = RepSample(
        t=0.1, ma=ma, mb=mb, residual=0.0,
        conjugator=ConjugatorResult(1, conjugator, 1, 0.0),
        word_images=images, longitude=longitude, commutation_residual=float(commutation))
    return Arc(fam, (sample,), "maxSteps", 1, 1e-3, (0, 1))


def test_locus_rejects_non_hyperbolic_meridian(fam1):
    c, s = math.cos(0.3), math.sin(0.3)
    ident = Mat2.identity(exact=False)
    arc = _fake_arc(fam1, Mat2(c, -s, s, c), ident, ident)
    with pytest.raises(LocusError, match="hyperbolic"):
        locus_points(arc)


def test_locus_rejects_a_nan_meridian_trace(arc1, monkeypatch):
    letter = Mat2(math.nan, 0.0, 0.0, math.nan)
    monkeypatch.setattr(locus_module, "glue_hnn",
                        lambda sample, fam: GluedRepresentation(letter, 0.0, 0.0))
    with pytest.raises(LocusError, match="hyperbolic"):
        locus_points(arc1)


def test_locus_rejects_non_commuting_pair(fam1, arc1):
    # real matrices from a t>0 sample (nontrivial longitude) but a replaced,
    # unrelated conjugator: the pair no longer commutes
    s = arc1.samples[50]
    arc = _fake_arc(fam1, _diag(3.0), s.ma, s.mb)
    with pytest.raises(GluingError, match="commute"):
        locus_points(arc)


@pytest.mark.parametrize("k", [50, 200, 400])
def test_locus_rejects_a_letter_that_commutes_but_does_not_glue(arc1, k):
    # L^3 commutes with the longitude L but misses the gluing relations
    # T m1 T^-1 = m2, T l1 T^-1 = l2; its stored residual is the true one
    s = arc1.samples[k]
    letter = s.longitude ** 3
    pairs = [s.word_images[:2], s.word_images[2:]]
    conj = ConjugatorResult(1, letter, 1, float(_stacked_residual(letter, pairs)))
    arc = dataclasses.replace(arc1, samples=(dataclasses.replace(s, conjugator=conj),))
    with pytest.raises(GluingError, match="relation residual"):
        locus_points(arc)


def test_a_meridian_whose_eigenvalues_overflow_is_a_locus_error(fam1, monkeypatch, capsys):
    # the square of the trace 1e160 is inf; the locus names the sample's t
    # and the CLI exits 3, the code of a numerical failure
    ident = Mat2.identity(exact=False)
    letter = Mat2(1e160, 0.0, 0.0, 1e-160)
    with pytest.raises(LocusError, match="^meridian eigendata failed: eigenvalues overflow"):
        peripheral_point_pair(letter, ident)
    arc = _fake_arc(fam1, letter, ident, ident)
    with pytest.raises(LocusError, match=r"^meridian eigendata failed: eigenvalues overflow: "
                                         r"the square of the trace 1e\+160 is inf at t=0\.1$") as info:
        locus_points(arc)
    assert type(info.value.__cause__.__cause__) is ArithmeticError
    monkeypatch.setattr(cli_module, "continue_arc", lambda *args, **kwargs: arc)
    assert cli_main(["interval", "--n", "1", "--steps", "1"]) == 3
    assert capsys.readouterr() == ("", f"error: {info.value}\n")


def test_a_longitude_with_eigenvalue_0_is_a_locus_error(fam1, monkeypatch, capsys):
    # a quarter turn sends T = diag(3, 1/3)'s direction (1, 0) to (0, -1)
    ident = Mat2.identity(exact=False)
    turn = Mat2(0.0, 1.0, -1.0, 0.0)
    with pytest.raises(LocusError, match="^longitude has eigenvalue 0 at a fixed direction"):
        peripheral_point_pair(_diag(3.0), turn)
    sample = _fake_arc(fam1, _diag(3.0), ident, ident).samples[0]
    arc = Arc(fam1, (dataclasses.replace(sample, longitude=turn),), "maxSteps", 1, 1e-3, (0, 1))
    with pytest.raises(LocusError, match="^longitude has eigenvalue 0 at a fixed direction of "
                                         r"the meridian at t=0\.1$") as info:
        locus_points(arc)
    assert type(info.value.__cause__) is LocusError and info.value.__cause__.__cause__ is None
    monkeypatch.setattr(cli_module, "continue_arc", lambda *args, **kwargs: arc)
    assert cli_main(["interval", "--n", "1", "--steps", "1"]) == 3
    assert capsys.readouterr() == ("", f"error: {info.value}\n")


# ----------------------------------------------------------------------
# the stacked read against the scalar one


def _scalar_rows(arc) -> list:
    """The (sample index, first, second) rows of locus_points, read one
    sample at a time by glue_hnn, peripheral_point_pair and a one-row
    translation read: the scalar reference."""
    if not any(sample.det_sign == 1 for sample in arc.samples):
        return []
    longitudes = arc.longitude_images()
    try:
        angles = sl2_module._tracked_angles(longitudes, BASE_DIRECTION)
    except (ArithmeticError, ValueError) as exc:
        raise LocusError(f"longitude translation numbers failed: {exc}") from exc
    rows = []
    for idx, sample in enumerate(arc.samples):
        if sample.det_sign != 1:
            continue
        meridian, longitude = glue_hnn(sample, arc.family).t_letter, longitudes[idx]
        try:
            p1, p2, direction = peripheral_point_pair(meridian, longitude)
        except LocusError as exc:
            raise LocusError(f"{exc} at t={sample.t:.6g}") from exc
        try:
            value = _row_read(longitude, angles[idx], direction)
        except (ArithmeticError, ValueError) as exc:
            raise LocusError(f"longitude translation numbers failed: {exc}") from exc
        if value == 0.0:
            rows.append((p1.u, idx, p1, p2))
    return [row[1:] for row in sorted(rows)]


def _stacked_rows(arc) -> list:
    locus = locus_points(arc)
    return list(zip(locus.sample_indices, locus.first, locus.second))


def _point_bytes(p: LocusPoint) -> bytes:
    return struct.pack("<3d", p.u, p.w, p.slope) + p.branch.encode()


def _outcome(read, arc):
    """read(arc)'s rows with their points as IEEE bytes, or the chain of
    (type, message) of its error and the causes behind it."""
    try:
        rows = read(arc)
    except Exception as exc:  # every error is compared
        chain = []
        while exc is not None:
            chain.append((type(exc), str(exc)))
            exc = exc.__cause__
        return chain
    return [(idx, _point_bytes(p1), _point_bytes(p2)) for idx, p1, p2 in rows]


def _bytes(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


@pytest.mark.parametrize("n", [*range(1, 51), "coarse"])
def test_the_stacked_read_is_the_scalar_read_bit_for_bit(reach_arcs, coarse_arc, n):
    # every glued sample: u, w and slope of both points through locus_points,
    # and the expanding direction and translation integer of the stacked
    # primitives against the one-row reads, as IEEE bytes
    arc = coarse_arc if n == "coarse" else reach_arcs[n]
    rows = _outcome(_stacked_rows, arc)
    assert rows == _outcome(_scalar_rows, arc)
    assert len(rows) == sum(s.det_sign == 1 for s in arc.samples) > 0
    longitudes, glued = arc.longitude_images(), [i for i, s in enumerate(arc.samples) if s.det_sign == 1]
    angles = sl2_module._tracked_angles(longitudes, BASE_DIRECTION)
    letters = [glue_hnn(arc.samples[i], arc.family).t_letter for i in glued]
    mats = np.array([longitudes[i] for i in glued])
    lam1, lam2, expanding, contracting, split = sl2_module._hyperbolic_split(np.array(letters))
    values = sl2_module._translations(mats, np.array([angles[i] for i in glued]), BASE_DIRECTION,
                                      expanding)
    assert split.all()
    for k, (i, letter) in enumerate(zip(glued, letters)):
        (want1, direction), (want2, other) = eigen_data(letter)
        assert _bytes(lam1[k], lam2[k], *expanding[k], *contracting[k]) == _bytes(
            want1, want2, *direction, *other)
        assert _bytes(values[k]) == _bytes(_row_read(longitudes[i], angles[i], direction))


def _stacked_primitives(letter: Mat2, longitude: Mat2) -> tuple:
    """The split flag, eigenvalues, directions and longitude eigenvalues of
    one row through the stacked primitives."""
    lam1, lam2, expanding, contracting, split = sl2_module._hyperbolic_split(np.array([letter]))
    stack = np.array([longitude])
    return (bool(split[0]), lam1[0], lam2[0], tuple(expanding[0].tolist()),
            tuple(contracting[0].tolist()), locus_module._eigenvalues_at(stack, expanding)[0],
            locus_module._eigenvalues_at(stack, contracting)[0])


_LETTERS = [
    _diag(3.0), _diag(-0.25), Mat2(2.0, 1.0, 1.0, 1.0), Mat2(-5.0, 3.0, 2.0, -1.4),
    Mat2(1.0, 1e-300, 0.0, 1.0), Mat2(1e150, 1.0, -1.0, 0.0), Mat2(0.5, -4.0, 0.5, -2.0),
    # the TRACE_TOL band and its edges, parabolic, elliptic and central
    Mat2(1.0 + 5e-10, 1.0, 0.0, 1.0), Mat2(1.0 + 2e-9, 0.0, 0.0, 1.0 / (1.0 + 2e-9)),
    Mat2(1.0, 1.0, 0.0, 1.0), Mat2(-1.0, 0.5, 0.0, -1.0), rotation(0.3), rotation(math.pi),
    Mat2.identity(exact=False),
    # off determinant 1, not finite, overflowing
    Mat2(3.0, 0.0, 0.0, 0.5), Mat2(math.nan, 0.0, 0.0, math.nan), Mat2(math.inf, 0.0, 0.0, 0.0),
    Mat2(1e160, 0.0, 0.0, 1e-160), Mat2(-1e200, 0.0, 0.0, -1e-200), Mat2(0.0, 0.0, 0.0, 0.0),
]
_LONGITUDES = [Mat2.identity(exact=False), Mat2(0.0, 1.0, -1.0, 0.0), _diag(2.0),
               Mat2(0.0, 0.0, 0.0, 0.0), Mat2(math.nan, 1.0, 2.0, 3.0), Mat2(1e300, -1e300, 1e300, 1e300)]


def test_the_stacked_split_fails_exactly_where_the_scalar_read_raises():
    # crafted and random letters against crafted longitudes: a row the split
    # accepts gives the scalar read's numbers as IEEE bytes, and the scalar
    # read raises on exactly the rows it rejects
    rng = random.Random(33)
    letters = _LETTERS + [Mat2(*map(float, random_unimodular(rng))) for _ in range(200)]
    accepted = 0
    for letter in letters:
        for longitude in _LONGITUDES + [Mat2(*map(float, random_unimodular(rng)))]:
            split, lam1, lam2, expanding, contracting, ev1, ev2 = _stacked_primitives(letter, longitude)
            try:
                peripheral_point_pair(letter, longitude)
            except LocusError:
                assert not (split and ev1 != 0.0 and ev2 != 0.0), (letter, longitude)
                continue
            assert split and ev1 != 0.0 and ev2 != 0.0, (letter, longitude)
            (want1, direction), (want2, other) = eigen_data(letter)
            assert _bytes(lam1, lam2, *expanding, *contracting) == _bytes(
                want1, want2, *direction, *other)
            assert _bytes(ev1, ev2) == _bytes(locus_module._eigenvalue_at(longitude, direction),
                                              locus_module._eigenvalue_at(longitude, other))
            accepted += 1
    assert accepted > 900


_NAN_READ = (ValueError, "^cannot convert float NaN to integer$")
_OFF_INTEGER = (ArithmeticError, "^translation number .* is not close to an integer$")
_COLLAPSED = (sl2_module.ContinuityError, "^image direction collapsed along the path$")


def test_the_stacked_translation_read_is_the_scalar_read_on_each_row():
    # Central, collapsing, non-finite and off-integer rows give the stated
    # value or error, and rows at a fixed direction anchored on the tracked
    # angle give the bisecting reference's integer.  A stack of the rows
    # that read gives each row's value as IEEE bytes, and a stack raises the
    # error of its first row that fails.
    rng = random.Random(34)
    ident, base = Mat2.identity(exact=False), BASE_DIRECTION
    cases = [(ident, 0.9, (1.0, 0.0), 0.0), (Mat2(-1.0, 0.0, 0.0, -1.0), 4.0, (0.0, 1.0), 1.0),
             (ident, 0.9, (0.0, 0.0), 0.0),  # a central row ignores its direction
             (ident, math.nan, (1.0, 0.0), _NAN_READ),
             (ident, math.inf, (1.0, 0.0), (OverflowError, "^cannot convert float infinity to integer$")),
             (_diag(2.0), base, (1.0, 0.0), _OFF_INTEGER), (_diag(2.0), base - math.pi, (0.0, 1.0), _OFF_INTEGER),
             (_diag(2.0), math.nan, (1.0, 0.0), _NAN_READ),
             (_diag(2.0), math.inf, (1.0, 0.0), (OverflowError, "^cannot convert float infinity to integer$")),
             (Mat2(0.0, 0.0, 0.0, 0.0), 0.5, (1.0, 0.0), _COLLAPSED),
             (Mat2(0.0, 0.0, 0.0, 0.0), math.nan, (1.0, 0.0), _COLLAPSED),
             (_diag(2.0), base, (0.0, 0.0), _COLLAPSED), (_diag(2.0), base, (math.nan, 0.0), _NAN_READ),
             (Mat2(math.inf, 0.0, 0.0, 1.0), base, (1.0, 0.0), _NAN_READ)]
    for mat in [_diag(2.0), _diag(-2.0), *(Mat2(*map(float, random_unimodular(rng))) for _ in range(300))]:
        pairs = eigen_data(mat) if abs(mat.trace()) >= 2 else ((0.0, (0.6, 0.8)),)
        alpha = sl2_module._tracked_angles([mat], base)[0] + math.pi * rng.randint(-3, 3)
        for _, direction in pairs:
            want = _reference_read(mat, alpha, base, direction)
            miss = abs(want - round(want))
            assert miss <= 1e-12 or miss >= 1e-3
            cases.append((mat, alpha, direction, float(round(want)) if miss <= 1e-12 else _OFF_INTEGER))

    def read(rows):
        return sl2_module._translations(np.array([r[0] for r in rows]), np.array([r[1] for r in rows]),
                                        base, np.array([r[2] for r in rows]))

    good = [case for case in cases if isinstance(case[3], float)]
    bad = [case for case in cases if not isinstance(case[3], float)]
    assert len(good) > 400 and len(bad) > 40
    for mat, alpha, direction, want in good:
        assert _bytes(_row_read(mat, alpha, direction)) == _bytes(want), (mat, alpha, direction)
    assert _bytes(*read(good)) == _bytes(*(case[3] for case in good))
    for k, (mat, alpha, direction, (error, message)) in enumerate(bad):
        with pytest.raises(error, match=message) as info:
            _row_read(mat, alpha, direction)
        assert type(info.value) is error, (mat, alpha, direction)
        later = next(case for case in bad[k + 1:] + bad if case[3][0] is not error)
        with pytest.raises(error, match=message) as info:
            read(good[:5] + [bad[k], later])
        assert type(info.value) is error


def _elliptic_letter(sample: RepSample) -> RepSample:
    return dataclasses.replace(sample, conjugator=ConjugatorResult(1, rotation(0.3), 1, 0.0))


def _turned_longitude(sample: RepSample) -> RepSample:
    # the base direction's image turns by 1e-3 but T's direction does not
    # move with it, so the read misses its integer by 1e-3 / pi
    return dataclasses.replace(sample, longitude=rotation(1e-3) @ sample.longitude)


def _unglued(sample: RepSample) -> RepSample:
    return dataclasses.replace(sample, commutation_residual=1.0)


_FAILURES = {
    "elliptic": (_elliptic_letter, LocusError,
                 r"^meridian is not hyperbolic \(\|trace\| = 1\.91067\) at t=0\.1$"),
    "turned": (_turned_longitude, LocusError,
               r"^longitude translation numbers failed: translation number .* is not close to an integer$"),
    "unglued": (_unglued, GluingError, r"^stable letter fails to commute with the longitude \(1\.000e\+00\)$"),
}


@pytest.mark.parametrize("first, later", [
    (a, b) for a in sorted(_FAILURES) for b in sorted(_FAILURES) if a != b])
def test_the_first_failing_sample_raises_the_scalar_reads_error(arc1, first, later):
    # sample 100 fails one check and sample 200 another: the stacked read
    # raises sample 100's error, as the read one sample at a time does
    samples = list(arc1.samples)
    samples[100] = _FAILURES[first][0](samples[100])
    samples[200] = _FAILURES[later][0](samples[200])
    arc = dataclasses.replace(arc1, samples=tuple(samples))
    _, error, message = _FAILURES[first]
    with pytest.raises(error, match=message):
        locus_points(arc)
    assert _outcome(_stacked_rows, arc) == _outcome(_scalar_rows, arc)


def test_a_sample_failing_two_checks_raises_the_earlier_one(arc1):
    # gluing, then hyperbolicity, then the translation read
    samples = list(arc1.samples)
    samples[100] = _turned_longitude(_elliptic_letter(samples[100]))
    arc = dataclasses.replace(arc1, samples=tuple(samples))
    with pytest.raises(LocusError, match=_FAILURES["elliptic"][2]):
        locus_points(arc)
    samples[100] = _unglued(samples[100])
    arc = dataclasses.replace(arc1, samples=tuple(samples))
    with pytest.raises(GluingError, match=_FAILURES["unglued"][2]):
        locus_points(arc)
    assert _outcome(_stacked_rows, arc) == _outcome(_scalar_rows, arc)


# ----------------------------------------------------------------------
# artifacts


def test_csv_schema_and_order(arc1, locus1):
    text = csv_text(arc1, locus1)
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[-1] == ""
    rows = lines[1:-1]
    assert len(rows) == len(locus1.first)
    ts = []
    for row in rows:
        fields = row.split(",")
        assert len(fields) == 14
        ts.append(float(fields[0]))
        assert fields[11] == "1"
        assert fields[13] == "0"
    assert ts == sorted(ts)


def test_csv_emit_matches_text_and_is_deterministic(arc1, locus1, tmp_path):
    path = tmp_path / "locus.csv"
    emit_csv(arc1, locus1, str(path))
    assert path.read_text() == csv_text(arc1, locus1)
    assert csv_text(arc1, locus1) == csv_text(arc1, locus1)


def test_csv_empty_arc_is_header_only(fam1):
    arc = continue_arc(fam1, max_steps=0)
    assert csv_text(arc, locus_points(arc)) == CSV_HEADER + "\n"


def test_svg_structure(locus1, tmp_path):
    text = svg_text(locus1)
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg" '
                           'width="800" height="600"')
    assert text.endswith("</svg>\n")
    assert text.count("<polyline") == 2
    assert "#c23" in text and "#36c" in text
    assert text.count("<circle") == 1  # origin marker only
    assert "u = ln lambda_m" in text and "w = ln lambda_l" in text
    assert svg_text(locus1) == text
    path = tmp_path / "locus.svg"
    emit_svg(locus1, str(path))
    assert path.read_text() == text


def test_svg_single_point_branches_render_circles(fam1):
    arc = continue_arc(fam1, step_size=1e-3, max_steps=1, direction=1)
    locus = locus_points(arc)
    assert len(locus.first) == 1
    text = svg_text(locus)
    assert text.count("<polyline") == 0
    assert text.count("<circle") == 3  # one marker per branch plus the origin
