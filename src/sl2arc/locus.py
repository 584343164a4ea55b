"""Holonomy-locus sampling, asymptote diagnostics, and CSV/SVG artifacts.

Each accepted arc sample carries a hyperbolic stable letter T (the meridian
of the glued representation) commuting with the longitude image L.  The two
common fixed directions of that peripheral pair give two locus points

    (u, w) = (ln |lambda_m|, ln |lambda_l|)

one per direction; the second branch is the negation of the first, because
swapping the fixed point inverts both eigenvalues.  Branches are tracked
continuously in t by matching fixed directions to the previous sample in
projective distance.  Samples of conjugator class other than +1 are
skipped; every other sample must pass the gluing gate arc.glue_hnn, which
supplies T, and T must be hyperbolic (|trace| > 2 + 1e-9).  A point enters
the locus only when the longitude's path-lifted translation number is 0
(samples with other translation numbers belong to other components of the
locus and are skipped, not errors).

Points are stored ordered by u ascending.  Branches are first tracked along
the arc in sample order (projective continuity needs it) and then sorted,
so the tail of the list -- the largest-u fifth -- is the approach to the
point at infinity of the extended variety (the t -> 0 end, where the
meridian eigenvalue diverges and the longitude eigenvalue tends to 1): that
is where the arc flattens onto the u-axis.

The orderable-slope interval collects r = -w/u over branch-first points and
returns the interval between 0 (exclusive) and the extreme sampled slope;
an arc with every |w| below 1e-9 is all-horizontal and is reported as an
error instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arc import Arc, glue_hnn
from .sl2 import Mat2, eigen_data, translation_numbers_along_arc

__all__ = [
    "LocusArc",
    "LocusError",
    "LocusPoint",
    "csv_text",
    "emit_csv",
    "emit_svg",
    "svg_text",
    "locus_points",
    "orderable_interval",
    "orderable_interval_of_points",
    "peripheral_point_pair",
]

HYPERBOLIC_MARGIN = 1e-9
HORIZONTAL_TOL = 1e-9
TRANSLATION_TOL = 1e-9


class LocusError(ValueError):
    """A locus precondition failed (a non-hyperbolic meridian, longitude
    translation numbers that cannot be evaluated, or an all-horizontal arc
    where a sloped one is required)."""


@dataclass(frozen=True)
class LocusPoint:
    """One (u, w) = (ln lambda_m, ln lambda_l) sample on one branch."""

    u: float
    w: float
    branch: str
    slope: float


@dataclass(frozen=True)
class LocusArc:
    """Locus points per branch plus asymptote diagnostics.

    Points are ordered by u ascending on the first branch (the second branch
    and the parallel sample_indices / longitude_translations tuples share
    that order); the tail is the last 20% of points -- the largest-u end,
    nearest the point at infinity.
    """

    first: tuple
    second: tuple
    sample_indices: tuple
    longitude_translations: tuple
    max_abs_w: float
    tail_max_abs_w: float
    tail_final_abs_w: float
    tail_min_u: float
    tail_monotone: bool
    tail_slope: float


_EMPTY = LocusArc((), (), (), (), 0.0, 0.0, 0.0, 0.0, True, math.nan)


def _projective_gap(v: tuple, w: tuple) -> float:
    """Distance between unit directions modulo sign."""
    plus = math.hypot(v[0] - w[0], v[1] - w[1])
    minus = math.hypot(v[0] + w[0], v[1] + w[1])
    return min(plus, minus)


def _eigenvalue_at(m: Mat2, direction: tuple) -> float:
    """Eigenvalue of m on an (approximate) eigendirection, by component ratio."""
    vx, vy = float(direction[0]), float(direction[1])
    ix = (m.a * vx + m.b * vy, m.c * vx + m.d * vy)
    if abs(vx) >= abs(vy):
        return ix[0] / vx
    return ix[1] / vy


def _slope(u: float, w: float) -> float:
    return -w / u if u != 0.0 else math.nan


def peripheral_point_pair(meridian: Mat2, longitude: Mat2,
                          prev_direction: tuple | None = None) -> tuple:
    """Both locus points of one commuting hyperbolic peripheral pair.

    Returns (first, second, direction): branch-first is the point at the
    meridian's expanding fixed direction when prev_direction is None, else
    at the direction projectively closest to prev_direction; branch-second
    is its negation (the other fixed direction).  direction is the fixed
    direction chosen for branch-first, for continuity tracking.
    """
    pairs = eigen_data(meridian)
    if len(pairs) != 2:
        raise LocusError("meridian eigendata degenerate: need two distinct "
                         "real fixed directions")
    if prev_direction is None:
        chosen = 0  # eigen_data puts the larger |eigenvalue| first
    else:
        gaps = [_projective_gap(prev_direction, p[1]) for p in pairs]
        chosen = 0 if gaps[0] <= gaps[1] else 1
    lam_m, direction = pairs[chosen]
    other_lam, other_direction = pairs[1 - chosen]
    u1 = math.log(abs(float(lam_m)))
    w1 = math.log(abs(_eigenvalue_at(longitude, direction)))
    u2 = math.log(abs(float(other_lam)))
    w2 = math.log(abs(_eigenvalue_at(longitude, other_direction)))
    first = LocusPoint(u1, w1, "first", _slope(u1, w1))
    second = LocusPoint(u2, w2, "second", _slope(u2, w2))
    return first, second, tuple(float(c) for c in direction)


def locus_points(arc: Arc) -> LocusArc:
    """Extract both locus branches from an arc's glueable samples.

    An arc with no determinant-+1 sample gives the empty LocusArc without
    reading its longitudes' translation numbers.
    """
    if not any(sample.det_sign == 1 for sample in arc.samples):
        return _EMPTY
    longitude_mats = arc.longitude_images()
    try:
        translations = translation_numbers_along_arc(longitude_mats)
    except (ArithmeticError, ValueError) as exc:
        raise LocusError(f"longitude translation numbers failed: {exc}") from exc
    first: list = []
    second: list = []
    indices: list = []
    kept_translations: list = []
    prev_direction = None
    for idx, sample in enumerate(arc.samples):
        if sample.det_sign != 1:
            continue
        t_letter = glue_hnn(sample, arc.family).t_letter
        if abs(t_letter.trace()) <= 2.0 + HYPERBOLIC_MARGIN:
            raise LocusError(
                f"meridian is not hyperbolic at t={sample.t:.6g} "
                f"(|trace| = {abs(t_letter.trace()):.6g})")
        trans = translations[idx]
        if trans.elliptic or abs(trans.value) > TRANSLATION_TOL:
            continue
        try:
            p1, p2, prev_direction = peripheral_point_pair(
                t_letter, longitude_mats[idx], prev_direction)
        except LocusError as exc:
            raise LocusError(f"{exc} (at t={sample.t:.6g})") from None
        first.append(p1)
        second.append(p2)
        indices.append(idx)
        kept_translations.append(trans.value)

    if not first:
        return _EMPTY
    order = sorted(range(len(first)), key=lambda i: (first[i].u, indices[i]))
    first = [first[i] for i in order]
    second = [second[i] for i in order]
    indices = [indices[i] for i in order]
    kept_translations = [kept_translations[i] for i in order]
    tail_start = max(0, len(first) - max(1, len(first) // 5))
    tail = first[tail_start:]
    abs_w = [abs(p.w) for p in first]
    tail_abs_w = [abs(p.w) for p in tail]
    monotone = all(tail_abs_w[i + 1] <= tail_abs_w[i] + 1e-12
                   for i in range(len(tail_abs_w) - 1))
    tail_slopes = sorted(p.slope for p in tail)
    tail_slope = tail_slopes[len(tail_slopes) // 2]
    return LocusArc(
        first=tuple(first),
        second=tuple(second),
        sample_indices=tuple(indices),
        longitude_translations=tuple(kept_translations),
        max_abs_w=max(abs_w),
        tail_max_abs_w=max(tail_abs_w),
        tail_final_abs_w=tail_abs_w[-1],
        tail_min_u=min(p.u for p in tail),
        tail_monotone=monotone,
        tail_slope=tail_slope,
    )


def orderable_interval_of_points(points) -> tuple:
    """Interval of sampled slopes of LocusPoints adjacent to 0."""
    if not points:
        raise LocusError("empty locus arc has no slope interval")
    if all(abs(p.w) <= HORIZONTAL_TOL for p in points):
        raise LocusError("arc is horizontal: every |w| is below 1e-9")
    slopes = [p.slope for p in points if not math.isnan(p.slope)]
    if not slopes:
        raise LocusError("no finite slopes on the arc")
    lo, hi = min(slopes), max(slopes)
    if abs(hi) >= abs(lo) and hi > 0:
        return (0.0, hi)
    return (lo, 0.0)


def orderable_interval(locus_arc: LocusArc) -> tuple:
    """Maximal sampled-slope interval with one endpoint at 0."""
    return orderable_interval_of_points(locus_arc.first)


# ----------------------------------------------------------------------
# artifacts

CSV_HEADER = ("t,x,y,z,tr_meridian,tr_longitude,u1,w1,u2,w2,slope1,"
              "det_conjugator,residual,trans_longitude")


def _fmt(x: float) -> str:
    return "%.17g" % x


def csv_text(arc: Arc, locus_arc: LocusArc) -> str:
    """One row per accepted sample, in sample (t) order; byte-deterministic."""
    lines = [CSV_HEADER]
    by_time = sorted(range(len(locus_arc.sample_indices)),
                     key=lambda pos: locus_arc.sample_indices[pos])
    for pos in by_time:
        idx = locus_arc.sample_indices[pos]
        s = arc.samples[idx]
        p1 = locus_arc.first[pos]
        p2 = locus_arc.second[pos]
        x, y, z = s.character
        lines.append(",".join([
            _fmt(s.t), _fmt(x), _fmt(y), _fmt(z),
            _fmt(s.meridian_trace), _fmt(s.longitude_trace),
            _fmt(p1.u), _fmt(p1.w), _fmt(p2.u), _fmt(p2.w),
            _fmt(p1.slope), "%d" % s.conjugator.det_sign,
            _fmt(s.residual), _fmt(locus_arc.longitude_translations[pos]),
        ]))
    return "\n".join(lines) + "\n"


def emit_csv(arc: Arc, locus_arc: LocusArc, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(arc, locus_arc))


_SVG_W, _SVG_H = 800, 600
_MARGIN = 60.0


def _ticks(lo: float, hi: float, count: int = 5) -> list:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def svg_text(locus_arc: LocusArc) -> str:
    """800x600 static plot: axes with tick labels, one polyline per branch,
    origin marked.  Single-point branches render as a circle marker."""
    points = list(locus_arc.first) + list(locus_arc.second)
    us = [p.u for p in points] + [0.0]
    ws = [p.w for p in points] + [0.0]
    ulo, uhi = min(us), max(us)
    wlo, whi = min(ws), max(ws)
    upad = 0.05 * (uhi - ulo) or 1.0
    wpad = 0.05 * (whi - wlo) or 1.0
    ulo, uhi = ulo - upad, uhi + upad
    wlo, whi = wlo - wpad, whi + wpad

    def sx(u: float) -> float:
        return _MARGIN + (u - ulo) / (uhi - ulo) * (_SVG_W - 2 * _MARGIN)

    def sy(w: float) -> float:
        return _SVG_H - _MARGIN - (w - wlo) / (whi - wlo) * (_SVG_H - 2 * _MARGIN)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (_SVG_W, _SVG_H, _SVG_W, _SVG_H),
        '<rect width="%d" height="%d" fill="white"/>' % (_SVG_W, _SVG_H),
    ]
    axis_y = sy(0.0) if wlo <= 0.0 <= whi else _SVG_H - _MARGIN
    axis_x = sx(0.0) if ulo <= 0.0 <= uhi else _MARGIN
    parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black"/>'
                 % (_MARGIN, axis_y, _SVG_W - _MARGIN, axis_y))
    parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black"/>'
                 % (axis_x, _MARGIN, axis_x, _SVG_H - _MARGIN))
    for u in _ticks(ulo, uhi):
        parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black"/>'
                     % (sx(u), axis_y - 4, sx(u), axis_y + 4))
        parts.append('<text x="%.2f" y="%.2f" font-size="11" text-anchor="middle">'
                     '%.3g</text>' % (sx(u), axis_y + 18, u))
    for w in _ticks(wlo, whi):
        parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black"/>'
                     % (axis_x - 4, sy(w), axis_x + 4, sy(w)))
        parts.append('<text x="%.2f" y="%.2f" font-size="11" text-anchor="end">'
                     '%.3g</text>' % (axis_x - 8, sy(w) + 4, w))
    for branch, color in ((locus_arc.first, "#c23"), (locus_arc.second, "#36c")):
        if len(branch) >= 2:
            coords = " ".join("%.2f,%.2f" % (sx(p.u), sy(p.w)) for p in branch)
            parts.append('<polyline points="%s" fill="none" stroke="%s" '
                         'stroke-width="1.5"/>' % (coords, color))
        elif len(branch) == 1:
            parts.append('<circle cx="%.2f" cy="%.2f" r="3" fill="%s"/>'
                         % (sx(branch[0].u), sy(branch[0].w), color))
    if ulo <= 0.0 <= uhi and wlo <= 0.0 <= whi:
        parts.append('<circle cx="%.2f" cy="%.2f" r="3" fill="none" '
                     'stroke="black"/>' % (sx(0.0), sy(0.0)))
    parts.append('<text x="%.2f" y="%.2f" font-size="12">u = ln lambda_m</text>'
                 % (_SVG_W - _MARGIN - 110, axis_y - 10))
    parts.append('<text x="%.2f" y="%.2f" font-size="12">w = ln lambda_l</text>'
                 % (axis_x + 8, _MARGIN + 4))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(locus_arc: LocusArc, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(svg_text(locus_arc))
