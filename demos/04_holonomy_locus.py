"""The holonomy-extension locus of an arc and its orderable-slope interval.

Each glueable sample carries a commuting hyperbolic pair (meridian T,
longitude L); taking logarithms of the eigenvalue moduli at a shared
fixed direction gives a locus point

    (u, w) = (ln |lambda_T|, ln |lambda_L|),

one point per branch (the second branch is the negation of the first).
Approaching the limiting character the meridian eigenvalue blows up while
the longitude eigenvalue tends to 1, so the locus flattens onto the u-axis:
the tail satisfies |w| -> 0 as u -> infinity.  The interval of sampled
slopes adjacent to 0 is the certificate used for order-detection.

Artifacts (CSV + SVG) are written next to this script under out/.
"""

import os

from sl2arc import (
    continue_arc,
    emit_csv,
    emit_svg,
    locus_points,
    make_family,
    orderable_interval,
)

fam = make_family(1)
arc = continue_arc(fam, step_size=5e-4, max_steps=2000, direction=1)
locus = locus_points(arc)

print("== locus summary (n = 1, step 5e-4, 2000 steps) ==")
print(f"  accepted points      : {len(locus.first)} (of {len(arc.samples)} samples)")
print(f"  u range              : [{locus.first[0].u:.4f}, {locus.first[-1].u:.4f}]")
print(f"  max |w|              : {locus.max_abs_w:.6f}")
print(f"  tail final |w|       : {locus.tail_final_abs_w:.6f}")
print(f"  tail monotone        : {locus.tail_monotone}")
print(f"  tail median slope    : {locus.tail_slope:.6f}")
print()

print("== asymptote check: the tail flattens onto the u-axis ==")
ratio = locus.tail_final_abs_w / locus.max_abs_w
print(f"  tail final |w| / max |w| = {ratio:.4f}  (< 0.1 expected)")
print(f"  deepest tail point   : u = {locus.first[-1].u:.4f} (> 5 expected)")
print()

print("== branch symmetry ==")
worst = max(max(abs(p1.u + p2.u), abs(p1.w + p2.w))
            for p1, p2 in zip(locus.first, locus.second))
print(f"  max |first + second| = {worst:.2e}  (branches are negatives)")
print()

print("== longitude translation numbers ==")
glueable = sum(s.det_sign == 1 for s in arc.samples)
print(f"  read at the meridian's expanding direction on {glueable} glueable samples")
print(f"  {len(locus.first)} read 0 and are kept (the CSV's trans_longitude column is 0)")
print()

lo, hi = orderable_interval(locus)
print(f"== orderable-slope interval adjacent to 0: ({lo:.6g}, {hi:.6g}) ==")
print()

out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
os.makedirs(out_dir, exist_ok=True)
csv_path = os.path.join(out_dir, "locus_n1.csv")
svg_path = os.path.join(out_dir, "locus_n1.svg")
emit_csv(arc, locus, csv_path)
emit_svg(locus, svg_path)
print(f"wrote {csv_path}")
print(f"wrote {svg_path}")
