"""Output checks for the three workloads, made apart from the program.

Nothing here imports sl2arc.  Word images are rebuilt from the family's
definitions with the benchmark's own 2x2 products (exact Fractions taken
from the float entries, or plain integers), conjugators and eigendata are
recomputed independently, and the CSV and SVG are read back from disk.
No check compares against a stored copy of an earlier output.

Every workload returns one verdict per operation.  An operation fails when
one of its checks fails; it counts as a known fault only when every failed
check belongs to the fault that the operation is allowed to show.
"""

from __future__ import annotations

import csv
import io
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction

# Faults of the program that fail every time on inputs that do not depend on
# the seed.  Each names the checks it is allowed to fail.
KNOWN_FAULTS = {
    "hidden-residual-n6": (
        "family-sweep n = 6: the curve equations are evaluated from the "
        "expanded trace polynomials, so up to 2.3e-10 of true residual "
        "|tr W1 - tr W2| hides behind a reported residual of at most 1e-10",
        frozenset({"curve_residual"}),
    ),
    "float-twin-absolute-tol": (
        "exact-verify float twin, n >= 13: absolute 1e-9 tolerances on data "
        "of size n^4 fail jacobian_determinant_zero (and from n = 29 "
        "curve_equations_vanish_at_chi)",
        frozenset({"assertion:jacobian_determinant_zero",
                   "assertion:curve_equations_vanish_at_chi"}),
    ),
}

NEWTON_TOL = 1e-10  # the residual bound continuation promises per sample
GLUE_REL_TOL = 1e-8  # relation residual of the stable letter, relative


@dataclass(frozen=True)
class Verdict:
    op: str
    failures: tuple
    fault: str | None = None  # the known fault this operation may show

    @property
    def status(self) -> str:
        """'ok', 'known-fault' or 'wrong'."""
        if not self.failures:
            return "ok"
        if self.fault and set(self.failures) <= KNOWN_FAULTS[self.fault][1]:
            return "known-fault"
        return "wrong"


# ----------------------------------------------------------------------
# the benchmark's own 2x2 algebra on (a, b, c, d) tuples

IDENTITY = (1, 0, 0, 1)


def mul(p, q):
    return (p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3],
            p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3])


def det(m):
    return m[0] * m[3] - m[1] * m[2]


def inverse(m):
    d = det(m)
    if isinstance(d, int) and d == 1:
        return (m[3], -m[1], -m[2], m[0])
    return (m[3] / d, -m[1] / d, -m[2] / d, m[0] / d)


def image(spelling: str, a, b):
    """Image of a word spelled in a, b, A, B (capital = inverse)."""
    table = {"a": a, "b": b, "A": inverse(a), "B": inverse(b)}
    out = IDENTITY
    for ch in spelling:
        out = mul(out, table[ch])
    return out


def trace(m):
    return m[0] + m[3]


def invert_spelling(s: str) -> str:
    return s[::-1].swapcase()


def family_words(n: int) -> dict:
    """The boundary words of the (-3, 3, 2n+1) family, spelled out."""
    m1 = "a" * (n + 1) + "bab"
    m2 = "a" * (n + 1) + "ba"
    l1, l2 = "Bab", "Baba"
    return {"m1": m1, "m2": m2, "l1": l1, "l2": l2,
            "m1l1": m1 + l1, "m2l2": m2 + l2,
            "longitude": m1 + l1 + invert_spelling(m1) + invert_spelling(l1)}


CURVE_PAIRS = (("m1", "m2"), ("l1", "l2"), ("m1l1", "m2l2"))


def curve_images(n: int, a, b) -> dict:
    """Images of the six curve words, sharing prefixes:
    m2 = a^{n+1} b a, m1 = m2 b, l1 = b^-1 a b, l2 = l1 a."""
    m2 = mul(image("a" * (n + 1), a, b), mul(b, a))
    m1 = mul(m2, b)
    l1 = mul(inverse(b), mul(a, b))
    l2 = mul(l1, a)
    return {"m1": m1, "m2": m2, "l1": l1, "l2": l2, "m1l1": mul(m1, l1), "m2l2": mul(m2, l2)}


def frob(m) -> float:
    return math.sqrt(sum(float(x) ** 2 for x in m))


def sub(p, q):
    return tuple(x - y for x, y in zip(p, q))


def random_unimodular(rng: random.Random):
    while True:
        a, b, c = rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)
        if a != 0 and (1 + b * c) % a == 0:
            return (a, b, c, (1 + b * c) // a)


def poly_value(terms: dict, x, y, z):
    """Value of a polynomial given as {(i, j, k): coefficient}."""
    return sum(c * x ** i * y ** j * z ** k for (i, j, k), c in terms.items())


# ----------------------------------------------------------------------
# arc-long


def _close(x: float, y: float, rel: float, absolute: float = 0.0) -> bool:
    return abs(x - y) <= absolute + rel * max(abs(x), abs(y))


def check_arc_long(out: dict) -> list:
    """The CLI `locus` run: CSV rows, SVG document and the report line."""
    failures = []
    if out["exit_code"] != 0:
        failures.append("exit_code")
    rows = list(csv.DictReader(io.StringIO(out["csv"])))
    expected_report = (f"samples={out['steps'] + 1} accepted={out['steps']} "
                       f"termination=maxSteps\n")
    if out["report"] != expected_report:
        failures.append("report")
    if len(rows) != out["steps"]:
        failures.append("row_count")
    h = out["step_size"]
    row_checks = {
        "t_grid": lambda r, k: _close(float(r["t"]), (k + 1) * h, 1e-9),
        # |u1| = acosh(tr T / 2): the meridian eigenvalue from its trace
        "u_from_meridian_trace": lambda r, k: _close(
            abs(float(r["u1"])), math.acosh(float(r["tr_meridian"]) / 2), 1e-12),
        # |w1| = acosh(|tr L| / 2); acosh amplifies the rounding of tr L
        # near 2 by 1 / sinh|w|, so the bound is scaled by it
        "w_from_longitude_trace": lambda r, k: _close(
            abs(float(r["w1"])), math.acosh(abs(float(r["tr_longitude"])) / 2),
            1e-10, 1e-14 / max(math.sinh(abs(float(r["w1"]))), 1e-300)),
        "second_branch_negated": lambda r, k: (
            _close(float(r["u2"]), -float(r["u1"]), 1e-11)
            and _close(float(r["w2"]), -float(r["w1"]), 1e-10, 1e-15)),
        "slope": lambda r, k: _close(float(r["slope1"]),
                                     -float(r["w1"]) / float(r["u1"]), 1e-12),
        "det_conjugator": lambda r, k: r["det_conjugator"] == "1",
        "residual": lambda r, k: float(r["residual"]) <= NEWTON_TOL,
        "trans_longitude": lambda r, k: float(r["trans_longitude"]) == 0.0,
    }
    for name, ok in row_checks.items():
        if not all(ok(r, k) for k, r in enumerate(rows)):
            failures.append(name)
    try:
        root = ET.fromstring(out["svg"])
        if root.tag != "{http://www.w3.org/2000/svg}svg":
            failures.append("svg_root")
    except ET.ParseError:
        failures.append("svg_xml")
    return [Verdict("locus n=1", tuple(failures))]


# ----------------------------------------------------------------------
# family-sweep


def _conjugator(pairs):
    """Joint solution G of G A = B G over the pairs (least-squares kernel)."""
    rows = []
    for a, b in pairs:
        aa = ((a[0], a[1]), (a[2], a[3]))
        bb = ((b[0], b[1]), (b[2], b[3]))
        for i in range(2):
            for j in range(2):
                row = [0.0] * 4
                for k in range(2):
                    row[2 * i + k] += aa[k][j]
                    row[2 * k + j] -= bb[i][k]
                rows.append(row)
    import numpy as np  # not at the top: run.py imports this module too

    _, sig, vt = np.linalg.svd(np.array(rows, dtype=float))
    return tuple(float(x) for x in vt[3]), sig


def _expanding(t):
    """Expanding eigenvalue of a hyperbolic matrix and a unit eigenvector."""
    tr = trace(t)
    lam = (tr + math.copysign(math.sqrt(tr * tr - 4.0), tr)) / 2
    r1, r2 = (t[0] - lam, t[1]), (t[2], t[3] - lam)
    v = (-r1[1], r1[0]) if math.hypot(*r1) >= math.hypot(*r2) else (-r2[1], r2[0])
    norm = math.hypot(*v)
    return lam, (v[0] / norm, v[1] / norm)


def _locus_point(m1, m2, l1, l2):
    """(u, w) at the meridian's expanding direction, from our own eigendata."""
    g, _ = _conjugator(((m1, m2), (l1, l2)))
    scale = 1.0 / math.sqrt(det(g))
    t = tuple(scale * x for x in g)
    lam_m, v = _expanding(t)
    longitude = mul(mul(m1, l1), mul(inverse(m1), inverse(l1)))
    lv = (longitude[0] * v[0] + longitude[1] * v[1], longitude[2] * v[0] + longitude[3] * v[1])
    lam_l = lv[0] * v[0] + lv[1] * v[1]
    return math.log(abs(lam_m)), math.log(abs(lam_l))


def check_family_case(case: dict) -> Verdict:
    """One (n, direction) arc with its gluing, locus and interval."""
    n, direction, h = case["n"], case["direction"], case["step_size"]
    op = f"n={n} dir={direction:+d}"
    fault = "hidden-residual-n6" if n == 6 else None
    if case["error"] is not None:
        return Verdict(op, ("raised",), fault)
    failures = set()
    samples = case["samples"]
    if case["termination"] != "maxSteps" or len(samples) != case["steps"] + 1:
        failures.add("termination")
    float_images = []
    for k, s in enumerate(samples):
        q = s["q"]
        a, b = tuple(q[:4]), tuple(q[4:])
        fa, fb = tuple(map(Fraction, a)), tuple(map(Fraction, b))
        if abs(det(fa) - 1) > NEWTON_TOL or abs(det(fb) - 1) > NEWTON_TOL:
            failures.add("unit_determinant")
        exact = curve_images(n, fa, fb)
        if any(abs(trace(exact[p]) - trace(exact[r])) > NEWTON_TOL for p, r in CURVE_PAIRS):
            failures.add("curve_residual")
        if s["residual"] > NEWTON_TOL:
            failures.add("reported_residual")
        if k:
            prev = samples[k - 1]
            step = math.sqrt(sum((x - y) ** 2 for x, y in zip(q, prev["q"])))
            if step < h - NEWTON_TOL or not _close(s["t"], k * h, 1e-9):
                failures.add("step_length")
        float_images.append({w: tuple(float(x) for x in exact[w]) for w in ("m1", "m2", "l1", "l2")})

    # determinant class: every sample off the base point lies on the side
    # the direction asks for, by our own conjugator
    for k, (s, im) in enumerate(zip(samples, float_images)):
        if k == 0:
            continue
        g, sig = _conjugator(((im["m1"], im["m2"]), (im["l1"], im["l2"])))
        own_sign = 1 if det(g) > 0 else -1
        one_dimensional = sig[3] <= 1e-8 * sig[0] and sig[2] >= 1e-3 * sig[0]
        if not one_dimensional or own_sign != direction or s["det_sign"] != own_sign:
            failures.add("det_class")

    plus = [k for k in range(1, len(samples)) if direction == 1]
    if sorted(case["glued"]) != plus:
        failures.add("glue_coverage")
    for k, glued in case["glued"].items():
        im = float_images[k]
        t = glued.get("T")
        if t is None:
            failures.add("glue_raised")
            continue
        if abs(det(t) - 1.0) > 1e-12:
            failures.add("glue_det")
        for p, r in (("m1", "m2"), ("l1", "l2")):
            scale = frob(t) * max(frob(im[p]), frob(im[r]))
            if frob(sub(mul(t, im[p]), mul(im[r], t))) > GLUE_REL_TOL * max(1.0, scale):
                failures.add("glue_relation")

    locus = case["locus"]
    if direction == 1:
        if sorted(locus["indices"]) != plus:
            failures.add("locus_coverage")
        slopes = []
        for k in plus:
            u, w = _locus_point(*(float_images[k][x] for x in ("m1", "m2", "l1", "l2")))
            slopes.append(-w / u)
        lo, hi = min(slopes), max(slopes)
        expected = (0.0, hi) if abs(hi) >= abs(lo) and hi > 0 else (lo, 0.0)
        got = case["interval"]
        if not isinstance(got, list) or not all(_close(g, e, 1e-8) for g, e in zip(got, expected)):
            failures.add("interval")
    else:
        # no real stable letter on this side: nothing enters the locus
        if locus["indices"] or not isinstance(case["interval"], dict):
            failures.add("empty_locus")
    return Verdict(op, tuple(sorted(failures)), fault)


def check_family_sweep(out: dict) -> list:
    return [check_family_case(case) for case in out["cases"]]


# ----------------------------------------------------------------------
# exact-verify

FLOAT_FAULT_FROM_N = 13


def check_exact_report(n: int, rep: dict, curves: list, rng: random.Random) -> Verdict:
    failures = [f"assertion:{name}" for name, holds, _ in rep["assertions"] if not holds]
    words = family_words(n)
    a, b = (-1, 1, 0, -1), (2 * n + 1, n, 2, 1)
    for name, got in rep["images"].items():
        if tuple(got) != image(words[name], a, b):
            failures.append(f"image_{name}")
    witness = {name: text for name, _, text in rep["assertions"]}
    chi = (trace(a), trace(b), trace(mul(a, b)))
    if chi != (-2, 2 * n + 2, -2 * n) or witness.get("character_equals_chi") != f"character {chi}":
        failures.append("character")
    if (image(words["longitude"], a, b) != IDENTITY
            or witness.get("longitude_image_identity") != "image [[1, 0], [0, 1]]"):
        failures.append("longitude_identity")
    jac, kern = rep["jacobian"], rep["kernel"]
    if any(sum(x * k for x, k in zip(row, kern)) != 0 for row in jac) or not any(kern):
        failures.append("kernel")
    d3 = (jac[0][0] * (jac[1][1] * jac[2][2] - jac[1][2] * jac[2][1])
          - jac[0][1] * (jac[1][0] * jac[2][2] - jac[1][2] * jac[2][0])
          + jac[0][2] * (jac[1][0] * jac[2][1] - jac[1][1] * jac[2][0]))
    minor = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    if d3 != 0 or minor == 0 or rep["minor"] != minor:
        failures.append("rank_two")
    # each curve polynomial is tr W1 - tr W2 as an identity on SL(2, Z)
    for _ in range(2):
        ma, mb = random_unimodular(rng), random_unimodular(rng)
        x, y, z = trace(ma), trace(mb), trace(mul(ma, mb))
        for terms, (p, r) in zip(curves, CURVE_PAIRS):
            if poly_value(terms, x, y, z) != trace(image(words[p], ma, mb)) - trace(image(words[r], ma, mb)):
                failures.append(f"curve_{p}_{r}")
    return Verdict(f"exact n={n}", tuple(dict.fromkeys(failures)))


def check_float_report(n: int, rep: dict) -> Verdict:
    failures = tuple(f"assertion:{name}" for name, holds, _ in rep["assertions"] if not holds)
    fault = "float-twin-absolute-tol" if n >= FLOAT_FAULT_FROM_N else None
    return Verdict(f"float n={n}", failures, fault)


def check_oracle(item: dict) -> Verdict:
    ok = item["value"] == trace(image(item["word"], item["a"], item["b"]))
    return Verdict(f"trace {item['word']}", () if ok else ("trace_value",))


def check_exact_verify(out: dict, seed: int) -> list:
    rng = random.Random(f"exact-verify checks {seed}")
    verdicts = []
    for n, rep in out["exact"].items():
        verdicts.append(check_exact_report(n, rep, out["curves"][n], rng))
    for n, rep in out["float"].items():
        verdicts.append(check_float_report(n, rep))
    verdicts.extend(check_oracle(item) for item in out["oracle"])
    return verdicts


def check(workload: str, out: dict, seed: int) -> list:
    if workload == "arc-long":
        return check_arc_long(out)
    if workload == "family-sweep":
        return check_family_sweep(out)
    return check_exact_verify(out, seed)
