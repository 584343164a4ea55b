"""The three workloads: inputs from the seed, the timed operations, and the
plain-data outputs the checks read.

Every workload object goes through setup() (imports and the first
make_family, which compiles that family's trace polynomials), segments() (the
timed operations, as a list of (phase, callable) run in order; they call the
package only through module attributes so that the tracer's rebinding
applies), and outputs() (untimed conversion of the program's results into
plain data).  counts() gives the work done, from which rates and per-layer
ratios are formed.  Segments are short so that the worker can measure the
machine's speed between them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import random

# arc-long: one determinant-+1 arc at n = 1 with the default step size; the
# seed picks its length from a 3% band, so runs differ in input but not in
# how much work they measure.
ARC_LONG_STEPS = (1600, 1648)

# family-sweep: n = 7 and above are left out because continue_arc fails
# there (the expanded curve polynomials lose the 1e-10 Newton tolerance).
SWEEP_N = range(1, 7)
SWEEP_STEPS = 60
SWEEP_STEP_SIZE = 1e-3

# exact-verify: the acceptance range 1..50 and three larger indices.
VERIFY_N = tuple(range(1, 51)) + (60, 80, 100)
ORACLE_LENGTHS = (4, 8, 12, 16, 20, 24)
ORACLE_PER_LENGTH = 40


def _import_package():
    import sl2arc
    import sl2arc.arc
    import sl2arc.cli
    import sl2arc.locus
    import sl2arc.pretzel
    import sl2arc.tracepoly
    import sl2arc.words

    return sl2arc


def _curve_terms(fam) -> int:
    return sum(len(eq.terms) for eq in fam.curve_eqs)


class ArcLong:
    """`sl2arc locus --n 1` in-process, writing CSV and SVG to a work dir."""

    name = "arc-long"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"arc-long {seed}")
        self.steps = rng.randrange(*ARC_LONG_STEPS)
        self.step_size = 1e-3  # the CLI default, passed explicitly for the checks
        self.csv_path = os.path.join(workdir, "locus.csv")
        self.svg_path = os.path.join(workdir, "locus.svg")

    def setup(self):
        self.pkg = _import_package()
        self.pkg.pretzel.make_family(1)

    def segments(self) -> list:
        return [("locus_command", self._locus_command)]

    def _locus_command(self):
        argv = ["locus", "--n", "1", "--steps", str(self.steps),
                "--step-size", repr(self.step_size),
                "--out", self.csv_path, "--svg", self.svg_path]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.exit_code = self.pkg.cli.main(argv)
        self.report = buf.getvalue()

    def outputs(self) -> dict:
        with open(self.csv_path, newline="") as fh:
            csv_text = fh.read()
        with open(self.svg_path) as fh:
            svg_text = fh.read()
        return {"steps": self.steps, "step_size": self.step_size,
                "exit_code": self.exit_code, "report": self.report,
                "csv": csv_text, "svg": svg_text}

    def digest_texts(self, out: dict) -> dict:
        return {"csv": out["csv"], "svg": out["svg"], "report": out["report"]}

    def counts(self, out: dict) -> dict:
        rows = out["csv"].count("\n") - 1
        return {"steps": self.steps, "samples_in": self.steps + 1, "points_out": rows,
                "csv_bytes": len(out["csv"].encode()), "svg_bytes": len(out["svg"].encode()),
                "curve_terms": _curve_terms(self.pkg.pretzel.make_family(1))}


class FamilySweep:
    """n = 1..6, both directions: family, curve analysis, a short arc,
    gluing of every determinant-+1 sample, locus and interval."""

    name = "family-sweep"

    def __init__(self, seed: int, workdir: str):
        # The inputs are fixed so that the n = 6 fault shows on every run;
        # the seed orders the twelve cases, which changes which trace
        # polynomials are already in the process-wide memo when each starts.
        self.cases = [(n, d) for n in SWEEP_N for d in (1, -1)]
        random.Random(f"family-sweep {seed}").shuffle(self.cases)
        self.steps = SWEEP_STEPS
        self.results = []

    def setup(self):
        self.pkg = _import_package()
        self.pkg.pretzel.make_family(self.cases[0][0])

    def segments(self) -> list:
        return [("case", functools.partial(self._case, n, d)) for n, d in self.cases]

    def _case(self, n: int, direction: int):
        pretzel, arc, locus = self.pkg.pretzel, self.pkg.arc, self.pkg.locus
        res = {"n": n, "direction": direction, "error": None}
        self.results.append(res)
        try:
            fam = pretzel.make_family(n)
            arc.analyze_curve(fam)
            res["arc"] = a = arc.continue_arc(fam, step_size=SWEEP_STEP_SIZE,
                                              max_steps=self.steps, direction=direction)
        except (arc.ContinuationError, ValueError) as exc:
            res["error"] = f"{type(exc).__name__}: {exc}"
            return
        res["glued"] = glued = {}
        for k, sample in enumerate(a.samples):
            if sample.det_sign != 1:
                continue
            try:
                glued[k] = arc.glue_hnn(sample, fam)
            except arc.GluingError as exc:
                glued[k] = exc
        res["locus"] = la = locus.locus_points(a)
        try:
            res["interval"] = locus.orderable_interval(la)
        except locus.LocusError as exc:
            res["interval"] = exc

    def outputs(self) -> dict:
        cases = []
        for res in sorted(self.results, key=lambda r: (r["n"], -r["direction"])):
            case = {"n": res["n"], "direction": res["direction"], "error": res["error"],
                    "step_size": SWEEP_STEP_SIZE, "steps": self.steps}
            cases.append(case)
            if res["error"] is not None:
                continue
            a = res["arc"]
            case["termination"] = a.termination_reason
            case["samples"] = [
                {"t": s.t, "q": [float(x) for x in s.ma.entries() + s.mb.entries()],
                 "residual": s.residual, "det_sign": s.det_sign}
                for s in a.samples]
            case["glued"] = {
                k: ({"T": tuple(float(x) for x in g.t_letter.entries())}
                    if not isinstance(g, Exception) else {"error": str(g)})
                for k, g in res["glued"].items()}
            la = res["locus"]
            case["locus"] = {"indices": list(la.sample_indices),
                             "u": [p.u for p in la.first], "w": [p.w for p in la.first]}
            iv = res["interval"]
            case["interval"] = list(iv) if not isinstance(iv, Exception) else {"error": str(iv)}
        return {"cases": cases}

    def digest_texts(self, out: dict) -> dict:
        lines = []
        for case in out["cases"]:
            lines.append(f"n={case['n']} direction={case['direction']} error={case['error']}")
            if case["error"] is not None:
                continue
            lines.append(f"termination={case['termination']} interval={case['interval']}")
            for s in case["samples"]:
                lines.append(" ".join("%.17g" % x for x in [s["t"], *s["q"], s["residual"]]))
            for k, g in sorted(case["glued"].items()):
                lines.append(f"glued {k} " + " ".join("%.17g" % x for x in g.get("T", ())))
            lines.append(" ".join("%.17g" % x for x in case["locus"]["u"] + case["locus"]["w"]))
        return {"report": "\n".join(lines) + "\n"}

    def counts(self, out: dict) -> dict:
        ok = [c for c in out["cases"] if c["error"] is None]
        fams = {n: self.pkg.pretzel.make_family(n) for n, _ in self.cases}
        return {"steps": sum(len(c["samples"]) - 1 for c in ok),
                "samples_in": sum(len(c["samples"]) for c in ok),
                "points_out": sum(len(c["locus"]["indices"]) for c in ok),
                "glue_samples": sum(len(c["glued"]) for c in ok),
                "curve_terms": sum(_curve_terms(f) for f in fams.values())}


def _random_spelling(rng: random.Random, length: int) -> str:
    """A freely reduced spelling of exactly `length` letters."""
    out = []
    while len(out) < length:
        ch = rng.choice("abAB")
        if not out or out[-1] != ch.swapcase():
            out.append(ch)
    return "".join(out)


class ExactVerify:
    """verify_lemma exact and float over VERIFY_N, then a trace oracle."""

    name = "exact-verify"

    def __init__(self, seed: int, workdir: str):
        from checks import random_unimodular

        rng = random.Random(f"exact-verify oracle {seed}")
        self.oracle = [(_random_spelling(rng, length), random_unimodular(rng), random_unimodular(rng))
                       for length in ORACLE_LENGTHS for _ in range(ORACLE_PER_LENGTH)]
        self.ns = VERIFY_N
        self.exact, self.float, self.parsed, self.values = {}, {}, [], []

    def setup(self):
        self.pkg = _import_package()
        self.pkg.pretzel.make_family(self.ns[0])

    def segments(self) -> list:
        # about a tenth of a second to half a second each: ten small
        # indices at a time, the larger ones alone, forty oracle words
        small = [n for n in self.ns if n <= 50]
        groups = [small[i:i + 10] for i in range(0, len(small), 10)]
        groups += [[n] for n in self.ns if n > 50]
        return ([("verify_exact_s", functools.partial(self._verify, g, True)) for g in groups]
                + [("verify_float_s", functools.partial(self._verify, g, False)) for g in groups]
                + [("oracle_parse_s", self._parse)]
                + [("oracle_s", functools.partial(self._oracle, i, i + ORACLE_PER_LENGTH))
                   for i in range(0, len(self.oracle), ORACLE_PER_LENGTH)])

    def _verify(self, ns, exact: bool):
        reports = self.exact if exact else self.float
        for n in ns:
            reports[n] = self.pkg.pretzel.verify_lemma(n, exact=exact)

    def _parse(self):
        self.parsed = [(self.pkg.words.parse_word(s), a, b) for s, a, b in self.oracle]

    def _oracle(self, lo: int, hi: int):
        for word, a, b in self.parsed[lo:hi]:
            x, y, z = a[0] + a[3], b[0] + b[3], a[0] * b[0] + a[1] * b[2] + a[2] * b[1] + a[3] * b[3]
            poly = self.pkg.tracepoly.trace_polynomial(word)
            self.values.append((poly, poly.evaluate(x, y, z)))

    @staticmethod
    def _assertions(rep) -> list:
        return [(a.name, a.holds, a.witness) for a in rep.assertions]

    def outputs(self) -> dict:
        exact = {n: {"assertions": self._assertions(rep),
                     "images": {k: got.entries() for k, (got, _) in rep.images.items()},
                     "jacobian": rep.jacobian, "kernel": rep.kernel, "minor": rep.minor,
                     "text": rep.text()}
                 for n, rep in self.exact.items()}
        floats = {n: {"assertions": self._assertions(rep), "text": rep.text()}
                  for n, rep in self.float.items()}
        curves = {n: [dict(eq.terms) for eq in self.pkg.pretzel.make_family(n).curve_eqs]
                  for n in self.ns}
        oracle = [{"word": s, "a": a, "b": b, "value": value, "poly": str(poly)}
                  for (s, a, b), (poly, value) in zip(self.oracle, self.values)]
        return {"exact": exact, "float": floats, "curves": curves, "oracle": oracle}

    def digest_texts(self, out: dict) -> dict:
        parts = [rep["text"] for rep in out["exact"].values()]
        parts += [rep["text"] for rep in out["float"].values()]
        parts += [f"{item['word']} {item['poly']} {item['value']}" for item in out["oracle"]]
        return {"report": "\n".join(parts) + "\n"}

    def counts(self, out: dict) -> dict:
        return {"verify_n": len(out["exact"]), "words": len(out["oracle"]),
                "assertions": sum(len(r["assertions"]) for r in out["exact"].values())
                + sum(len(r["assertions"]) for r in out["float"].values()),
                "curve_terms": sum(len(t) for c in out["curves"].values() for t in c)}


WORKLOADS = {w.name: w for w in (ArcLong, FamilySweep, ExactVerify)}
