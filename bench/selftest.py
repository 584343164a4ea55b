"""Show that each workload's checks catch a corrupted output.

    python3 bench/selftest.py

Runs a small instance of every workload in this process, checks that its
real outputs pass (or fail only through a known fault), then corrupts one
output at a time and requires the checks to report a wrong operation.  It
also requires BENCHMARK.json to list exactly the metrics run.py prints.
Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import ArcLong, ExactVerify, FamilySweep  # noqa: E402


def _csv_edit(column: str, row: int, edit):
    """Corruption that rewrites one CSV cell."""
    def corrupt(out):
        lines = out["csv"].split("\n")
        header = lines[0].split(",")
        cells = lines[row + 1].split(",")
        i = header.index(column)
        cells[i] = edit(cells[i])
        lines[row + 1] = ",".join(cells)
        out["csv"] = "\n".join(lines)
    return corrupt


def _setter(path, value):
    """Corruption that replaces out[path[0]][path[1]]... with value(old)."""
    def corrupt(out):
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]])
    return corrupt


def _nudge(x: float, rel: float) -> float:
    return x * (1 + rel) if x else rel


ARC_LONG = {
    "u1 off acosh(tr/2)": _csv_edit("u1", 7, lambda c: repr(_nudge(float(c), 1e-9))),
    "w2 not -w1": _csv_edit("w2", 3, lambda c: repr(_nudge(float(c), 1e-6))),
    "slope sign": _csv_edit("slope1", 0, lambda c: repr(-float(c))),
    "residual over bound": _csv_edit("residual", 5, lambda c: "2e-10"),
    "conjugator class": _csv_edit("det_conjugator", 2, lambda c: "-1"),
    "translation number": _csv_edit("trans_longitude", 9, lambda c: "1"),
    "row dropped": lambda out: out.update(csv=out["csv"].replace(out["csv"].split("\n")[4] + "\n", "")),
    "svg truncated": lambda out: out.update(svg=out["svg"][:-8]),
    "report": lambda out: out.update(report=out["report"].replace("maxSteps", "newtonFailure")),
}


def _case(out, n, direction):
    return next(c for c in out["cases"] if c["n"] == n and c["direction"] == direction)


def _family(n, direction, edit):
    def corrupt(out):
        edit(_case(out, n, direction))
    return corrupt


def _q(k, i, rel):
    def edit(case):
        case["samples"][k]["q"][i] = _nudge(case["samples"][k]["q"][i], rel)
    return edit


def _glued_t(k, i):
    def edit(case):
        t = list(case["glued"][k]["T"])
        t[i] = _nudge(t[i], 1e-6)
        case["glued"][k]["T"] = tuple(t)
    return edit


FAMILY_SWEEP = {
    "entry off the curve": _family(1, 1, _q(11, 5, 1e-8)),
    "step too short": _family(1, -1, lambda c: c["samples"][21].update(q=list(c["samples"][20]["q"]))),
    "det class flipped": _family(1, 1, lambda c: c["samples"][4].update(det_sign=-1)),
    "stable letter perturbed": _family(1, 1, _glued_t(8, 1)),
    "stable letter transposed": _family(1, 1, lambda c: c["glued"][6].update(
        T=tuple(c["glued"][6]["T"][i] for i in (0, 2, 1, 3)))),
    "sample not glued": _family(1, 1, lambda c: c["glued"].pop(3)),
    "interval endpoint": _family(1, 1, lambda c: c.update(
        interval=[_nudge(x, 1e-6) for x in c["interval"]])),
    "locus on -1 side": _family(1, -1, lambda c: c["locus"]["indices"].append(1)),
    "other fault at n=6": _family(6, 1, lambda c: c["samples"][2].update(det_sign=0)),
}


def _exact_report(n, edit):
    def corrupt(out):
        edit(out["exact"][n])
    return corrupt


EXACT_VERIFY = {
    "image entry": _exact_report(2, lambda r: r["images"].update(
        m1=tuple(x + (i == 0) for i, x in enumerate(r["images"]["m1"])))),
    "kernel": _exact_report(3, lambda r: r.update(kernel=(r["kernel"][0] + 1,) + tuple(r["kernel"][1:]))),
    "jacobian minor": _exact_report(4, lambda r: r.update(minor=r["minor"] + 1)),
    "assertion flipped": _exact_report(5, lambda r: r["assertions"].__setitem__(
        0, (r["assertions"][0][0], False, r["assertions"][0][2]))),
    "float twin below n=13": _setter(("float", 3, "assertions"), lambda a: [
        (name, name != "jacobian_determinant_zero" and holds, w) for name, holds, w in a]),
    "curve polynomial": _setter(("curves", 2), lambda polys: [
        {**polys[0], (0, 0, 0): polys[0].get((0, 0, 0), 0) + 1}] + polys[1:]),
    "oracle value": lambda out: out["oracle"][7].update(value=out["oracle"][7]["value"] + 1),
}


def _run(workload):
    workload.setup()
    for _, segment in workload.segments():
        segment()
    return workload.outputs()


def _statuses(workload, out, seed=0):
    return [v.status for v in checks.check(workload, out, seed)]


def _exercise(name, out, corruptions, failures):
    base = _statuses(name, out)
    if "wrong" in base:
        failures.append(f"{name}: the uncorrupted output fails its checks")
    for label, corrupt in corruptions.items():
        bad = copy.deepcopy(out)
        corrupt(bad)
        if "wrong" not in _statuses(name, bad):
            failures.append(f"{name}: corruption '{label}' was not caught")
    return base


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        arc_long = ArcLong(0, workdir)
        arc_long.steps = 40
        _exercise("arc-long", _run(arc_long), ARC_LONG, failures)

    sweep = FamilySweep(0, "")
    sweep.cases = [(1, 1), (1, -1), (6, 1)]
    sweep.steps = 30
    base = _exercise("family-sweep", _run(sweep), FAMILY_SWEEP, failures)
    if base != ["ok", "ok", "known-fault"]:
        failures.append(f"family-sweep: expected n = 6 to show its known fault, got {base}")

    verify = ExactVerify(0, "")
    verify.ns = (1, 2, 3, 4, 5, 13)
    verify.oracle = verify.oracle[::20]
    base = _exercise("exact-verify", _run(verify), EXACT_VERIFY, failures)
    if base.count("known-fault") != 1:
        failures.append("exact-verify: expected the float twin at n = 13 to show its known fault")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: unit for name, (unit, _) in table.items()}
        if listed != printed:
            failures.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(listed.items()) ^ set(printed.items()))}")

    for line in failures:
        print("FAIL", line)
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
