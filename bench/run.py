"""Benchmark of the sl2arc pipeline.

    python3 bench/run.py --workload arc-long|family-sweep|exact-verify
                         --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
A run repeats whole rounds of the workload until S seconds have passed.
Every round is a fresh interpreter (bench/worker.py) with the BLAS thread
count capped at 1, so each starts with an empty trace-polynomial memo.

--trace 0 rounds are untraced and give the end-to-end metrics.  --trace 1
alternates untraced and traced rounds: the traced ones give the per-layer
metrics, the untraced ones the rates, and the two together the tracing
overhead.  Every round's outputs are checked (bench/checks.py), and all
rounds of a run must produce byte-identical CSV, SVG and report text.

Before the result, one JSON line records the environment, the output
digests and the known faults that failed; the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("arc-long", "family-sweep", "exact-verify")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

sys.path.insert(0, HERE)
from checks import KNOWN_FAULTS  # noqa: E402


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# metrics: name -> (unit, function of the rounds)


def _untraced(key):
    return lambda coarse, full: _median([r[key] for r in coarse])


END_TO_END = {
    "setup_s": ("s", _untraced("setup_s")),
    "workload_s": ("s", _untraced("workload_s")),
    "peak_rss_mib": ("MiB", _untraced("peak_rss_mib")),
}


def _stat(r, name, field):
    return r["trace"].get(name, [0, 0.0, 0.0])[field]


def _calls(name):
    return lambda coarse, full: _median([_stat(r, name, 0) for r in full])


def _self_s(name):
    return lambda coarse, full: _median([_stat(r, name, 2) for r in full])


def _count(key):
    return lambda coarse, full: _median([r["counts"].get(key, 0) for r in full])


def _rate(count_key, seconds):
    """Work per second of untraced time; seconds(round) gives the time."""
    return lambda coarse, full: _median(
        [_ratio(r["counts"].get(count_key, 0), seconds(r)) for r in coarse])


def _inclusive(name):
    return lambda r: _stat(r, name, 1)


def _phase(key):
    return lambda r: r["phases"].get(key, 0.0)


def _per(num, den):
    return lambda coarse, full: _median([_ratio(num(r), den(r)) for r in full])


def _overhead(coarse, full):
    return _ratio(_median([r["workload_s"] for r in full]),
                  _median([r["workload_s"] for r in coarse])) - 1.0


PER_LAYER = {
    "arc_steps_per_s": ("steps/s", _rate("steps", _inclusive("arc.continue_arc"))),
    "locus_samples_per_s": ("samples/s", _rate("samples_in", _inclusive("locus.locus_points"))),
    "glue_samples_per_s": ("samples/s", _rate("glue_samples", _inclusive("arc.glue_hnn"))),
    "verify_n_per_s": ("indices/s", _rate("verify_n", _phase("verify_exact_s"))),
    "trace_words_per_s": ("words/s", _rate("words", _phase("oracle_s"))),
    "trace.overhead": ("ratio", _overhead),
    "words.evaluate.calls": ("count", _calls("words.evaluate")),
    "words.evaluate.self_s": ("s", _self_s("words.evaluate")),
    "tracepoly.trace_polynomial.calls": ("count", _calls("tracepoly.trace_polynomial")),
    "tracepoly.trace_polynomial.self_s": ("s", _self_s("tracepoly.trace_polynomial")),
    "tracepoly.curve_terms": ("count", _count("curve_terms")),
    "tracepoly.evaluate_float.calls": ("count", _calls("tracepoly.evaluate_float")),
    "tracepoly.evaluate_float.self_s": ("s", _self_s("tracepoly.evaluate_float")),
    "tracepoly.evaluate_exact.calls": ("count", _calls("tracepoly.evaluate_exact")),
    "tracepoly.evaluate_exact.self_s": ("s", _self_s("tracepoly.evaluate_exact")),
    "sl2.solve_conjugator.calls": ("count", _calls("sl2.solve_conjugator")),
    "sl2.solve_conjugator.self_s": ("s", _self_s("sl2.solve_conjugator")),
    "sl2.translation_numbers_along_arc.self_s": ("s", _self_s("sl2.translation_numbers_along_arc")),
    "sl2.eigen_data.calls": ("count", _calls("sl2.eigen_data")),
    "sl2.eigen_data.self_s": ("s", _self_s("sl2.eigen_data")),
    "sl2.exact_rref.calls": ("count", _calls("sl2.exact_rref")),
    "sl2.exact_rref.self_s": ("s", _self_s("sl2.exact_rref")),
    "arc.lstsq.calls": ("count", _calls("arc.lstsq")),
    "arc.lstsq.self_s": ("s", _self_s("arc.lstsq")),
    "arc.svd.calls": ("count", _calls("arc.svd")),
    "arc.svd.self_s": ("s", _self_s("arc.svd")),
    "arc.newton_iters_per_step": ("iters/step", _per(lambda r: _stat(r, "arc.lstsq", 0),
                                                     lambda r: r["counts"].get("steps", 0))),
    "arc.steps": ("steps", _count("steps")),
    "arc.ms_per_step": ("ms", lambda coarse, full: 1000.0 * _median(
        [_ratio(_stat(r, "arc.continue_arc", 1), r["counts"].get("steps", 0)) for r in coarse])),
    "arc.continue_arc.self_s": ("s", _self_s("arc.continue_arc")),
    "arc.longitude_images.self_s": ("s", _self_s("arc.longitude_images")),
    "arc.analyze_curve.self_s": ("s", _self_s("arc.analyze_curve")),
    "arc.glue_hnn.calls": ("count", _calls("arc.glue_hnn")),
    "arc.glue_hnn.self_s": ("s", _self_s("arc.glue_hnn")),
    "pretzel.make_family.self_s": ("s", _self_s("pretzel.make_family")),
    "pretzel.verify_lemma.self_s": ("s", _self_s("pretzel.verify_lemma")),
    "pretzel.assertions": ("count", _count("assertions")),
    "locus.locus_points.self_s": ("s", _self_s("locus.locus_points")),
    "locus.samples_in": ("count", _count("samples_in")),
    "locus.points_out": ("count", _count("points_out")),
    "locus.points_per_sample": ("points/sample", _per(lambda r: r["counts"].get("points_out", 0),
                                                      lambda r: r["counts"].get("samples_in", 0))),
    "locus.csv_text.self_s": ("s", _self_s("locus.csv_text")),
    "locus.csv_bytes": ("bytes", _count("csv_bytes")),
    "locus.svg_text.self_s": ("s", _self_s("locus.svg_text")),
    "locus.svg_bytes": ("bytes", _count("svg_bytes")),
    "cli.main.self_s": ("s", _self_s("cli.main")),
}


# ----------------------------------------------------------------------
# rounds


class RoundError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in SINGLE_THREAD:
        env[var] = "1"
    return env


def run_round(workload: str, seed: int, mode: str, workdir: str, timeout: float) -> dict:
    round_dir = tempfile.mkdtemp(dir=workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(spawned_at), round_dir], cwd=ROOT, env=_child_env(),
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RoundError(f"{mode} round of {workload} ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RoundError(f"{mode} round of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: int, traced: bool, workdir: str) -> list:
    """Whole rounds until `seconds` have passed; traced runs alternate an
    untraced and a traced round so that both see the same machine state."""
    modes = ("coarse", "full") if traced else ("coarse",)
    start = time.monotonic()
    rounds = []
    while not rounds or time.monotonic() - start < seconds:
        for mode in modes:
            left = RUN_LIMIT_S - (time.monotonic() - start)
            rounds.append(run_round(workload, seed, mode, workdir, left))
    return rounds


# ----------------------------------------------------------------------
# environment record


def _git_commit():
    """HEAD of the checkout, or None when it is not itself a git tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _src_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "sl2arc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    return {
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ----------------------------------------------------------------------


def summarize(workload: str, seed: int, traced: bool, rounds: list) -> tuple:
    coarse = [r for r in rounds if r["mode"] == "coarse"]
    full = [r for r in rounds if r["mode"] == "full"]
    verdicts = [v for r in rounds for v in r["verdicts"]]
    wrong = [v for v in verdicts if v[1] == "wrong"]
    faults = Counter(v[3] for v in verdicts if v[1] == "known-fault")
    deterministic = all(r["digests"] == rounds[0]["digests"] for r in rounds)
    table = PER_LAYER if traced else END_TO_END
    metrics = {name: {"value": fn(coarse, full), "unit": unit} for name, (unit, fn) in table.items()}
    info = {
        "workload": workload,
        "seed": seed,
        "env": environment(),
        "rounds": {"untraced": len(coarse), "traced": len(full)},
        "raw_untraced": {key: _median([r[key] for r in coarse])
                         for key in ("raw_setup_s", "raw_workload_s", "slowdown")},
        "digests": rounds[0]["digests"],
        "deterministic": deterministic,
        "known_faults": {name: {"failed": count, "why": KNOWN_FAULTS[name][0]}
                         for name, count in sorted(faults.items())},
        "wrong": sorted({f"{v[0]}: {', '.join(v[2])}" for v in wrong}),
    }
    result = {
        "correct": not wrong and deterministic,
        "attempted": len(verdicts),
        "failed": sum(1 for v in verdicts if v[1] != "ok"),
        "metrics": metrics,
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "sl2arc", "__init__.py")):
        print(f"error: no sl2arc package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    workdir_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(workdir_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=workdir_root)
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workdir_root)
        except OSError:
            pass  # another run is using it
    info, result = summarize(args.workload, args.seed, bool(args.trace), rounds)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
