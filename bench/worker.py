"""One round of a workload in a fresh interpreter; prints one JSON line.

run.py starts this script once per round, so every round begins with an
empty trace-polynomial memo, as a command-line user's process does.  Set-up
time runs from the moment run.py started the process (passed in as a
CLOCK_MONOTONIC reading) to the end of the first make_family.

Times are reported at a reference machine speed.  On a shared 2-core
virtual machine the CPU was seen to switch, for seconds at a time, between
two speeds about 1.7x apart, which no number of rounds averages away.  So the
worker times a fixed calibration kernel (Fraction and float arithmetic plus
small numpy SVD and lstsq calls, the mix the package runs) before the first
and after every segment of the workload, and divides each segment's times by
the kernel's slowdown against CALIBRATION_REF_S, averaged over the passes on
either side.  The raw times and the mean slowdown are kept in the result.

Usage: worker.py WORKLOAD SEED full|coarse SPAWNED_AT WORKDIR
"""

from __future__ import annotations

import fractions
import hashlib
import json
import math
import os
import resource
import sys
import time

import numpy as np

import checks
import tracing
from workloads import WORKLOADS

# Normalized times are seconds at the speed at which one kernel pass takes
# this long (the slower of the two speeds mentioned above).
CALIBRATION_REF_S = 0.010


def _kernel_pass() -> float:
    m = np.arange(30.0).reshape(5, 6) + np.eye(5, 6)
    start = time.perf_counter()
    acc, f = fractions.Fraction(0), 0.0
    for k in range(1, 1500):
        acc += fractions.Fraction(1, k % 97 + 1)
        f += math.sqrt(k)
    for _ in range(80):
        np.linalg.svd(m)
        np.linalg.lstsq(m, m[:, 0], rcond=None)
    return time.perf_counter() - start


def slowdown() -> float:
    """Median of three kernel passes against the reference pass time."""
    return sorted(_kernel_pass() for _ in range(3))[1] / CALIBRATION_REF_S


def run_segments(segments, tracer) -> dict:
    """Run the segments in order; normalize each by the slowdown measured
    on either side of it.  Span statistics are normalized per segment too."""
    before = first = slowdown()
    raw_s = workload_s = 0.0
    phases: dict = {}
    stats: dict = {}
    for phase, run in segments:
        seen = {k: tuple(v) for k, v in tracer.stats.items()}
        start = time.monotonic()
        run()
        raw = time.monotonic() - start
        after = slowdown()
        factor = (before + after) / 2
        raw_s += raw
        workload_s += raw / factor
        phases[phase] = phases.get(phase, 0.0) + raw / factor
        for name, (calls, incl, own) in tracer.stats.items():
            calls0, incl0, own0 = seen.get(name, (0, 0.0, 0.0))
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls - calls0
            acc[1] += (incl - incl0) / factor
            acc[2] += (own - own0) / factor
        before = after
    return {"first_slowdown": first, "raw_workload_s": raw_s, "workload_s": workload_s,
            "slowdown": raw_s / workload_s if workload_s else first,
            "phases": phases, "trace": stats}


def main(argv) -> int:
    workload_name, seed, mode, spawned_at, workdir = argv
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workload = WORKLOADS[workload_name](int(seed), workdir)
    workload.setup()
    setup_s = time.monotonic() - float(spawned_at)
    import sl2arc

    if not os.path.abspath(sl2arc.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"sl2arc was imported from {sl2arc.__file__}, not from this checkout", file=sys.stderr)
        return 2

    full = mode == "full"
    tracer = tracing.Tracer(tracing.FULL if full else tracing.COARSE, linalg_in_arc=full)
    segments = workload.segments()
    tracer.install()
    try:
        timed = run_segments(segments, tracer)
    finally:
        tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = workload.outputs()
    verdicts = checks.check(workload_name, out, int(seed))
    digests = {k: hashlib.sha256(v.encode()).hexdigest()
               for k, v in workload.digest_texts(out).items()}
    result = {
        "mode": mode,
        "raw_setup_s": setup_s,
        "setup_s": setup_s / timed.pop("first_slowdown"),
        **timed,
        "peak_rss_mib": peak_rss_mib,
        "counts": workload.counts(out),
        "verdicts": [[v.op, v.status, list(v.failures), v.fault] for v in verdicts],
        "digests": digests,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
