"""The three bench workloads run in-process on small inputs and pass their own
checks, so that a change to the fields and calls bench/workloads.py reads
(s.t, s.ma, s.mb, s.residual, s.det_sign, ...) fails here first."""

from __future__ import annotations

import importlib
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """bench/workloads.py and bench/checks.py, imported as the worker
    imports them: as top-level modules from the bench directory."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads"), importlib.import_module("checks")


def _small(name: str, workload):
    if name == "arc-long":
        workload.steps = 30
    elif name == "family-sweep":
        workload.cases = [(1, 1), (1, -1), (6, 1)]
        workload.steps = 10
    else:
        workload.ns = (1, 2, 13)
        workload.oracle = workload.oracle[:10]


@pytest.mark.parametrize("name", ["arc-long", "family-sweep", "exact-verify"])
def test_a_small_bench_workload_passes_its_checks(name, bench, tmp_path):
    workloads, checks = bench
    seed = 7
    workload = workloads.WORKLOADS[name](seed, str(tmp_path))
    _small(name, workload)
    workload.setup()
    for _, run in workload.segments():
        run()
    out = workload.outputs()
    texts = workload.digest_texts(out)
    assert texts and all(isinstance(text, str) and text for text in texts.values())
    counts = workload.counts(out)
    assert counts and all(value >= 0 for value in counts.values())
    verdicts = checks.check(name, out, seed)
    assert verdicts
    assert [v.op for v in verdicts if v.status not in ("ok", "known-fault")] == []
