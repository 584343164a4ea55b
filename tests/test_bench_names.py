"""The names the bench tracer rebinds must exist in the package, or
`bench/run.py --trace 1` breaks."""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _load_tracing()


@pytest.mark.parametrize("module_name, attr", sorted(
    {(m, a) for m, a, _ in _TRACING.FULL + _TRACING.COARSE}))
def test_traced_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module_name}.{attr}"
        owner = getattr(owner, part)
    assert callable(owner)
