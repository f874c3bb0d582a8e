"""The benchmark's tracer (bench/tracing.py) wraps package functions by
module and name, so renaming one would crash a traced benchmark run. This
checks every wrapped name from the test suite instead."""

import importlib
from pathlib import Path

import distgcn.gcn

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracing_patches_resolve_to_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.PATCHES
    for owner, attr, *_ in tracing.PATCHES:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    # installed() also wraps the runner gcn.train hands its program to
    assert callable(distgcn.gcn.run_program)
