"""The benchmark's tracer (bench/tracing.py) wraps package functions by
module and name, so renaming one would crash a traced benchmark run. This
checks every wrapped name from the test suite instead."""

import importlib
from pathlib import Path

import numpy as np

import distgcn.gcn
from distgcn.gcn import TrainConfig
from distgcn.graphgen import sbm
from distgcn.sparse import gcn_normalize

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracing_patches_resolve_to_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.PATCHES
    for owner, attr, *_ in tracing.PATCHES:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    # installed() also wraps the runner gcn.train hands its program to
    assert callable(distgcn.gcn.run_program)


def test_traced_setup_times_the_transpose_inside_the_layout(monkeypatch):
    # build_dist_matrices transposes through the name the tracer wraps, so
    # a traced benchmark run times the transpose as part of the set-up
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    graph, x, y = sbm(48, blocks=4, p_in=0.2, p_out=0.02, seed=0, feature_dim=3)
    cfg = TrainConfig(epochs=1, variant="1d-sparse")
    tracer = tracing.Tracer()
    with tracer.installed():
        distgcn.gcn.train(gcn_normalize(graph), x, y, np.arange(48) % 2 == 0, cfg, p=4)
    setup = {s.span_id for s in tracer.named("spmm.build_dist_matrices")}
    assert len(setup) == 1
    assert any(s.parent in setup for s in tracer.named("sparse.transpose_csr"))
