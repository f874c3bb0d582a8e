"""Span tracing installed from outside the distgcn package.

A traced run replaces, for its duration, the public functions each layer
looks up by name with wrappers that record one span per call. The
modules import one another by name (`from .sparse import local_spmm`), so a
wrapper must be installed at every name the program reads, not only at
the defining module; `PATCHES` lists those names.

A span holds the layer name, the rank that made the call (-1 for the
driving thread), the enclosing span on the same thread, wall start and
end (`time.perf_counter`) and thread CPU start and end
(`time.thread_time`). Under the interpreter lock a rank thread's wall
span also covers time spent waiting to run, so busy time is taken from
CPU time and waiting as wall minus CPU. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

import distgcn.gcn
import distgcn.graphgen
import distgcn.partition
import distgcn.sparse
import distgcn.spmm
from distgcn.runtime import Comm


@dataclass
class Span:
    name: str
    rank: int
    span_id: int
    parent: int
    wall0: float
    wall1: float
    cpu0: float
    cpu1: float
    arg: float = None

    @property
    def wall(self) -> float:
        return self.wall1 - self.wall0

    @property
    def cpu(self) -> float:
        return self.cpu1 - self.cpu0


def _flops(a, h, *args, **kwargs):
    return 2 * a.nnz * h.shape[1]


def _peer(comm, peer, *args, **kwargs):
    return peer


# (owner, attribute, span name, argument recorder, record allocation peak)
PATCHES = [
    (distgcn.graphgen, "sbm", "graphgen.sbm", None, True),
    (distgcn.graphgen, "star_augmented", "graphgen.star_augmented", None, True),
    (distgcn.sparse, "gcn_normalize", "sparse.gcn_normalize", None, False),
    (distgcn.spmm, "local_spmm", "sparse.local_spmm", _flops, False),
    (distgcn.spmm, "transpose_csr", "sparse.transpose_csr", None, False),
    (distgcn.partition, "transpose_csr", "sparse.transpose_csr", None, False),
    (distgcn.gcn, "gemm", "sparse.gemm", None, False),
    (distgcn.gcn, "apply_partition", "partition.apply_partition", None, False),
    (distgcn.gcn, "build_dist_matrices", "spmm.build_dist_matrices", None, True),
    (distgcn.gcn, "exchange_index_lists", "spmm.exchange_index_lists", None, False),
    (distgcn.gcn, "spmm_kernel", "spmm.spmm_kernel", None, False),
    (distgcn.gcn, "train", "gcn.train", None, False),
    (distgcn.partition, "greedy_tv_partition", "partition.greedy_tv_partition", None, False),
    (distgcn.partition, "volume_balanced_refine", "partition.volume_balanced_refine",
     None, False),
    (distgcn.partition, "comm_metrics", "partition.comm_metrics", None, False),
    (distgcn.partition, "edgecut", "partition.edgecut", None, False),
    (Comm, "isend", "runtime.isend", _peer, False),
    (Comm, "recv", "runtime.recv", _peer, False),
    (Comm, "all_to_allv", "runtime.all_to_allv", None, False),
    (Comm, "broadcast", "runtime.broadcast", None, False),
    (Comm, "all_reduce_sum", "runtime.all_reduce_sum", None, False),
    (Comm, "ledger_mark", "runtime.ledger_mark", None, False),
]


class Tracer:
    """Collects spans from every thread; one instance per traced region."""

    def __init__(self, alloc=False):
        self.alloc = alloc  # allocation peaks; tracemalloc slows the traced call
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _thread_state(self):
        state = self._local
        if not hasattr(state, "stack"):
            name = threading.current_thread().name
            state.rank = int(name[5:]) if name.startswith("rank-") else -1
            state.stack = []
        return state

    def wrap(self, name, fn, arg=None, alloc=False):
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._thread_state()
            stack = state.stack
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            value = arg(*args, **kwargs) if arg is not None else None
            stack.append(span_id)
            if alloc:
                tracemalloc.start()
            w0, c0 = time.perf_counter(), time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                c1, w1 = time.thread_time(), time.perf_counter()
                if alloc:
                    value = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                stack.pop()
                spans.append(Span(name, state.rank, span_id, parent, w0, w1, c0, c1, value))
        return wrapper

    def _wrap_run_program(self, run_program):
        """gcn.train hands its per-rank procedure to run_program; wrapping
        that procedure gives each rank thread a root span."""
        traced = self.wrap("runtime.run_program", run_program)

        @functools.wraps(run_program)
        def wrapper(p, c, program, args=()):
            return traced(p, c, self.wrap("gcn.rank_program", program), args)
        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, arg, alloc in PATCHES:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, arg, alloc and self.alloc))
            saved.append((distgcn.gcn, "run_program", distgcn.gcn.run_program))
            distgcn.gcn.run_program = self._wrap_run_program(distgcn.gcn.run_program)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def named(self, name, epoch_only=False):
        """Spans of one layer; with epoch_only, only rank-thread spans that
        start after that rank's one-time index exchange has returned."""
        spans = [s for s in self.spans if s.name == name]
        if not epoch_only:
            return spans
        start = {}
        for s in self.spans:
            if s.name == "spmm.exchange_index_lists":
                start[s.rank] = max(start.get(s.rank, 0.0), s.wall1)
        return [s for s in spans if s.rank >= 0 and s.wall0 >= start.get(s.rank, 0.0)]

    def child_cpu(self, spans):
        """CPU time of the direct children of `spans`."""
        ids = {s.span_id for s in spans}
        return sum(s.cpu for s in self.spans if s.parent in ids)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.span_id):
                fh.write(json.dumps(s.__dict__) + "\n")
