"""Deterministic bulk-synchronous host for P virtual processes.

Every rank runs the same procedure against a Comm handle offering
non-blocking sends, blocking tagged receives, and the collectives used by
the distributed kernels. Each rank has its own thread, but exactly one
rank runs at a time: it holds a baton until it blocks or finishes, then
hands it to the next rank in a FIFO ready queue. An event wakes only the
ranks waiting on it: a send the receiver parked on its (src, dst, tag),
the last arrival at a collective the members parked on it. A rank that
blocks or finishes while no rank is ready and some rank is still blocked
ends the run with a DeadlockError. Point-to-point messages are matched
FIFO per (src, dst, tag), collectives act as barriers and reduce in
ascending rank order, every ledger charge is a pure function of the
program, and the interleaving of the ranks is itself deterministic. Two
runs of the same program on the same inputs produce bit-identical
results and ledgers. Since only one rank runs at a time, the rank
threads of a run share one CPU, the one the caller was on when the run
started (where the platform can pin threads): otherwise every hand-off
may wake the next rank on another idle CPU, and whether it does depends
on the machine's load, not on the program.

Payloads are numpy arrays of float64 (dense data) or int64 (index lists);
either way a payload of m elements is charged as 8*m bytes. Accounting
conventions: point-to-point and all-to-all charge exactly the payload
bytes between distinct ranks (self-addressed payloads are local copies and
cost nothing); broadcast charges the root (p-1) times the payload;
all-reduce charges every group member 2*(g-1)/g times the payload, the
ring schedule cost, which may be fractional. Each primitive charges all
the ranks it involves through one `CommLedger.charge` per direction and
raises the ledger's p x p arrays of largest message per rank pair. The
conventions live in this module only, so swapping them does not touch the
algorithms.

Collectives do not copy their inputs on arrival: every member stays
blocked until the last one to arrive has built the outputs, so no input
can change in between. `all_reduce_sum` returns one read-only sum and
`broadcast` one read-only copy of the root's payload, each shared by every
member of the group. `isend` does copy, because the sender runs on
while the message waits. `all_to_allv` receivers copy their rows out of
the senders' buffers after the exchange returns, so a buffer handed to
it must not be written to afterwards.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CommLedger",
    "Comm",
    "DeadlockError",
    "ProcessGrid",
    "RunResult",
    "SimulationError",
    "run_program",
]

PRIMITIVES = ("p2p", "alltoallv", "broadcast", "allreduce")

_SENT_FIELDS = ("bytes_sent", "data_bytes_sent", "index_bytes_sent",
                "msgs_sent", "data_msgs_sent", "index_msgs_sent")
_RECV_FIELDS = ("bytes_received", "data_bytes_received", "index_bytes_received",
                "msgs_received", "data_msgs_received", "index_msgs_received")


class DeadlockError(RuntimeError):
    """Raised when every live rank is blocked and no progress is possible.

    `blocked` maps each blocked rank to a description of what it was
    waiting for, e.g. ("recv", src, dst, tag).
    """

    def __init__(self, blocked):
        self.blocked = dict(blocked)
        detail = "; ".join(f"rank {r} waiting on {w}" for r, w in sorted(self.blocked.items()))
        super().__init__(f"simulation deadlocked: {detail}")


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class ProcessGrid:
    """p processes arranged as (p/c) rows by c columns; rank = i*c + j."""

    p: int
    c: int = 1

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.c < 1:
            raise ValueError("replication factor c must be at least 1")
        if self.p % self.c != 0:
            raise ValueError(f"c must divide p (p={self.p}, c={self.c})")

    @property
    def n_rows(self) -> int:
        return self.p // self.c

    def coords(self, rank):
        return divmod(rank, self.c)

    def rank_of(self, i, j) -> int:
        return i * self.c + j

    def row_group(self, i):
        return tuple(range(i * self.c, (i + 1) * self.c))

    def col_group(self, j):
        return tuple(range(j, self.p, self.c))

    def stage_count(self) -> int:
        """Stages of the replicated block-row schedule, p/c**2."""
        if self.p % (self.c * self.c) != 0:
            raise ValueError(f"c*c must divide p (p={self.p}, c={self.c})")
        return self.p // (self.c * self.c)


class CommLedger:
    """Per-rank, per-primitive byte and message counters for one run.

    Byte counters are floats because the ring all-reduce convention can
    charge fractional bytes; `msgs_*` and `calls` are integers, while the
    per-kind `data_msgs_*` and `index_msgs_*` are floats. Bytes and
    messages move through `charge`, which charges any number of ranks at
    once; a collective charges each member one call.
    `pair_max_bytes[s, d]` and `pair_max_data_bytes[s, d]` hold the
    largest single message (of any kind, of data) from rank s to rank d,
    as p x p integer arrays in which zero means no message; `marks` hold
    global totals snapshotted at program-defined points.
    """

    def __init__(self, p):
        self.p = p
        self.counters = {}
        for prim in PRIMITIVES:
            fields = {}
            for name in _SENT_FIELDS + _RECV_FIELDS:
                dtype = np.int64 if name.startswith("msgs") else np.float64
                fields[name] = np.zeros(p, dtype=dtype)
            fields["calls"] = np.zeros(p, dtype=np.int64)
            self.counters[prim] = fields
        self.pair_max_bytes = np.zeros((p, p), dtype=np.int64)
        self.pair_max_data_bytes = np.zeros((p, p), dtype=np.int64)
        self.marks = {}

    @staticmethod
    def _kind(payload) -> str:
        return "data" if payload.dtype == np.float64 else "index"

    def charge(self, prim, direction, ranks, nbytes, kind, msgs=1):
        """Charge `ranks`, one rank or a sequence of distinct ranks, nbytes
        and msgs each in `direction` ("sent" or "received"); nbytes and
        msgs are scalars or arrays aligned with `ranks`."""
        c = self.counters[prim]
        c[f"bytes_{direction}"][ranks] += nbytes
        c[f"{kind}_bytes_{direction}"][ranks] += nbytes
        c[f"msgs_{direction}"][ranks] += msgs
        c[f"{kind}_msgs_{direction}"][ranks] += msgs

    def record_pairs(self, src, dst, nbytes, kind):
        """Raise the pair maxima of the distinct (src, dst) cells that
        `src` and `dst` index to at least nbytes."""
        maxima = ((self.pair_max_bytes, self.pair_max_data_bytes) if kind == "data"
                  else (self.pair_max_bytes,))
        for pm in maxima:
            pm[src, dst] = np.maximum(pm[src, dst], nbytes)

    def totals(self) -> dict:
        out = {}
        for prim in PRIMITIVES:
            out[prim] = {name: float(arr.sum()) if arr.dtype == np.float64 else int(arr.sum())
                         for name, arr in self.counters[prim].items()}
        return out

    def total_bytes_sent(self, kind=None) -> float:
        field = "bytes_sent" if kind is None else f"{kind}_bytes_sent"
        return float(sum(self.counters[prim][field].sum() for prim in PRIMITIVES))

    def rank_bytes_sent(self, rank, kind=None) -> float:
        field = "bytes_sent" if kind is None else f"{kind}_bytes_sent"
        return float(sum(self.counters[prim][field][rank] for prim in PRIMITIVES))

    def max_pair_data_bytes(self) -> float:
        return int(self.pair_max_data_bytes.max()) or 0.0

    def conservation_ok(self) -> bool:
        for prim in PRIMITIVES:
            c = self.counters[prim]
            if float(c["bytes_sent"].sum()) != float(c["bytes_received"].sum()):
                return False
        return True

    def snapshot(self) -> dict:
        keep = ("bytes_sent", "data_bytes_sent", "index_bytes_sent", "msgs_sent")
        return {prim: {name: t[name] for name in keep} for prim, t in self.totals().items()}

    def to_dict(self) -> dict:
        per_rank = {}
        for prim in PRIMITIVES:
            per_rank[prim] = {name: arr.tolist() for name, arr in
                              sorted(self.counters[prim].items())}
        return {
            "p": self.p,
            "per_rank": per_rank,
            "totals": self.totals(),
            "pair_max_bytes": _pair_dict(self.pair_max_bytes),
            "pair_max_data_bytes": _pair_dict(self.pair_max_data_bytes),
            "marks": {str(k): v for k, v in self.marks.items()},
        }


def _pair_dict(maxima) -> dict:
    """The nonzero cells of a p x p pair-maximum array in row-major order,
    as {"s->d": int}."""
    src, dst = np.nonzero(maxima)
    return {f"{s}->{d}": v for s, d, v in
            zip(src.tolist(), dst.tolist(), maxima[src, dst].tolist())}


class _Abort(Exception):
    """Internal: unwind a rank thread after a failure elsewhere."""


class _CollectiveSlot:
    __slots__ = ("arrivals", "outputs", "done", "remaining", "error")

    def __init__(self, size):
        self.arrivals = {}
        self.outputs = None
        self.done = False
        self.remaining = size
        self.error = None


class _Runtime:
    """Shared state of one run and the baton that serializes its ranks.

    Every rank thread parks on its own semaphore; the baton holder is the
    only thread running program code, and it releases the next rank only
    after its last write to shared state, so no lock is needed. `ready`
    is the FIFO queue of ranks that can run, `waiters` maps a wait key,
    ("mail", (src, dst, tag)) or ("slot", collective key), to the ranks
    parked on it, and `blocked` maps each parked rank to what it waits
    for. A rank that blocks or finishes with `ready` empty while `blocked`
    is not is a deadlock: nothing left can wake anyone.
    """

    def __init__(self, grid: ProcessGrid):
        self.grid = grid
        self.mail = {}
        self.slots = {}
        self.ledger = CommLedger(grid.p)
        self.baton = [threading.Semaphore(0) for _ in range(grid.p)]
        self.ready = deque(range(grid.p))
        self.waiters = {}
        self.blocked = {}
        self.deadlock = None
        self.program_error = None

    def _hand_off(self):
        """Give the baton to the next ready rank; the caller stops running."""
        if not self.ready and self.blocked:
            # nothing can wake the blocked ranks. This is the first such
            # moment: after a deadlock or a program error every waiter is
            # woken to abort, and no rank blocks again.
            self.deadlock = DeadlockError(self.blocked)
            self._wake_all()
        if self.ready:
            self.baton[self.ready.popleft()].release()

    def _wake(self, key):
        for rank in self.waiters.pop(key, ()):
            del self.blocked[rank]
            self.ready.append(rank)

    def _wake_all(self):
        for key in list(self.waiters):
            self._wake(key)

    def _wait_until(self, rank, predicate, info, key):
        # caller holds the baton
        while True:
            if self.deadlock is not None or self.program_error is not None:
                raise _Abort()
            if predicate():
                return
            self.blocked[rank] = info
            self.waiters.setdefault(key, []).append(rank)
            self._hand_off()
            self.baton[rank].acquire()

    def finish(self, rank, error=None):
        if error is not None and self.program_error is None:
            self.program_error = (rank, error)
            self._wake_all()
        self._hand_off()


def _as_payload(buf) -> np.ndarray:
    """buf as an array, uncopied, after checking its dtype."""
    arr = np.asarray(buf)
    if arr.dtype not in (np.dtype(np.float64), np.dtype(np.int64)):
        raise TypeError(f"payloads must be float64 or int64, got {arr.dtype}")
    return arr


class Comm:
    """Per-rank communication handle passed to the rank procedure."""

    def __init__(self, runtime: _Runtime, rank: int):
        self._rt = runtime
        self.rank = rank
        self.grid = runtime.grid
        self.p = runtime.grid.p
        self.c = runtime.grid.c
        self.coords = runtime.grid.coords(rank)
        self._seq = {}
        self._phase = 0

    # ---- point to point ----------------------------------------------

    def isend(self, dst, payload, tag=0):
        """Buffered non-blocking send; never blocks. The payload is copied
        at call time, so the caller may reuse its buffer."""
        if not 0 <= dst < self.p:
            raise ValueError(f"destination rank {dst} out of range")
        arr = _as_payload(payload).copy()
        rt = self._rt
        key = (self.rank, dst, tag)
        rt.mail.setdefault(key, deque()).append(arr)
        if dst != self.rank:
            nbytes = arr.size * 8
            kind = CommLedger._kind(arr)
            rt.ledger.charge("p2p", "sent", self.rank, nbytes, kind)
            rt.ledger.record_pairs(self.rank, dst, nbytes, kind)
        rt._wake(("mail", key))

    def recv(self, src, tag=0) -> np.ndarray:
        """Blocking receive matching (src, this rank, tag); messages on the
        same key arrive in send order."""
        if not 0 <= src < self.p:
            raise ValueError(f"source rank {src} out of range")
        key = (src, self.rank, tag)
        rt = self._rt
        rt._wait_until(self.rank, lambda: rt.mail.get(key),
                       ("recv", src, self.rank, tag), ("mail", key))
        payload = rt.mail[key].popleft()
        if not rt.mail[key]:
            del rt.mail[key]
        if src != self.rank:
            rt.ledger.charge("p2p", "received", self.rank, payload.size * 8,
                             CommLedger._kind(payload))
        return payload

    # ---- collectives --------------------------------------------------

    def _collective(self, kind, group, payload, complete):
        """Rendezvous of every rank in `group`; the last arrival runs
        `complete` exactly once to produce all outputs and ledger charges.
        A collective of a ledger primitive charges every member one call."""
        if self.rank not in group:
            raise ValueError(f"rank {self.rank} is not in group {group}")
        seq = self._seq.get((kind, group), 0)
        self._seq[(kind, group)] = seq + 1
        key = (kind, group, seq)
        rt = self._rt
        slot = rt.slots.get(key)
        if slot is None:
            slot = rt.slots[key] = _CollectiveSlot(len(group))
        slot.arrivals[self.rank] = payload
        if len(slot.arrivals) == len(group):
            try:
                slot.outputs = complete(slot.arrivals)
                if kind in PRIMITIVES:
                    rt.ledger.counters[kind]["calls"][list(group)] += 1
            except Exception as exc:  # propagate to every member
                slot.error = exc
            slot.done = True
            rt._wake(("slot", key))
        else:
            rt._wait_until(self.rank, lambda: slot.done,
                           ("collective", kind, group, seq), ("slot", key))
        slot.remaining -= 1
        if slot.remaining == 0:
            del rt.slots[key]
        if slot.error is not None:
            raise slot.error
        return slot.outputs[self.rank]

    def all_to_allv(self, buf, counts) -> np.ndarray:
        """Personalized exchange in MPI_Alltoallv form: consecutive row
        segments of `buf`, counts[d] rows for rank d, go to ranks 0..p-1
        in order, and the result stacks the rows received in sender-rank
        order. Every rank must send the same dtype and row shape. A
        segment of no rows is no message and costs nothing; the segment
        addressed to the caller itself is a free local copy. `buf` must
        not be written to after the call (see the module docstring)."""
        arr = _as_payload(buf)
        counts = np.asarray(counts)
        if arr.ndim == 0:
            raise ValueError("all_to_allv needs a buffer of rows, got a scalar")
        if counts.shape != (self.p,) or not np.issubdtype(counts.dtype, np.integer):
            raise ValueError(f"all_to_allv needs {self.p} integer counts, one per rank, "
                             f"got {counts.dtype} of shape {counts.shape}")
        if counts.min() < 0:
            raise ValueError(f"all_to_allv counts must be non-negative, got {counts.min()}")
        if counts.sum() != arr.shape[0]:
            raise ValueError(f"all_to_allv counts sum to {counts.sum()} "
                             f"but the buffer has {arr.shape[0]} rows")
        group = tuple(range(self.p))
        ledger = self._rt.ledger

        def complete(arrivals):
            bufs = [arrivals[s][0] for s in group]
            row_shapes = {(b.dtype.str, b.shape[1:]) for b in bufs}
            if len(row_shapes) > 1:
                raise ValueError("all_to_allv buffers differ in dtype or row shape: "
                                 f"{sorted(row_shapes)}")
            rows = np.stack([arrivals[s][1] for s in group]).astype(np.int64)
            # nbytes[s, d] moves from s to d; a zero entry is no message
            nbytes = rows * (8 * math.prod(bufs[0].shape[1:]))
            np.fill_diagonal(nbytes, 0)
            kind = CommLedger._kind(bufs[0])
            msgs = nbytes > 0
            ranks = list(group)
            ledger.charge("alltoallv", "sent", ranks, nbytes.sum(axis=1), kind, msgs.sum(axis=1))
            ledger.charge("alltoallv", "received", ranks, nbytes.sum(axis=0), kind,
                          msgs.sum(axis=0))
            ledger.record_pairs(slice(None), slice(None), nbytes, kind)
            ends = np.cumsum(rows, axis=1)
            # non-empty segments by receiver, then in ascending sender order
            dst, src = np.nonzero(rows.T)
            his = ends[src, dst]
            los = his - rows[src, dst]
            segments = {d: [] for d in group}
            for d, s, lo, hi in zip(dst.tolist(), src.tolist(), los.tolist(), his.tolist()):
                segments[d].append(bufs[s][lo:hi])
            return segments

        segments = self._collective("alltoallv", group, (arr, counts), complete)
        return np.concatenate(segments) if segments else arr[:0].copy()

    def broadcast(self, root, buf=None) -> np.ndarray:
        """Every rank returns the root's payload, as one read-only array
        shared by all ranks. Linear accounting: the root is charged (p-1)
        messages of the payload size."""
        if not 0 <= root < self.p:
            raise ValueError(f"broadcast root {root} out of range")
        if self.rank == root and buf is None:
            raise ValueError(f"broadcast root {root} supplied no buffer")
        payload = _as_payload(buf) if self.rank == root else None
        group = tuple(range(self.p))
        ledger = self._rt.ledger

        def complete(arrivals):
            arr = arrivals[root]
            nbytes = arr.size * 8
            kind = CommLedger._kind(arr)
            shared = arr.copy()
            shared.setflags(write=False)
            others = np.delete(np.arange(self.p), root)
            ledger.charge("broadcast", "sent", root, nbytes * others.size, kind, others.size)
            ledger.charge("broadcast", "received", others, nbytes, kind)
            ledger.record_pairs(root, others, nbytes, kind)
            return dict.fromkeys(group, shared)

        return self._collective("broadcast", group, payload, complete)

    def all_reduce_sum(self, buf, group=None) -> np.ndarray:
        """Elementwise sum over the group, reduced in ascending rank order,
        as one read-only array shared by every member (a copy of the
        payload for a group of one). Every member must send the same dtype
        and shape. Ring accounting: each member moves 2*(g-1)/g of the
        payload in each direction."""
        group = tuple(range(self.p)) if group is None else tuple(sorted(group))
        payload = _as_payload(buf)
        ledger = self._rt.ledger

        def complete(arrivals):
            shapes = {arrivals[r].shape for r in group}
            if len(shapes) > 1:
                raise ValueError(f"all_reduce_sum payload shapes differ: {sorted(shapes)}")
            dtypes = {arrivals[r].dtype.str for r in group}
            if len(dtypes) > 1:
                raise ValueError(f"all_reduce_sum payload dtypes differ: {sorted(dtypes)}")
            g = len(group)
            first = arrivals[group[0]]
            # the first add makes the sum's own array; later adds go in place,
            # each the same IEEE addition as total + arrivals[r]
            total = first + arrivals[group[1]] if g > 1 else first.copy()
            for r in group[2:]:
                total += arrivals[r]
            total.setflags(write=False)
            kind = CommLedger._kind(total)
            wire = 2.0 * (g - 1) / g * (total.size * 8)
            members = list(group)
            ledger.charge("allreduce", "sent", members, wire, kind, 2 * (g - 1))
            ledger.charge("allreduce", "received", members, wire, kind, 2 * (g - 1))
            return dict.fromkeys(group, total)

        return self._collective("allreduce", group, payload, complete)

    def ledger_mark(self, label):
        """Collective; snapshots the global per-primitive totals under
        `label` once every rank has arrived. Charges nothing."""
        group = tuple(range(self.p))
        ledger = self._rt.ledger

        def complete(arrivals):
            ledger.marks[label] = ledger.snapshot()
            return {r: None for r in group}

        self._collective("mark", group, None, complete)

    def next_phase(self) -> int:
        """Monotone per-rank counter; ranks calling in lockstep obtain
        matching values, handy for building unique message tags."""
        self._phase += 1
        return self._phase


def _caller_cpu():
    """The CPU the calling thread is on, or None where threads cannot be
    pinned to it."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        cpu = ctypes.CDLL(None).sched_getcpu()
    except (AttributeError, OSError):
        return None
    return cpu if cpu in os.sched_getaffinity(0) else None


@dataclass
class RunResult:
    results: list
    ledger: CommLedger
    grid: ProcessGrid


def run_program(p, c, program, args=()) -> RunResult:
    """Run `program(comm, *args)` on every rank of a (p/c) x c grid to
    completion and return the per-rank results and the ledger.

    Raises DeadlockError when every live rank is blocked with no message
    in flight that could wake it (the report names the blocked ranks and
    their pending operations), and SimulationError when messages are left
    undelivered at program end. Exceptions inside a rank propagate.
    """
    grid = ProcessGrid(p, c)
    rt = _Runtime(grid)
    results = [None] * p
    cpu = _caller_cpu()

    def runner(rank):
        comm = Comm(rt, rank)
        rt.baton[rank].acquire()
        error = None
        try:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})  # this thread only
            results[rank] = program(comm, *args)
        except _Abort:
            pass
        except BaseException as exc:  # noqa: BLE001 - re-raised by run_program
            # whatever ends the rank, the baton must move on or every
            # other rank stalls
            error = exc
        rt.finish(rank, error)

    threads = [threading.Thread(target=runner, args=(r,), name=f"rank-{r}") for r in range(p)]
    for t in threads:
        t.start()
    rt._hand_off()
    for t in threads:
        t.join(timeout=600.0)
        if t.is_alive():
            raise SimulationError("simulated rank failed to terminate")
    if rt.program_error is not None:
        rank, exc = rt.program_error
        raise exc
    if rt.deadlock is not None:
        raise rt.deadlock
    if rt.mail:
        leftovers = ", ".join(f"(src={s}, dst={d}, tag={t!r})x{len(q)}"
                              for (s, d, t), q in sorted(rt.mail.items(), key=str))
        raise SimulationError(f"messages were sent but never received: {leftovers}")
    return RunResult(results, rt.ledger, grid)
