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
results and ledgers, and the results do not depend on the interleaving
either: run in any order of the ready ranks (`_Runtime.pick`), a program
of the package's collectives computes the same bits. Since only one rank
runs at a time, the rank threads of a run share one CPU, the one the
caller was on when the run started (where the platform can pin
threads): otherwise every hand-off may wake the next rank on another
idle CPU, and whether it does depends on the machine's load, not on the
program. Each baton is a plain lock, created held, so a hand-off is one
lock release with no Python-level wait queue behind it. Where the
platform allows, the rank threads also run under SCHED_BATCH, so a woken
rank waits for the rank that released it to drop the interpreter lock
rather than preempting it, only to find that lock still taken and sleep
again. For the same reason a run's dense products use one thread of
numpy's bundled OpenBLAS, whose previous count the run restores: more
threads would only spend CPU, and a product's last bits may change with
their count.

Payloads are numpy arrays of float64 (dense data) or int64 (index lists);
either way a payload of m elements is charged as 8*m bytes. Accounting
conventions: point-to-point and all-to-all charge exactly the payload
bytes between distinct ranks (self-addressed payloads are local copies and
cost nothing); broadcast charges the root (p-1) times the payload;
all-reduce charges each group member the whole elements it sends and
receives in MPICH's schedule for the group size (`all_reduce_counts`):
recursive halving then recursive doubling, 2*log2(g) steps, when g is a
power of two, and the ring's 2(g-1) steps otherwise. Either way the
members move 2(g-1) times the payload in all. Each primitive charges all
the ranks it involves through one `CommLedger.charge` per direction and
raises the ledger's p x p arrays of largest message per rank pair. The
conventions live in this module only, so swapping them does not touch the
algorithms.

Collectives do not copy their inputs on arrival: every member stays
blocked until the last one to arrive has built the collective's one
result, which every member returns, so no input can change in between.
That last arrival also retires the collective, so the run keeps no state
for a completed one. The run is bulk-synchronous: the members of a group
enter its collectives in one order, and none leaves one before it is
retired, so a group never has two open collectives of one kind. A
collective's slot is therefore keyed by its kind and group alone, with no
sequence number. `all_reduce_sum` returns one read-only sum and
`broadcast` one read-only copy of the root's payload, each shared by every
member of the group; `recv` returns the sender's copy, and `all_to_allv`
what its `then` makes. No call keeps a reference into a buffer handed to
it: `isend` copies its payload at call time, and `all_to_allv` hands the
buffers to its `then` only, which has returned before any member does. A
caller may therefore write to any buffer it passed as soon as the call
returns. Every collective of the whole grid runs over one group, the
run's `world`, built once, so a rank's arrival does no work that grows
with p.

An `all_to_allv` runs in two steps, as an inspector and an executor.
The inspector, `plan_all_to_allv`, runs once ahead of an exchange's
calls, in the spirit of MPI-4's persistent `MPI_Alltoallv_init`: it
turns the p senders' count matrix and buffer heights into an
`ExchangeSchedule`, checking the counts once, and keeps only the ledger
charges, in rows (per rank, and per message for the pair maxima), so no
array of a schedule is longer than p**2. A count says how many rows a
sender sends a receiver, not which. Every call passes the schedule and a
`then`, and its last arrival runs the executor: it checks only each
buffer's height against the schedule's and the ranks' dtypes and row
shapes, charges rows times the row width, so zero-width rows are no
message, and calls the `then` once with every rank's buffer, checked and
uncopied, in rank order. Each member returns its own element of the
result. So one call does the work of all receivers on the rows they
received, e.g. one multiply for a whole superstep rather than one per
rank, and nothing is stacked.

Which rows each count stands for is the caller's to know: for receiver
d, a `then` must read only counts[s][d] rows of each sender s's buffer.
The runtime cannot check this, and the ledger charges the counts only.
The multiply of `distgcn.spmm` reads the senders' buffers in place, at
the rows its occupied-column index names, and a test of it
(`test_every_rank_reads_only_rows_its_phase_delivers`) checks on every
variant that each rank reads only rows its stage owners send it, and
that each (owner, reader) pair is charged the rows sent. The runtime
knows nothing of what a `then` computes, charges the ledger as for the
exchange, and raises an exception it raises on every member. The
trade-off is in the timing: the work of every receiver runs on the
thread of the last arrival, so no rank's time is its own compute any
more.

The rank threads share one heap. glibc gives every new thread a malloc
arena of its own, so a rank's freed halos, products and sums would stay
in its arena while the next rank, which runs after it on the same CPU,
allocates in cold memory: the process would hold about one working set
per rank. Before its first rank thread exists, a process's first run
therefore caps glibc at one arena (`mallopt(M_ARENA_MAX, 1)`) and fixes
both of glibc's thresholds, which otherwise adapt to the blocks freed:
blocks below 32 MiB come from the heap, and the heap's top goes back to
the system only once 64 MiB of it are free. With one arena and adaptive
thresholds, the shared heap's top would be trimmed and regrown over and
over, costing thousands of page faults per epoch. Where the C library is
not glibc, or the environment configures the allocator (`MALLOC_*` or
`GLIBC_TUNABLES`), the heap is left as it is. No output depends on it.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CommLedger",
    "Comm",
    "DeadlockError",
    "ExchangeSchedule",
    "ProcessGrid",
    "RunResult",
    "SimulationError",
    "all_reduce_counts",
    "plan_all_to_allv",
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
        if self.p < 1 or self.c < 1:
            raise ValueError(f"p and c must be at least 1 (p={self.p}, c={self.c})")
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

    Byte counters are float64 but hold whole bytes, since every charge
    moves whole elements; every message counter (`msgs_*`, `data_msgs_*`,
    `index_msgs_*`) and `calls` are integers. Bytes and messages move
    through `charge`, which charges any number of ranks at once; a
    collective charges each member one call, and so do `isend` and `recv`
    their caller, self-addressed calls included.
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
                dtype = np.int64 if "msgs" in name else np.float64
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
        """Charge `ranks`, one rank, a sequence of distinct ranks or
        slice(None) for all of them, nbytes and msgs each in `direction`
        ("sent" or "received"); nbytes and msgs are scalars or arrays
        aligned with `ranks`."""
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
    __slots__ = ("arrivals", "output", "done", "error")

    def __init__(self):
        self.arrivals = {}
        self.output = None
        self.done = False
        self.error = None


class _Runtime:
    """Shared state of one run and the baton that serializes its ranks.

    Every rank thread parks on its own lock, `baton[rank]`, which is
    created held and released once per hand-off; the baton holder is the
    only thread running program code, and it releases the next rank only
    after its last write to shared state, so no lock is needed. `ready`
    is the FIFO queue of ranks that can run, and `blocked` maps each
    parked rank to what it waits for, which is all an event needs to find
    whom it wakes: a send wakes its receiver only when that rank is parked
    on exactly ("recv", src, dst, tag), a collective's completion the
    members parked in its slot, in the order they parked, and an abort
    every parked rank. A rank that blocks or finishes with `ready` empty
    while `blocked` is not is a deadlock: nothing left can wake anyone.

    `pick` chooses which ready rank runs next: None, the default, takes
    the queue's head; a callable, pick(ready) -> position in `ready`, may
    run any of them. It is a class attribute that only tests set (as a
    staticmethod), to check that no result depends on the order in which
    ready ranks run.
    """

    pick = None

    def __init__(self, grid: ProcessGrid):
        self.grid = grid
        self.world = tuple(range(grid.p))
        self.mail = {}
        self.slots = {}
        self.ledger = CommLedger(grid.p)
        self.baton = [threading.Lock() for _ in range(grid.p)]
        for baton in self.baton:
            baton.acquire()
        self.ready = deque(range(grid.p))
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
            if self.pick is None:
                rank = self.ready.popleft()
            else:
                at = self.pick(self.ready)
                rank = self.ready[at]
                del self.ready[at]
            self.baton[rank].release()

    def _wake(self, ranks):
        """Make ready, in the given order, those of `ranks` that are
        parked."""
        for rank in ranks:
            if self.blocked.pop(rank, None) is not None:
                self.ready.append(rank)

    def _wake_all(self):
        self.ready.extend(self.blocked)
        self.blocked.clear()

    def _wait_until(self, rank, predicate, info):
        # caller holds the baton
        while True:
            if self.deadlock is not None or self.program_error is not None:
                raise _Abort()
            if predicate():
                return
            self.blocked[rank] = info
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


def _count_matrix(counts) -> np.ndarray:
    """The p x p int64 matrix of all_to_allv counts, row s from rank s,
    after checking every rank's counts; raises for the lowest rank at
    fault."""
    p = len(counts)
    arrs = [np.asarray(c) for c in counts]
    if all(a.shape == (p,) and a.dtype.kind in "iu" for a in arrs):
        matrix = np.concatenate(arrs, dtype=np.int64).reshape(p, p)
        if matrix.min() >= 0:
            return matrix
    for s, c in enumerate(arrs):
        if c.shape != (p,) or c.dtype.kind not in "iu":
            raise ValueError(f"rank {s}: all_to_allv needs {p} integer counts, one per rank, "
                             f"got {c.dtype} of shape {c.shape}")
        c = c.astype(np.int64, copy=False)
        if c.min() < 0:
            raise ValueError(f"rank {s}: all_to_allv counts must be non-negative, "
                             f"got {c.min()}")


@dataclass(frozen=True, eq=False)
class ExchangeSchedule:
    """One `all_to_allv` pattern, inspected once (`plan_all_to_allv`).

    `heights[s]` is the number of rows sender s's buffer must have. The
    rest are the ledger charges, held in rows, so a call charges them for
    its own row width: per rank the rows and messages sent and received
    between distinct ranks, and each such message (`wire_src`,
    `wire_dst`, `wire_rows`) for the pair maxima. Which rows a count
    stands for is not held: the `then` of every call knows them.
    """

    heights: list
    sent_rows: np.ndarray
    sent_msgs: np.ndarray
    received_rows: np.ndarray
    received_msgs: np.ndarray
    wire_src: np.ndarray
    wire_dst: np.ndarray
    wire_rows: np.ndarray


def plan_all_to_allv(counts, heights) -> ExchangeSchedule:
    """Inspect the `all_to_allv` in which rank s, whose buffer has
    heights[s] rows, sends counts[s][d] rows to each rank d = 0..p-1;
    which rows they are is the caller's to know. Checks every rank's
    counts once, naming the lowest rank at fault, and returns the schedule
    that every call of the exchange passes."""
    heights = [int(h) for h in heights]
    if len(counts) != len(heights):
        raise ValueError(f"all_to_allv schedule needs counts and heights for every rank, "
                         f"got {len(counts)} and {len(heights)}")
    p = len(heights)
    # a segment to the sender itself is a free local copy: only the
    # non-empty segments (s, d) between distinct ranks are messages
    wire = _count_matrix(counts)
    np.fill_diagonal(wire, 0)
    seg = np.flatnonzero(wire)
    src, dst = np.divmod(seg, p)
    return ExchangeSchedule(heights, wire.sum(axis=1), np.bincount(src, minlength=p),
                            wire.sum(axis=0), np.bincount(dst, minlength=p),
                            src, dst, wire.ravel()[seg])


def _execute(plan: ExchangeSchedule, bufs, ledger):
    """Check one exchange of `plan` over the ranks' buffers, each
    buffer's height and the ranks' dtypes and row shapes, then charge the
    ledger."""
    heights = [b.shape[0] for b in bufs]
    if heights != plan.heights:
        if len(heights) != len(plan.heights):
            raise ValueError(f"all_to_allv schedule is for {len(plan.heights)} ranks, "
                             f"not {len(heights)}")
        s = next(s for s, (h, want) in enumerate(zip(heights, plan.heights)) if h != want)
        raise ValueError(f"rank {s}: all_to_allv buffer has {heights[s]} rows but the "
                         f"schedule sends from {plan.heights[s]}")
    row_shapes = {(b.dtype.str, b.shape[1:]) for b in bufs}
    if len(row_shapes) > 1:
        raise ValueError("all_to_allv buffers differ in dtype or row shape: "
                         f"{sorted(row_shapes)}")
    width = 8 * math.prod(bufs[0].shape[1:])
    if width:
        kind = CommLedger._kind(bufs[0])
        ledger.charge("alltoallv", "sent", slice(None), plan.sent_rows * width, kind,
                      plan.sent_msgs)
        ledger.charge("alltoallv", "received", slice(None), plan.received_rows * width, kind,
                      plan.received_msgs)
        ledger.record_pairs(plan.wire_src, plan.wire_dst, plan.wire_rows * width, kind)


@functools.lru_cache(maxsize=256)
def all_reduce_counts(g, size):
    """Each member's share of one all-reduce of `size` elements over a
    group of g, as four read-only int64 arrays indexed by the members'
    positions 0..g-1 in ascending rank order: elements sent, messages
    sent, elements received, messages received. Every step moves whole
    elements, and a step that moves no element is no message. The
    arrays are computed once per (g, size) and shared by its calls.

    When g is a power of two the schedule is recursive halving (a
    reduce-scatter) then recursive doubling (an allgather), 2*log2(g)
    steps. At halving step d = g/2, ..., 1, positions i and i XOR d hold
    the same segment [lo, hi): the lower keeps [lo, lo + (hi-lo)//2) and
    sends the rest, the upper keeps the rest and sends the lower part. At
    doubling step d = 1, ..., g/2 each sends the segment it holds, which
    is the one it kept at halving step d. Otherwise the schedule is the
    ring's 2(g-1) steps: the payload is cut into g chunks as
    `np.array_split` cuts it, and at ring step k position i sends chunk
    (i - k) mod g (reduce-scatter) or chunk (i + 1 - k) mod g (allgather)
    to position (i + 1) mod g. Either way the members send 2(g-1)*size
    elements in all."""
    if g & (g - 1) == 0:
        # before each halving step, sizes holds one segment per set of
        # members sharing it, in position order, and sent and msgs those
        # members' counts so far. A member sends one half of its segment
        # at the halving step and the other half at the doubling step of
        # the same distance, and receives the same: the whole segment
        # each way, in one message per non-empty half, min(size, 2)
        sizes = np.array([size], dtype=np.int64)
        sent, msgs = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        while sizes.size < g:
            sent = np.repeat(sent + sizes, 2)
            msgs = np.repeat(msgs + np.minimum(sizes, 2), 2)
            lower = sizes // 2
            sizes = np.column_stack((lower, sizes - lower)).ravel()
        return _read_only(sent, msgs, sent, msgs)
    pos = np.arange(g)
    chunks = size // g + (pos < size % g)
    held = np.count_nonzero(chunks)
    # the chunks a position does not send in the reduce-scatter and in the
    # allgather
    skip = chunks[(pos + 1) % g], chunks[(pos + 2) % g]
    sent = 2 * size - skip[0] - skip[1]
    msgs = 2 * held - (skip[0] > 0) - (skip[1] > 0)
    # position i receives what position i - 1 sends
    return _read_only(sent, msgs, sent[pos - 1], msgs[pos - 1])


def _read_only(*arrays) -> tuple:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


class Comm:
    """Per-rank communication handle passed to the rank procedure."""

    def __init__(self, runtime: _Runtime, rank: int):
        self._rt = runtime
        self.rank = rank
        self.grid = runtime.grid
        self.p = runtime.grid.p
        self.c = runtime.grid.c
        self.coords = runtime.grid.coords(rank)

    # ---- point to point ----------------------------------------------

    def isend(self, dst, buf, tag=0):
        """Buffered non-blocking send of `buf`; never blocks. The payload
        is copied at call time, so the caller may write to `buf` as soon as
        the call returns."""
        if not 0 <= dst < self.p:
            raise ValueError(f"destination rank {dst} out of range")
        arr = _as_payload(buf).copy()
        rt = self._rt
        key = (self.rank, dst, tag)
        rt.mail.setdefault(key, deque()).append(arr)
        rt.ledger.counters["p2p"]["calls"][self.rank] += 1
        if dst != self.rank:
            nbytes = arr.size * 8
            kind = CommLedger._kind(arr)
            rt.ledger.charge("p2p", "sent", self.rank, nbytes, kind)
            rt.ledger.record_pairs(self.rank, dst, nbytes, kind)
        if rt.blocked.get(dst) == ("recv", self.rank, dst, tag):
            rt._wake((dst,))

    def recv(self, src, tag=0) -> np.ndarray:
        """Blocking receive matching (src, this rank, tag); messages on the
        same key arrive in send order."""
        if not 0 <= src < self.p:
            raise ValueError(f"source rank {src} out of range")
        key = (src, self.rank, tag)
        rt = self._rt
        rt._wait_until(self.rank, lambda: rt.mail.get(key), ("recv", src, self.rank, tag))
        payload = rt.mail[key].popleft()
        if not rt.mail[key]:
            del rt.mail[key]
        rt.ledger.counters["p2p"]["calls"][self.rank] += 1
        if src != self.rank:
            rt.ledger.charge("p2p", "received", self.rank, payload.size * 8,
                             CommLedger._kind(payload))
        return payload

    # ---- collectives --------------------------------------------------

    def _collective(self, kind, group, payload, complete):
        """Rendezvous of every rank in `group`; the last arrival runs
        `complete` exactly once to build the one result every member
        returns and the ledger charges, retires the slot, since every
        member already holds it, and wakes the members parked in it. A
        collective of a ledger primitive charges every member one call.
        No member leaves before the slot is retired, so the group has one
        open collective of a kind at a time: its slot is keyed by (kind,
        group), and the run's `world`'s by `kind` alone, so its members
        hash no p-tuple and scan no group."""
        rt = self._rt
        world = group is rt.world
        if not world and self.rank not in group:
            raise ValueError(f"rank {self.rank} is not in group {group}")
        key = kind if world else (kind, group)
        slot = rt.slots.get(key)
        if slot is None:
            slot = rt.slots[key] = _CollectiveSlot()
        slot.arrivals[self.rank] = payload
        if len(slot.arrivals) == len(group):
            del rt.slots[key]
            try:
                slot.output = complete(slot.arrivals)
                if kind in PRIMITIVES:
                    rt.ledger.counters[kind]["calls"][slice(None) if world else list(group)] += 1
            except Exception as exc:  # propagate to every member
                slot.error = exc
            slot.done = True
            rt._wake(slot.arrivals)
        else:
            rt._wait_until(self.rank, lambda: slot.done, ("collective", kind, group))
        if slot.error is not None:
            raise slot.error
        return slot.output

    def all_to_allv(self, buf, schedule, then):
        """Personalized exchange in MPI_Alltoallv form, run through the
        `ExchangeSchedule` that `plan_all_to_allv` made of its count
        matrix, which every rank passes. Every rank returns its element of
        one result that the last arrival computes for all of them: it
        checks that every buffer has the height the schedule was planned
        for and that all have the same dtype and row shape, charges the
        ledger from the schedule for this call's row width, and calls
        then(bufs) once with every rank's buffer, uncopied, in rank order;
        rank d returns element d of the sequence it returns. A segment of
        no rows is no message and costs nothing, nor does a segment of
        zero-width rows; the segment addressed to the caller itself is a
        free local copy.

        For rank d, a `then` must read only counts[s][d] rows of each
        sender s's buffer, rows that the caller, not the schedule, names
        (see the module docstring), and must not write to them. The
        callables must be interchangeable, and the lowest rank's runs. The
        ledger charges are the exchange's, whatever `then` does, and an
        exception it raises is raised on every rank. The caller may write
        to `buf` as soon as the call returns."""
        arr = _as_payload(buf)
        if arr.ndim == 0:
            raise ValueError("all_to_allv needs a buffer of rows, got a scalar")
        if not isinstance(schedule, ExchangeSchedule):
            raise TypeError("all_to_allv needs the ExchangeSchedule of its exchange "
                            f"(plan_all_to_allv), got {type(schedule).__name__}")
        world = self._rt.world
        ledger = self._rt.ledger

        def complete(arrivals):
            args = [arrivals[s] for s in world]
            plan, then = args[0][1:]
            others = [s for s in world if args[s][1] is not plan]
            if others:
                raise ValueError(f"all_to_allv: ranks {others} pass another schedule than "
                                 "rank 0; every rank must pass the same one")
            bufs = [a[0] for a in args]
            _execute(plan, bufs, ledger)
            return then(bufs)

        return self._collective("alltoallv", world, (arr, schedule, then), complete)[self.rank]

    def broadcast(self, root, buf=None) -> np.ndarray:
        """Every rank returns the root's payload, as one read-only array
        shared by all ranks. Linear accounting: the root is charged (p-1)
        messages of the payload size."""
        if not 0 <= root < self.p:
            raise ValueError(f"broadcast root {root} out of range")
        if self.rank == root and buf is None:
            raise ValueError(f"broadcast root {root} supplied no buffer")
        payload = _as_payload(buf) if self.rank == root else None
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
            return shared

        return self._collective("broadcast", self._rt.world, payload, complete)

    def all_reduce_sum(self, buf, group=None) -> np.ndarray:
        """Elementwise sum over the group, reduced in ascending rank order,
        as one read-only array shared by every member (a copy of the
        payload for a group of one). Every member must send the same dtype
        and shape. Each member is charged the elements and messages it
        sends and receives in the schedule `all_reduce_counts` gives for
        the group size: 2*log2(g) messages each way for a group of a power
        of two, and 2(g-1) in the ring otherwise, less the steps that move
        no element."""
        world = self._rt.world
        group = world if group is None else tuple(sorted(group))
        if group is not world and group == world:
            group = world  # the same collective as a call that names no group
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
            sent, msgs, received, received_msgs = all_reduce_counts(g, total.size)
            members = list(group)
            ledger.charge("allreduce", "sent", members, sent * 8, kind, msgs)
            ledger.charge("allreduce", "received", members, received * 8, kind, received_msgs)
            return total

        return self._collective("allreduce", group, payload, complete)

    def ledger_mark(self, label):
        """Collective; snapshots the global per-primitive totals under
        `label` once every rank has arrived. Charges nothing."""
        ledger = self._rt.ledger

        def complete(arrivals):
            ledger.marks[label] = ledger.snapshot()

        self._collective("mark", self._rt.world, None, complete)


@functools.cache
def _libc():
    """The process's C library as one ctypes handle, loaded once, or None
    where it cannot be loaded."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return None
    for name, argtypes in (("sched_getcpu", ()), ("mallopt", (ctypes.c_int, ctypes.c_int))):
        fn = getattr(libc, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = argtypes, ctypes.c_int
    return libc


def _caller_cpu():
    """The CPU the calling thread is on, or None where threads cannot be
    pinned to it."""
    getcpu = getattr(_libc(), "sched_getcpu", None)
    if getcpu is None or not hasattr(os, "sched_setaffinity"):
        return None
    cpu = getcpu()
    return cpu if cpu in os.sched_getaffinity(0) else None


# glibc's mallopt parameters (malloc.h) and the values of the one-heap rule
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_ONE_HEAP = ((_M_ARENA_MAX, 1), (_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20))
_heap_configured = False


def _configure_heap():
    """Apply the one-heap rule of the module docstring, once per process.
    glibc fixes its arena limit once it has made more than 8 arenas, so
    this must run before the first rank thread exists."""
    global _heap_configured
    if _heap_configured:
        return
    _heap_configured = True
    if "GLIBC_TUNABLES" in os.environ or any(k.startswith("MALLOC_") for k in os.environ):
        return
    libc = _libc()
    if not hasattr(libc, "gnu_get_libc_version") or not hasattr(libc, "mallopt"):
        return
    for param, value in _ONE_HEAP:
        libc.mallopt(param, value)


def _batch_policy():
    """Move the calling thread to SCHED_BATCH where the platform has it
    and allows it; otherwise leave its policy as it is. A woken batch
    thread does not preempt the thread that woke it."""
    if not hasattr(os, "sched_setscheduler") or not hasattr(os, "SCHED_BATCH"):
        return
    try:
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))  # this thread only
    except OSError:
        pass


@functools.cache
def _openblas():
    """The thread-count getter and setter of numpy's bundled OpenBLAS
    (numpy.libs/libscipy_openblas64_*.so, the library numpy has already
    loaded), or None where numpy bundles no such library or it lacks
    them: a numpy built on another BLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        put.argtypes, put.restype = (ctypes.c_int,), None
        return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread, and
    restore its previous thread count after, also when the body raises.
    Only one rank runs at a time, so more BLAS threads only spend CPU,
    and a dense product's last bits may change with their count. Where
    numpy bundles no OpenBLAS (`_openblas`), the BLAS is left as it is,
    and a product's bits may then depend on its thread count."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


@dataclass
class RunResult:
    results: list
    ledger: CommLedger
    grid: ProcessGrid


def run_program(p, c, program, args=()) -> RunResult:
    """Run `program(comm, *args)` on every rank of a (p/c) x c grid to
    completion and return the per-rank results and the ledger.

    The run's dense products use one BLAS thread (`_one_blas_thread`),
    so their bits do not depend on the caller's thread count.

    Raises DeadlockError when every live rank is blocked with no message
    in flight that could wake it (the report names the blocked ranks and
    their pending operations), and SimulationError when messages are left
    undelivered at program end. Exceptions inside a rank propagate.
    """
    grid = ProcessGrid(p, c)
    _configure_heap()
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
            _batch_policy()
            results[rank] = program(comm, *args)
        except _Abort:
            pass
        except BaseException as exc:  # noqa: BLE001 - re-raised by run_program
            # whatever ends the rank, the baton must move on or every
            # other rank stalls
            error = exc
        rt.finish(rank, error)

    threads = [threading.Thread(target=runner, args=(r,), name=f"rank-{r}") for r in range(p)]
    with _one_blas_thread():
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
