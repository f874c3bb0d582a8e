"""Deterministic bulk-synchronous host for P virtual processes.

Every rank runs the same procedure against a Comm handle offering
non-blocking sends, blocking tagged receives, and the collectives used by
the distributed kernels. Ranks execute on real threads, but all observable
behavior is schedule-independent: point-to-point messages are matched
FIFO per (src, dst, tag), collectives act as barriers and reduce in
ascending rank order, and every ledger charge is a pure function of the
program. Two runs of the same program on the same inputs produce
bit-identical results and ledgers.

Payloads are numpy arrays of float64 (dense data) or int64 (index lists);
either way a payload of m elements is charged as 8*m bytes. Accounting
conventions: point-to-point and all-to-all charge exactly the payload
bytes between distinct ranks (self-addressed payloads are local copies and
cost nothing); broadcast charges the root (p-1) times the payload;
all-reduce charges every group member 2*(g-1)/g times the payload, the
ring schedule cost, which may be fractional. The conventions live in this
module only, so swapping them does not touch the algorithms.
"""

from __future__ import annotations

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
    charge fractional bytes; message counters are integers. `pair_max_*`
    record the largest single message per ordered (src, dst) pair;
    `marks` hold global totals snapshotted at program-defined points.
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
        self.pair_max_bytes = {}
        self.pair_max_data_bytes = {}
        self.marks = {}

    @staticmethod
    def _kind(payload) -> str:
        return "data" if payload.dtype == np.float64 else "index"

    def charge_send(self, prim, rank, nbytes, kind, msgs=1):
        c = self.counters[prim]
        c["bytes_sent"][rank] += nbytes
        c[f"{kind}_bytes_sent"][rank] += nbytes
        c["msgs_sent"][rank] += msgs
        c[f"{kind}_msgs_sent"][rank] += msgs

    def charge_recv(self, prim, rank, nbytes, kind, msgs=1):
        c = self.counters[prim]
        c["bytes_received"][rank] += nbytes
        c[f"{kind}_bytes_received"][rank] += nbytes
        c["msgs_received"][rank] += msgs
        c[f"{kind}_msgs_received"][rank] += msgs

    def note_pair(self, src, dst, nbytes, kind):
        key = (src, dst)
        if nbytes > self.pair_max_bytes.get(key, 0):
            self.pair_max_bytes[key] = nbytes
        if kind == "data" and nbytes > self.pair_max_data_bytes.get(key, 0):
            self.pair_max_data_bytes[key] = nbytes

    def add_call(self, prim, rank):
        self.counters[prim]["calls"][rank] += 1

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

    def rank_msgs(self, rank) -> int:
        return int(sum(self.counters[prim]["msgs_sent"][rank]
                       + self.counters[prim]["msgs_received"][rank]
                       for prim in PRIMITIVES))

    def max_pair_data_bytes(self) -> float:
        return max(self.pair_max_data_bytes.values(), default=0.0)

    def conservation_ok(self) -> bool:
        for prim in PRIMITIVES:
            c = self.counters[prim]
            if float(c["bytes_sent"].sum()) != float(c["bytes_received"].sum()):
                return False
        return True

    def snapshot(self) -> dict:
        snap = {}
        for prim in PRIMITIVES:
            c = self.counters[prim]
            snap[prim] = {
                "bytes_sent": float(c["bytes_sent"].sum()),
                "data_bytes_sent": float(c["data_bytes_sent"].sum()),
                "index_bytes_sent": float(c["index_bytes_sent"].sum()),
                "msgs_sent": int(c["msgs_sent"].sum()),
            }
        return snap

    def to_dict(self) -> dict:
        per_rank = {}
        for prim in PRIMITIVES:
            per_rank[prim] = {name: arr.tolist() for name, arr in
                              sorted(self.counters[prim].items())}
        return {
            "p": self.p,
            "per_rank": per_rank,
            "totals": self.totals(),
            "pair_max_bytes": {f"{s}->{d}": v for (s, d), v in
                               sorted(self.pair_max_bytes.items())},
            "pair_max_data_bytes": {f"{s}->{d}": v for (s, d), v in
                                    sorted(self.pair_max_data_bytes.items())},
            "marks": {str(k): v for k, v in self.marks.items()},
        }


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
    def __init__(self, grid: ProcessGrid):
        self.grid = grid
        self.cond = threading.Condition()
        self.mail = {}
        self.slots = {}
        self.ledger = CommLedger(grid.p)
        self.alive = grid.p
        self.waiting = 0
        self.blocked = {}
        self.deadlock = None
        self.program_error = None

    def _stuck(self) -> bool:
        """True when every live rank is parked on a predicate that is
        false right now. A woken-but-unscheduled rank has a true
        predicate, so it does not count as stuck."""
        if self.waiting != self.alive or self.alive == 0:
            return False
        return not any(pred() for _, pred in self.blocked.values())

    def _wait_until(self, rank, predicate, info):
        # caller holds self.cond
        while True:
            if self.deadlock is not None or self.program_error is not None:
                raise _Abort()
            if predicate():
                return
            self.blocked[rank] = (info, predicate)
            self.waiting += 1
            if self._stuck():
                self.deadlock = DeadlockError({r: i for r, (i, _) in self.blocked.items()})
                self.waiting -= 1
                del self.blocked[rank]
                self.cond.notify_all()
                raise _Abort()
            self.cond.wait()
            self.waiting -= 1
            del self.blocked[rank]

    def finish(self, rank, error=None):
        with self.cond:
            self.alive -= 1
            if error is not None and self.program_error is None:
                self.program_error = (rank, error)
            if self.deadlock is None and self.program_error is None and self._stuck():
                self.deadlock = DeadlockError({r: i for r, (i, _) in self.blocked.items()})
            self.cond.notify_all()


def _as_payload(buf) -> np.ndarray:
    if buf is None:
        return np.zeros(0, dtype=np.float64)
    arr = np.asarray(buf)
    if arr.dtype not in (np.dtype(np.float64), np.dtype(np.int64)):
        raise TypeError(f"payloads must be float64 or int64, got {arr.dtype}")
    return arr.copy()


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
        arr = _as_payload(payload)
        rt = self._rt
        with rt.cond:
            rt.mail.setdefault((self.rank, dst, tag), deque()).append(arr)
            if dst != self.rank:
                nbytes = arr.size * 8
                kind = CommLedger._kind(arr)
                rt.ledger.charge_send("p2p", self.rank, nbytes, kind)
                rt.ledger.note_pair(self.rank, dst, nbytes, kind)
            rt.cond.notify_all()

    def recv(self, src, tag=0) -> np.ndarray:
        """Blocking receive matching (src, this rank, tag); messages on the
        same key arrive in send order."""
        if not 0 <= src < self.p:
            raise ValueError(f"source rank {src} out of range")
        key = (src, self.rank, tag)
        rt = self._rt
        with rt.cond:
            rt._wait_until(self.rank, lambda: rt.mail.get(key),
                           ("recv", src, self.rank, tag))
            payload = rt.mail[key].popleft()
            if not rt.mail[key]:
                del rt.mail[key]
            if src != self.rank:
                rt.ledger.charge_recv("p2p", self.rank, payload.size * 8,
                                      CommLedger._kind(payload))
        return payload

    # ---- collectives --------------------------------------------------

    def _collective(self, kind, group, payload, complete):
        """Rendezvous of every rank in `group`; the last arrival runs
        `complete` exactly once to produce all outputs and ledger charges."""
        if self.rank not in group:
            raise ValueError(f"rank {self.rank} is not in group {group}")
        seq = self._seq.get((kind, group), 0)
        self._seq[(kind, group)] = seq + 1
        key = (kind, group, seq)
        rt = self._rt
        with rt.cond:
            slot = rt.slots.get(key)
            if slot is None:
                slot = rt.slots[key] = _CollectiveSlot(len(group))
            slot.arrivals[self.rank] = payload
            if len(slot.arrivals) == len(group):
                try:
                    slot.outputs = complete(slot.arrivals)
                except Exception as exc:  # propagate to every member
                    slot.error = exc
                slot.done = True
                rt.cond.notify_all()
            else:
                rt._wait_until(self.rank, lambda: slot.done,
                               ("collective", kind, group, seq))
            slot.remaining -= 1
            if slot.remaining == 0:
                del rt.slots[key]
            if slot.error is not None:
                raise slot.error
            return slot.outputs[self.rank]

    def all_to_allv(self, send_bufs) -> list:
        """Personalized exchange: element d of send_bufs goes to rank d;
        the result lists received payloads in sender-rank order. Empty
        payloads are allowed and cost nothing."""
        if len(send_bufs) != self.p:
            raise ValueError(f"need one send buffer per rank, got {len(send_bufs)}")
        payload = [_as_payload(b) for b in send_bufs]
        group = tuple(range(self.p))
        ledger = self._rt.ledger

        def complete(arrivals):
            outputs = {}
            for r in group:
                ledger.add_call("alltoallv", r)
                outputs[r] = [arrivals[s][r] for s in group]
            for s in group:
                for d in group:
                    arr = arrivals[s][d]
                    if s == d or arr.size == 0:
                        continue
                    nbytes = arr.size * 8
                    kind = CommLedger._kind(arr)
                    ledger.charge_send("alltoallv", s, nbytes, kind)
                    ledger.charge_recv("alltoallv", d, nbytes, kind)
                    ledger.note_pair(s, d, nbytes, kind)
            return outputs

        return self._collective("alltoallv", group, payload, complete)

    def broadcast(self, root, buf=None) -> np.ndarray:
        """Every rank returns the root's payload. Linear accounting: the
        root is charged (p-1) messages of the payload size."""
        if not 0 <= root < self.p:
            raise ValueError(f"broadcast root {root} out of range")
        payload = _as_payload(buf) if self.rank == root else None
        group = tuple(range(self.p))
        ledger = self._rt.ledger

        def complete(arrivals):
            arr = arrivals[root]
            if arr is None:
                raise ValueError(f"broadcast root {root} supplied no buffer")
            nbytes = arr.size * 8
            kind = CommLedger._kind(arr)
            outputs = {}
            for r in group:
                ledger.add_call("broadcast", r)
                outputs[r] = arr if r == root else arr.copy()
                if r != root:
                    ledger.charge_recv("broadcast", r, nbytes, kind)
                    ledger.note_pair(root, r, nbytes, kind)
            if self.p > 1:
                ledger.charge_send("broadcast", root, nbytes * (self.p - 1), kind,
                                   msgs=self.p - 1)
            return outputs

        return self._collective("broadcast", group, payload, complete)

    def all_reduce_sum(self, buf, group=None) -> np.ndarray:
        """Elementwise sum over the group, reduced in ascending rank order
        so every member returns a bit-identical array. Ring accounting:
        each member moves 2*(g-1)/g of the payload in each direction."""
        group = tuple(range(self.p)) if group is None else tuple(sorted(group))
        payload = _as_payload(buf)
        ledger = self._rt.ledger

        def complete(arrivals):
            shapes = {arrivals[r].shape for r in group}
            if len(shapes) > 1:
                raise ValueError(f"all_reduce_sum payload shapes differ: {sorted(shapes)}")
            total = arrivals[group[0]].copy()
            for r in group[1:]:
                total = total + arrivals[r]
            g = len(group)
            nbytes = total.size * 8
            kind = CommLedger._kind(total)
            wire = 2.0 * (g - 1) / g * nbytes if g > 1 else 0.0
            msgs = 2 * (g - 1)
            outputs = {}
            for r in group:
                ledger.add_call("allreduce", r)
                outputs[r] = total.copy()
                if g > 1:
                    ledger.charge_send("allreduce", r, wire, kind, msgs=msgs)
                    ledger.charge_recv("allreduce", r, wire, kind, msgs=msgs)
            return outputs

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

    def runner(rank):
        comm = Comm(rt, rank)
        try:
            results[rank] = program(comm, *args)
        except _Abort:
            pass
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            rt.finish(rank, error=exc)
            return
        rt.finish(rank)

    threads = [threading.Thread(target=runner, args=(r,), name=f"rank-{r}") for r in range(p)]
    for t in threads:
        t.start()
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
