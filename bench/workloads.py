"""Workloads, correctness checks and metrics of the distgcn benchmark.

Each workload builds its inputs from the seed, partitions them and trains
a three-level GCN over the simulated runtime. A run measures three kinds
of end-to-end quantity:

- host cost: set-up (partitioner included) and training CPU time, and
  the process's peak resident memory;
- simulated traffic per epoch, read from the runtime's ledger: exact;
- partition quality (send rows of one aware multiply): exact.

Every output is checked against the serial oracle and against itself:
a run that fails a check is counted in `failed`, never averaged in.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import distgcn.gcn
import distgcn.graphgen
import distgcn.partition
import distgcn.sparse
from distgcn.gcn import TrainConfig
from distgcn.runtime import PRIMITIVES

from tracing import Tracer

# CLI defaults: spmm-bench's alpha-beta parameters and the partitioners'
# balance slack. The refiner runs with lambda_max = k, its own default.
ALPHA = 1e-6
BETA = 1e-9
EPSILON = 0.10
LOSS_RTOL = 1e-9
MODEL = dict(layers=3, hidden=16, lr=0.01)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `instances` graphs are drawn per run (seeded from the run's seed) and
    each is generated once; set-up and quality figures are medians over
    them, since partitioner time and quality vary with the graph. The
    set-up chain is timed `setup_repeats` times per graph. The first graph
    is also trained, in calls of `epochs` epochs each, for `--seconds` of
    wall time in all.
    """

    name: str
    generator: str
    gen_args: dict
    k: int
    partitioner: str  # "block", "greedy-tv" or "gvb", as the CLI names them
    variant: str
    p: int
    c: int
    epochs: int
    instances: int
    setup_repeats: int = 1
    feature_dim: int = 0
    classes: int = 0


WORKLOADS = {w.name: w for w in (
    Workload(
        "train-1d-p32",
        "sbm", dict(n=4000, blocks=4, p_in=0.01, p_out=0.0005, feature_dim=64),
        k=32, partitioner="greedy-tv", variant="1d-sparse", p=32, c=1, epochs=2,
        instances=4),
    Workload(
        "train-15d-p8c2",
        "sbm", dict(n=8000, blocks=4, p_in=0.005, p_out=0.00025, feature_dim=128),
        k=4, partitioner="block", variant="15d-sparse", p=8, c=2, epochs=4, instances=3,
        setup_repeats=5),
    Workload(
        "partition-gvb-star",
        "star_augmented", dict(n=4000),
        k=16, partitioner="gvb", variant="1d-sparse", p=16, c=1, epochs=4, instances=2,
        feature_dim=16, classes=4),
)}


class Checker:
    """Counts checked operations and the ones that failed any check."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self._log = log

    def check(self, what, conditions):
        """`conditions` maps a description to a bool; all must hold."""
        self.attempted += 1
        broken = [desc for desc, ok in conditions.items() if not ok]
        if broken:
            self.failed += 1
            self._log(f"FAILED {what}: " + "; ".join(broken))
        return not broken


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


@dataclass
class Instance:
    """One generated graph, its partition and its one-time costs."""

    seed: int
    a_hat: object
    features: np.ndarray
    labels: np.ndarray
    mask: np.ndarray
    start: object  # greedy-tv partition
    part: object  # final partition
    quality: dict
    gen_s: float
    partition_digests: list = field(default_factory=list)
    setup_samples: list = field(default_factory=list)
    train0: object = None  # train(epochs=0): the one-time set-up traffic
    train0_digests: list = field(default_factory=list)

    def fingerprint(self) -> str:
        return _digest(self.partition_digests[0], self.train0_digests[0])


def instance_seeds(w: Workload, seed: int):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(w.instances)]


def _timed(fn, *args, **kwargs):
    """Result, process CPU seconds (all threads) and wall seconds of one
    call. Host cost is reported in CPU time: on a shared virtual machine
    the hypervisor takes the CPUs away for stretches of many seconds,
    which inflates wall time but not the CPU time the program uses."""
    c0, w0 = time.process_time(), time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.process_time() - c0, time.perf_counter() - w0


def train_config(w: Workload, seed: int, epochs: int) -> TrainConfig:
    return TrainConfig(epochs=epochs, seed=seed, variant=w.variant, **MODEL)


def train_call(w: Workload, inst: Instance, epochs: int):
    cfg = train_config(w, inst.seed, epochs)
    return _timed(distgcn.gcn.train, inst.a_hat, inst.features, inst.labels, inst.mask,
                  cfg, p=w.p, c=w.c, partition=inst.part)


@dataclass
class Graph:
    seed: int
    a: object
    features: np.ndarray
    labels: np.ndarray
    gen_s: float


def generate(w: Workload, seed: int) -> Graph:
    """Draw one input graph. Module attributes are looked up at call time,
    here and below, so a traced run sees its wrappers."""
    if w.generator == "sbm":
        (a, features, labels), gen_s, _ = _timed(distgcn.graphgen.sbm, seed=seed, **w.gen_args)
    else:
        a, gen_s, _ = _timed(distgcn.graphgen.star_augmented, seed=seed, **w.gen_args)
        # the hub graph has no attributes: draw features and labels from the seed
        features = distgcn.graphgen.gaussian_features(a.n_rows, w.feature_dim, seed)
        labels = np.random.default_rng(seed).integers(0, w.classes, a.n_rows)
    return Graph(seed, a, features, labels, gen_s)


def _partition(w: Workload, a_hat):
    """The workload's partitioner, as `distgcn partition` runs it; returns
    the starting partition (greedy-tv's, for gvb) and the final one."""
    if w.partitioner == "block":
        start = distgcn.partition.block_partition(a_hat.n_rows, w.k)
        return start, start
    start = distgcn.partition.greedy_tv_partition(a_hat, w.k, EPSILON)
    if w.partitioner == "greedy-tv":
        return start, start
    return start, distgcn.partition.volume_balanced_refine(a_hat, start, float(w.k), EPSILON)


def _quality(a_hat, start, part) -> dict:
    metrics = distgcn.partition.comm_metrics(a_hat, part, 1)
    cut = distgcn.partition.edgecut(a_hat, part)
    return {"send_rows_total": int(metrics.total_rows),
            "send_rows_max": float(metrics.max_rows),
            "edgecut": int(cut),
            "moved_vertices": int(np.count_nonzero(part.assignment != start.assignment))}


def prepare(w: Workload, graph: Graph, repeats: int) -> Instance:
    """Normalize and partition one graph, measure the partition, then run
    train(epochs=0): permutation, block layout and the index exchange.
    Set-up (all but the partition measurement) is timed `repeats` times."""
    inst = None
    for _ in range(repeats):
        a_hat, normalize_s, _ = _timed(distgcn.sparse.gcn_normalize, graph.a)
        (start, part), partitioner_s, _ = _timed(_partition, w, a_hat)
        quality = _quality(a_hat, start, part)
        if inst is None:
            inst = Instance(graph.seed, a_hat, graph.features, graph.labels,
                            np.ones(a_hat.n_rows, dtype=bool), start, part, quality,
                            graph.gen_s)
        train0, train0_s, _ = train_call(w, inst, 0)
        if inst.train0 is None:
            inst.train0 = train0
        inst.setup_samples.append(normalize_s + partitioner_s + train0_s)
        inst.partition_digests.append(_digest(part.assignment.tobytes(), quality))
        inst.train0_digests.append(_train_digest(train0))
    return inst


def _part_weights(a_hat, part):
    """Per-part vertex weights as the partitioners balance them: the
    undirected off-diagonal degree, at least 1."""
    n = a_hat.n_rows
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(a_hat.row_ptr))
    cols = a_hat.col_idx
    off = rows != cols
    pairs = np.unique(np.concatenate([rows[off] * n + cols[off], cols[off] * n + rows[off]]))
    weight = np.maximum(np.bincount(pairs // n, minlength=n), 1)
    cap = max((1.0 + EPSILON) * weight.sum() / part.k, float(weight.max()))
    return np.bincount(part.assignment, weights=weight, minlength=part.k), cap


def check_instance(w: Workload, inst: Instance, checker: Checker):
    part = inst.part
    try:
        part.validate()
        valid = True
    except ValueError:
        valid = False
    conditions = {"Partition.validate() passes": valid, "partition has k parts": part.k == w.k}
    if w.partitioner == "gvb":
        lam = float(w.k)
        before = distgcn.partition.comm_metrics(inst.a_hat, inst.start, 1)
        score_before = before.total_rows + lam * before.max_rows
        score_after = inst.quality["send_rows_total"] + lam * inst.quality["send_rows_max"]
        weights, cap = _part_weights(inst.a_hat, part)
        conditions["refined parts respect the balance cap"] = bool(weights.max() <= cap)
        conditions["refined total + lambda*max <= greedy-tv's"] = score_after <= score_before
    checker.check(f"partition of instance {inst.seed}", conditions)
    _check_train(w, inst.train0, 0, None, checker, f"train(epochs=0) of instance {inst.seed}")
    checker.check(f"repeated set-up of instance {inst.seed}", {
        "partition and quality repeat bit for bit": len(set(inst.partition_digests)) == 1,
        "train(epochs=0) repeats bit for bit": len(set(inst.train0_digests)) == 1})


def _train_digest(res) -> str:
    return _digest([row["loss"] for row in res.history], res.ledger.to_dict(),
                   b"".join(wt.tobytes() for wt in res.weights))


def _check_train(w, res, epochs, oracle, checker, what):
    losses = res.losses
    conditions = {
        "one history row per epoch": len(res.history) == epochs,
        "weights bit-identical on every rank": all(
            all(np.array_equal(x, y) for x, y in zip(ws, res.weights_per_rank[0]))
            for ws in res.weights_per_rank),
        "ledger conserves bytes": res.ledger.conservation_ok(),
        "ledger p matches the grid": res.ledger.p == w.p,
    }
    if oracle is not None:
        ref = oracle.losses
        conditions[f"losses match serial_train within {LOSS_RTOL:g} relative"] = (
            losses.shape == ref.shape
            and bool(np.all(np.abs(losses - ref) <= LOSS_RTOL * np.abs(ref))))
    return checker.check(what, conditions)


def _rank_sent(ledger, field):
    return sum(ledger.counters[prim][field].astype(np.float64) for prim in PRIMITIVES)


def traffic_metrics(train0, trained, epochs) -> dict:
    """Per-epoch traffic from two ledgers: the timed call's minus the
    one-time set-up of train(epochs=0), divided by the epoch count."""
    le, l0 = trained.ledger, train0.ledger
    data = (_rank_sent(le, "data_bytes_sent") - _rank_sent(l0, "data_bytes_sent")) / epochs
    nbytes = (_rank_sent(le, "bytes_sent") - _rank_sent(l0, "bytes_sent")) / epochs
    msgs = (_rank_sent(le, "msgs_sent") - _rank_sent(l0, "msgs_sent")) / epochs
    return {
        "data_bytes_per_epoch": float(data.sum()),
        "bottleneck_bytes_per_epoch": float(data.max()),
        "msgs_per_epoch": float(msgs.sum()),
        "index_bytes_setup": float(l0.total_bytes_sent("index")),
        "modeled_comm_s_per_epoch": float(np.max(ALPHA * msgs + BETA * nbytes / 8.0)),
    }


def ledger_layer_metrics(train0, trained, epochs) -> dict:
    out = {}
    for prim in ("p2p", "alltoallv", "allreduce"):
        ce, c0 = trained.ledger.counters[prim], train0.ledger.counters[prim]
        for key, field in (("data_bytes", "data_bytes_sent"), ("msgs", "msgs_sent"),
                           ("calls", "calls")):
            out[f"runtime.ledger.{prim}.{key}"] = float(
                (ce[field].sum() - c0[field].sum()) / epochs)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, w: Workload, seed: int, seconds: float, log):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.checker = Checker(log)
        self.info = {}
        self.tracers = []  # traced set-up and the last traced training call

    def _prepare(self, seed):
        inst = prepare(self.w, generate(self.w, seed), self.w.setup_repeats)
        check_instance(self.w, inst, self.checker)
        return inst

    def _oracle(self, inst):
        cfg = train_config(self.w, inst.seed, self.w.epochs)
        return distgcn.gcn.serial_train(inst.a_hat, inst.features, inst.labels, inst.mask,
                                        cfg)

    def _timed_train(self, inst, oracle, reference, tracer=None):
        """One timed train(epochs) call, checked against the oracle and
        against the first call's losses, ledger and weights."""
        w = self.w
        if tracer is None:
            res, cpu, wall = train_call(w, inst, w.epochs)
        else:
            with tracer.installed():
                res, cpu, wall = train_call(w, inst, w.epochs)
        _check_train(w, res, w.epochs, oracle, self.checker,
                     f"train(epochs={w.epochs}){' traced' if tracer else ''}")
        digest = _train_digest(res)
        if reference:
            self.checker.check("exact repeat", {
                "losses, ledger and weights repeat bit for bit": digest == reference[0]})
        else:
            reference.append(digest)
        return res, cpu, wall

    def measure(self) -> dict:
        """Untraced run: every end-to-end metric."""
        w = self.w
        seeds = instance_seeds(w, self.seed)
        main = self._prepare(seeds[0])
        insts = [main]
        oracle = self._oracle(main)
        reference, cpus, walls = [], [], []
        # training calls alternate with the set-up of the other graphs, so
        # every median samples the whole run, not one stretch of it; then
        # training goes on until it has taken --seconds of wall time
        while len(insts) < len(seeds) or sum(walls) < self.seconds:
            res, cpu, wall = self._timed_train(main, oracle, reference)
            cpus.append(cpu)
            walls.append(wall)
            if len(insts) < len(seeds):
                insts.append(self._prepare(seeds[len(insts)]))
        metrics = {
            "epochs_per_cpu_s": statistics.median(w.epochs / c for c in cpus),
            "setup_s": statistics.median(x for i in insts for x in i.setup_samples),
            **traffic_metrics(main.train0, res, w.epochs),
            "send_rows_total": statistics.median(i.quality["send_rows_total"] for i in insts),
            "send_rows_max": statistics.median(i.quality["send_rows_max"] for i in insts),
            "peak_rss_mb": peak_rss_mb(),
        }
        self.info.update({
            "instance_seeds": [i.seed for i in insts],
            "nnz": [i.a_hat.nnz for i in insts],
            "train_calls": len(cpus),
            "epochs_per_cpu_s_samples": [w.epochs / c for c in cpus],
            "epochs_per_wall_s_samples": [w.epochs / x for x in walls],
            "setup_s_samples": [i.setup_samples for i in insts],
            "gen_s_samples": [i.gen_s for i in insts],
            "quality": [i.quality for i in insts],
        })
        return metrics

    def measure_traced(self) -> dict:
        """Traced run: every per-layer metric, for the first instance.

        The instance is prepared once untraced and once traced, then the
        time box alternates untraced and traced training calls, so the
        tracing overhead is measured on the same inputs and every exact
        result is compared between the two.
        """
        w = self.w
        seed = instance_seeds(w, self.seed)[0]
        plain = self._prepare(seed)
        setup = Tracer(alloc=True)
        with setup.installed():
            inst = prepare(w, generate(w, seed), 1)
        check_instance(w, inst, self.checker)
        self.checker.check("traced set-up", {
            "partition, quality and train(epochs=0) match the untraced run":
                inst.fingerprint() == plain.fingerprint()})
        oracle = self._oracle(inst)
        reference, plain_rates, traced_rates, epoch_layers = [], [], [], []
        deadline = time.perf_counter() + self.seconds
        while not traced_rates or time.perf_counter() < deadline:
            res, cpu, _ = self._timed_train(inst, oracle, reference)
            plain_rates.append(w.epochs / cpu)
            tracer = Tracer()
            traced_res, cpu, _ = self._timed_train(inst, oracle, reference, tracer)
            traced_rates.append(w.epochs / cpu)
            self._cross_check(tracer, traced_res)
            epoch_layers.append(epoch_layer_metrics(tracer, w))
        metrics = {name: statistics.median(m[name] for m in epoch_layers)
                   for name in epoch_layers[0]}
        metrics.update(setup_layer_metrics(setup, w))
        metrics.update(ledger_layer_metrics(inst.train0, res, w.epochs))
        metrics["partition.gvb.moved_vertices"] = float(inst.quality["moved_vertices"])
        metrics["partition.edgecut.value"] = float(inst.quality["edgecut"])
        untraced, traced = statistics.median(plain_rates), statistics.median(traced_rates)
        metrics["trace.epochs_per_cpu_s_untraced"] = untraced
        metrics["trace.epochs_per_cpu_s_traced"] = traced
        metrics["trace.overhead_share"] = (untraced - traced) / untraced
        self.tracers = [setup, tracer]
        self.info.update({
            "instance_seeds": [seed],
            "nnz": [inst.a_hat.nnz],
            "train_calls": 2 * len(traced_rates),
            "spans_per_traced_call": len(tracer.spans),
            "spans_setup": len(setup.spans),
        })
        return metrics

    def _cross_check(self, tracer, res):
        """Traced call counts against the ledger's own counters, so that a
        wrapper the program bypasses shows up as a mismatch."""
        counters = res.ledger.counters

        def count(name, off_rank=False):
            spans = tracer.named(name)
            return sum(1 for s in spans if not off_rank or s.arg != s.rank)

        self.checker.check("traced calls match the ledger", {
            "all_to_allv spans == ledger alltoallv calls":
                count("runtime.all_to_allv") == int(counters["alltoallv"]["calls"].sum()),
            "broadcast spans == ledger broadcast calls":
                count("runtime.broadcast") == int(counters["broadcast"]["calls"].sum()),
            "all_reduce_sum spans == ledger allreduce calls":
                count("runtime.all_reduce_sum") == int(counters["allreduce"]["calls"].sum()),
            "isend spans to other ranks == ledger p2p messages sent":
                count("runtime.isend", True) == int(counters["p2p"]["msgs_sent"].sum()),
            "recv spans from other ranks == ledger p2p messages received":
                count("runtime.recv", True) == int(counters["p2p"]["msgs_received"].sum()),
            "one rank root span per rank":
                len(tracer.named("gcn.rank_program")) == self.w.p,
        })


def epoch_layer_metrics(tracer: Tracer, w: Workload) -> dict:
    """Per-epoch layer figures of one traced train(epochs) call, from the
    rank-thread spans that follow the one-time index exchange."""
    e, p = w.epochs, w.p
    out = {}

    def spans(name):
        return tracer.named(name, epoch_only=True)

    def add(prefix, name, *fields):
        ss = spans(name)
        values = {
            "calls": lambda: len(ss),
            "cpu_s": lambda: sum(s.cpu for s in ss),
            "wait_s": lambda: sum(s.wall - s.cpu for s in ss),
            "rank_s": lambda: sum(s.wall for s in ss) / p,
            "self_cpu_s": lambda: sum(s.cpu for s in ss) - tracer.child_cpu(ss),
            "flops": lambda: sum(s.arg for s in ss),
        }
        for f in fields:
            out[f"{prefix}.{f}"] = values[f]() / e

    add("sparse.local_spmm", "sparse.local_spmm", "calls", "cpu_s", "wait_s", "flops")
    add("sparse.gemm", "sparse.gemm", "calls", "cpu_s")
    add("spmm.spmm_kernel", "spmm.spmm_kernel", "calls", "rank_s", "self_cpu_s")
    add("runtime.all_to_allv", "runtime.all_to_allv", "calls", "cpu_s", "wait_s")
    add("runtime.isend", "runtime.isend", "calls", "cpu_s")
    add("runtime.recv", "runtime.recv", "calls", "cpu_s", "wait_s")
    add("runtime.all_reduce_sum", "runtime.all_reduce_sum", "calls", "cpu_s", "wait_s")
    add("runtime.ledger_mark", "runtime.ledger_mark", "wait_s")

    roots = tracer.named("gcn.rank_program")
    wall = sum(s.wall for s in roots)
    out["runtime.wait_share"] = sum(s.wall - s.cpu for s in roots) / wall

    # one epoch runs the forward phases, then the backward ones
    phases = 2 * (MODEL["layers"] - 1)
    fwd = bwd = 0.0
    kernels = spans("spmm.spmm_kernel")
    for rank in range(p):
        mine = sorted((s for s in kernels if s.rank == rank), key=lambda s: s.wall0)
        for idx, s in enumerate(mine):
            if idx % phases < phases // 2:
                fwd += s.wall
            else:
                bwd += s.wall
    out["gcn.fwd_spmm.rank_s"] = fwd / p / e
    out["gcn.bwd_spmm.rank_s"] = bwd / p / e
    root_ids = {s.span_id for s in roots}
    weight_reduce = [s for s in spans("runtime.all_reduce_sum") if s.parent in root_ids]
    out["gcn.weight_allreduce.rank_s"] = sum(s.wall for s in weight_reduce) / p / e
    train = tracer.named("gcn.train")
    self_cpu = (sum(s.cpu for s in train) - tracer.child_cpu(train)
                + sum(s.cpu for s in roots) - tracer.child_cpu(roots))
    out["gcn.train.self_cpu_s"] = self_cpu / e
    out["gcn.spmm_phases_per_epoch"] = len(kernels) / p / e
    return out


def setup_layer_metrics(tracer: Tracer, w: Workload) -> dict:
    """Figures of the one-time layers, from one traced prepare(). These run
    on the driving thread alone, so `.s` is that thread's CPU time."""
    def total(name):
        return sum(s.cpu for s in tracer.named(name))

    def alloc(name):
        return max((s.arg for s in tracer.named(name)), default=0.0)

    return {
        "sparse.gcn_normalize.s": total("sparse.gcn_normalize"),
        "sparse.transpose_csr.calls": float(len(tracer.named("sparse.transpose_csr"))),
        "sparse.transpose_csr.s": total("sparse.transpose_csr"),
        "spmm.build_dist_matrices.s": total("spmm.build_dist_matrices"),
        "spmm.build_dist_matrices.alloc_mb": alloc("spmm.build_dist_matrices"),
        "spmm.exchange_index_lists.rank_s":
            sum(s.wall for s in tracer.named("spmm.exchange_index_lists")) / w.p,
        "partition.greedy_tv_partition.s": total("partition.greedy_tv_partition"),
        "partition.apply_partition.s": total("partition.apply_partition"),
        "partition.volume_balanced_refine.s": total("partition.volume_balanced_refine"),
        "partition.comm_metrics.s": total("partition.comm_metrics"),
        "partition.edgecut.s": total("partition.edgecut"),
        "graphgen.sbm.s": total("graphgen.sbm"),
        "graphgen.sbm.alloc_mb": alloc("graphgen.sbm"),
        "graphgen.star_augmented.s": total("graphgen.star_augmented"),
        "graphgen.star_augmented.alloc_mb": alloc("graphgen.star_augmented"),
    }
