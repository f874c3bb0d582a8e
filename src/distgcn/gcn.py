"""Full-batch GCN training, serial and distributed.

A network with `layers` levels of node representations owns layers-1
weight matrices. One epoch runs, per weight layer, one distributed
multiply in the forward direction and one in the backward direction
(2*(layers-1) collective multiply phases in total) plus one small
all-reduce of every weight layer's gradient at once, over the rank's
column group: the gradients are bucketed, as in PyTorch DDP or
Horovod's tensor fusion, so an epoch pays one reduction's latency
whatever its depth, and the sum, elementwise in ascending rank order,
has the bits of the per-layer sums. No layer's update is needed before
the backward pass ends, since each layer's input gradient uses the
weights of the epoch's start. Layer 0's forward product
ÂᵀX depends only on the fixed features, so a training call with epochs
to run makes every rank's part of it once, before the run, on the calling
thread (`DistOperand.product`): every epoch still runs and charges that
phase's exchange (and its row all-reduce when c > 1), which hands back
the held products, read-only, without reading a row. So each epoch's
ledger, collective calls and 2*(layers-1) phases are those of an epoch
that multiplies in every phase. Weights are replicated:
every rank initializes them from the same seed and applies bit-identical
updates, so no weight broadcast is ever needed; the same holds for the
non-finite check after each update, which every rank makes locally and
fails at the same epoch without any extra communication.

The serial path runs the identical arithmetic on the undistributed
matrices and is the correctness reference for the distributed one.

Reruns are bit-identical. The dense products go to the BLAS, whose sums
may change in their last bits with its thread count, so both paths run
them on one thread of numpy's bundled OpenBLAS (`runtime._one_blas_thread`)
and restore the caller's count after: a p=8, c=2 15d-sparse run gives the
same losses and weights under OpenBLAS's default threads as under
`OPENBLAS_NUM_THREADS=1`. Where numpy uses another BLAS, its thread count
is left as it is, and the last bits may depend on it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .partition import apply_partition
from .runtime import ProcessGrid, _one_blas_thread, run_program
from .sparse import CsrMatrix, csr_equal, gemm, local_spmm, transpose_csr
from .spmm import (_check_matrix, _layout_partition, build_dist_matrices, exchange_index_lists,
                   spmm_kernel, validate_variant_grid)

__all__ = [
    "SerialGcn",
    "TrainConfig",
    "TrainResult",
    "init_weights",
    "relu",
    "relu_grad",
    "serial_train",
    "softmax_xent",
    "train",
]


@dataclass
class TrainConfig:
    """Hyperparameters of one training run.

    `layers` counts representation levels (input features are level 0), so
    layers=3 trains two weight matrices with one hidden level of width
    `hidden` and ReLU activations; the output width is the number of
    classes, labels.max() + 1. `variant` selects the distributed multiply
    or "serial" for the reference path. `layers`, `hidden`, `epochs` and
    `seed` must be integers and `lr` a finite real number, none of them a
    bool.
    """

    layers: int = 3
    hidden: int = 16
    lr: float = 0.01
    epochs: int = 100
    seed: int = 0
    variant: str = "1d-sparse"

    def __post_init__(self):
        for name in ("layers", "hidden", "epochs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.layers < 2:
            raise ValueError("need at least 2 layers (one weight matrix)")
        if self.hidden < 1:
            raise ValueError("hidden width must be at least 1")
        if isinstance(self.lr, bool) or not isinstance(self.lr, numbers.Real):
            raise ValueError(f"lr must be a real number, got {self.lr!r}")
        if self.lr < 0:
            raise ValueError("learning rate must be non-negative")
        if not math.isfinite(self.lr):
            raise ValueError(f"learning rate must be finite, got {self.lr}")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def layer_dims(self, f_in, f_out):
        return [f_in] + [self.hidden] * (self.layers - 2) + [f_out]


def relu(z):
    return np.maximum(z, 0.0)


def relu_grad(z):
    # derivative taken as 0 at exactly 0
    return (z > 0.0).astype(np.float64)


def init_weights(cfg: TrainConfig, f_in, f_out):
    """Symmetric-uniform init with the usual fan-based range, drawn from a
    generator seeded with cfg.seed. Every caller with the same config gets
    the same weights, which is what keeps replicas in lockstep."""
    rng = np.random.default_rng(cfg.seed)
    dims = cfg.layer_dims(f_in, f_out)
    weights = []
    for fi, fo in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fi + fo))
        weights.append(rng.uniform(-limit, limit, size=(fi, fo)))
    return weights


def _xent_parts(logits, labels, mask, denom):
    """Masked cross-entropy pieces: (sum of losses, gradient scaled by
    1/denom, number of correct argmax predictions). Labels must be
    integers, the masked ones in [0, logits.shape[1]); the callers check
    them with `_check_labels`."""
    # the row maximum, one class column at a time: a reduction along the
    # short class axis costs about ten times as much, and the outputs are
    # the same bits
    top = logits[:, 0].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(top, logits[:, j], out=top)
    shift = logits - top[:, None]
    exps = np.exp(shift)
    log_norm = np.log(exps.sum(axis=1))
    grad = np.zeros_like(logits)
    loss_sum = 0.0
    correct = 0
    if mask.any():
        rows = np.flatnonzero(mask)
        sel = labels[rows]
        loss_sum = float((log_norm[rows] - shift[rows, sel]).sum())
        softmax = exps[rows]
        softmax /= softmax.sum(axis=1, keepdims=True)
        softmax[np.arange(rows.size), sel] -= 1.0
        grad[rows] = softmax / denom
        correct = int((logits[rows].argmax(axis=1) == sel).sum())
    return loss_sum, grad, correct


def _check_labels(labels, mask, k=None):
    """Labels as int64, after one check: every label finite, integral and
    in int64's range, every masked one in [0, k). k defaults to
    labels.max() + 1, the class count of training, so there only a
    negative masked label is out."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "biu":
        as_float = labels.astype(np.float64)
        bad = ~np.isfinite(as_float) | (np.floor(as_float) != as_float)
        if bad.any():
            v = int(np.flatnonzero(bad)[0])
            raise ValueError(f"vertex {v} has a non-integral or non-finite label "
                             f"{as_float[v]:g}")
        # int64 holds [-2**63, 2**63), and both bounds are exact floats
        huge = (as_float < -2.0 ** 63) | (as_float >= 2.0 ** 63)
    else:
        huge = labels > np.iinfo(np.int64).max
    if huge.any():
        v = int(np.flatnonzero(huge)[0])
        raise ValueError(f"vertex {v} has label {labels[v]:g}, outside the int64 range")
    labels = labels.astype(np.int64)
    if k is None:
        k = int(labels.max()) + 1
    outside = mask & ((labels < 0) | (labels >= k))
    if outside.any():
        v = int(outside.argmax())
        raise ValueError(f"labels must lie in [0, {k}) on masked rows; "
                         f"vertex {v} has label {labels[v]}")
    return labels


def softmax_xent(logits, labels, mask):
    """Mean cross-entropy over masked rows and its gradient (zero on
    unmasked rows), stabilized by max-subtraction."""
    logits = np.asarray(logits, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise ValueError("softmax_xent needs at least one masked row")
    labels = _check_labels(labels, mask, logits.shape[1])
    loss_sum, grad, _ = _xent_parts(logits, labels, mask, count)
    return loss_sum / count, grad


class SerialGcn:
    """Reference forward/backward on undistributed matrices.

    Caches activations between forward and backward; calling backward
    first is an error.
    """

    def __init__(self, a_hat: CsrMatrix, weights):
        self.a = a_hat
        at = transpose_csr(a_hat)
        self.at = a_hat if csr_equal(at, a_hat) else at
        self.weights = weights
        self._cache = None

    def forward(self, h0):
        hs = [np.asarray(h0, dtype=np.float64)]
        zs = []
        last = len(self.weights) - 1
        for l, w in enumerate(self.weights):
            t = local_spmm(self.at, hs[-1])
            z = gemm(t, w)
            zs.append(z)
            hs.append(relu(z) if l < last else z)
        self._cache = (hs, zs)
        return hs[-1]

    def backward(self, g_out):
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        hs, zs = self._cache
        g = np.asarray(g_out, dtype=np.float64)
        ys = [None] * len(self.weights)
        for l in range(len(self.weights) - 1, -1, -1):
            m = local_spmm(self.a, g)
            ys[l] = gemm(hs[l].T, m)
            if l > 0:
                g = gemm(m, self.weights[l].T) * relu_grad(zs[l - 1])
        return ys


@dataclass
class TrainResult:
    """Per-epoch history plus the final replicated weights.

    `history` rows carry epoch, loss, train accuracy, and (distributed
    runs only) cumulative bytes sent per primitive up to that epoch.
    `weights_per_rank` is populated on distributed runs for replication
    checks; `ledger` is None on the serial path.
    """

    history: list
    weights: list
    ledger: object = None
    weights_per_rank: list = field(default_factory=list)

    @property
    def losses(self):
        return np.array([row["loss"] for row in self.history])

    @property
    def final_accuracy(self):
        return self.history[-1]["train_acc"] if self.history else None


def _check_train_inputs(a_hat, features, labels, train_mask):
    """The trust boundary of training, where the matrix is checked once
    (`_check_matrix`: square and finite) and so are labels
    (`_check_labels`): one per vertex, each a finite integer and each
    masked one non-negative. The class count is labels.max() + 1, so no
    label reaches past it."""
    _check_matrix(a_hat)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    mask = np.asarray(train_mask, dtype=bool)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    if not np.isfinite(features).all():
        raise ValueError("features must be finite (found NaN or inf)")
    if labels.ndim != 1 or mask.ndim != 1:
        raise ValueError("labels and train_mask must be 1-D, got shapes "
                         f"{labels.shape} and {mask.shape}")
    if not (features.shape[0] == labels.shape[0] == mask.shape[0]):
        raise ValueError("features, labels and train_mask must agree on the vertex count")
    if a_hat.n_rows != features.shape[0]:
        raise ValueError("feature rows must match the matrix")
    if int(mask.sum()) == 0:
        raise ValueError("train_mask must select at least one vertex")
    return features, _check_labels(labels, mask), mask


def _check_finite_weights(weights, epoch):
    """Stop a diverged run instead of training on with inf/NaN weights."""
    if not all(np.isfinite(w).all() for w in weights):
        raise FloatingPointError(
            f"weights became non-finite in epoch {epoch}; training diverged "
            "(a smaller learning rate may help)")


def serial_train(a_hat: CsrMatrix, features, labels, train_mask, cfg: TrainConfig) -> TrainResult:
    """Full-batch gradient descent on one process; the reference run. Its
    dense products use one BLAS thread, as a distributed run's do."""
    features, labels, mask = _check_train_inputs(a_hat, features, labels, train_mask)
    weights = init_weights(cfg, features.shape[1], int(labels.max()) + 1)
    net = SerialGcn(a_hat, weights)
    denom = int(mask.sum())
    history = []
    with _one_blas_thread():
        for epoch in range(cfg.epochs):
            logits = net.forward(features)
            loss_sum, grad, correct = _xent_parts(logits, labels, mask, denom)
            ys = net.backward(grad)
            for w, y in zip(weights, ys):
                w -= cfg.lr * y
            _check_finite_weights(weights, epoch)
            history.append({"epoch": epoch, "loss": float(loss_sum / denom),
                            "train_acc": float(correct / denom)})
    return TrainResult(history, weights)


def train(a_hat: CsrMatrix, features, labels, train_mask, cfg: TrainConfig,
          p=1, c=1, partition=None) -> TrainResult:
    """Train over the selected distributed multiply variant.

    The graph, features, labels and mask are permuted to the partition's
    layout (and read as they are, uncopied, under the identity
    permutation), split into block rows, and every rank runs the same epoch
    loop; per-epoch loss/accuracy are assembled from per-rank sums after
    the run, so reporting costs no simulated traffic. cfg.variant ==
    "serial" bypasses the simulator entirely.

    In 1D a multiply operand is the permuted matrix itself, on which
    `local_spmm` keeps its level order (`CsrMatrix.level_order`). Under
    the identity permutation the backward operand of a non-symmetric
    graph is therefore the caller's `a_hat`, as in `serial_train`, whose
    arrays must not change afterwards.
    """
    if cfg.variant == "serial":
        return serial_train(a_hat, features, labels, train_mask, cfg)
    validate_variant_grid(cfg.variant, p, c)
    features, labels, mask = _check_train_inputs(a_hat, features, labels, train_mask)
    grid = ProcessGrid(p, c)
    part, features, moves = _layout_partition(a_hat, features, grid, partition)
    if moves:
        a2, feats2 = apply_partition(a_hat, features, part)
        inv = part.inv_perm
        labels2, mask2 = labels[inv], mask[inv]
    else:
        a2, feats2, labels2, mask2 = a_hat, features, labels, mask
    dm = build_dist_matrices(a2, part.boundaries, grid, cfg.variant)
    denom = int(mask.sum())
    weights0 = init_weights(cfg, features.shape[1], int(labels.max()) + 1)
    splits = np.cumsum([w.size for w in weights0])[:-1]  # of the gradient bucket
    held = None  # every rank's layer-0 forward product, made once before the run
    if cfg.epochs > 0:
        held = dm.fwd.product(feats2)
        for z in held:
            z.setflags(write=False)

    def program(comm):
        i, j = comm.coords
        r0, r1 = dm.boundaries[i]
        h0 = feats2[r0:r1]
        yb, mb = labels2[r0:r1], mask2[r0:r1]
        ws = [w.copy() for w in weights0]
        exchange_index_lists(comm, dm.fwd)
        if dm.bwd is not dm.fwd:
            exchange_index_lists(comm, dm.bwd)
        col_group = comm.grid.col_group(j)
        stats = np.zeros((cfg.epochs, 2))
        last = len(ws) - 1
        for epoch in range(cfg.epochs):
            hs, zs = [h0], []
            for l, w in enumerate(ws):
                # no name keeps the product past its gemm: layer 0's would
                # live on through the next phase beside the held products
                z = gemm(spmm_kernel(comm, dm.fwd, hs[-1], held=held if l == 0 else None), w)
                zs.append(z)
                hs.append(relu(z) if l < last else z)
            loss_sum, g, correct = _xent_parts(hs[-1], yb, mb, denom)
            ys = [None] * len(ws)
            for l in range(last, -1, -1):
                m = spmm_kernel(comm, dm.bwd, g)
                ys[l] = gemm(hs[l].T, m).ravel()
                if l > 0:
                    g = gemm(m, ws[l].T) * relu_grad(zs[l - 1])
            # one bucketed reduction of every layer's gradient; the sum is
            # elementwise, so each layer's part has the bits of its own sum
            bucket = comm.all_reduce_sum(np.concatenate(ys), group=col_group)
            for w, y in zip(ws, np.split(bucket, splits)):
                w -= cfg.lr * y.reshape(w.shape)
            _check_finite_weights(ws, epoch)
            stats[epoch] = (loss_sum, correct)
            comm.ledger_mark(("epoch", epoch))
        return {"stats": stats, "weights": ws}

    run = run_program(p, c, program)
    # one replica per block row is enough for the global sums
    history = []
    per_epoch = np.zeros((cfg.epochs, 2))
    for i in range(grid.n_rows):
        per_epoch += run.results[grid.rank_of(i, 0)]["stats"]
    for epoch in range(cfg.epochs):
        row = {"epoch": epoch, "loss": float(per_epoch[epoch, 0] / denom),
               "train_acc": float(per_epoch[epoch, 1] / denom)}
        snap = run.ledger.marks.get(("epoch", epoch), {})
        for prim, vals in snap.items():
            row[f"{prim}_bytes"] = vals["bytes_sent"]
        history.append(row)
    weights_per_rank = [run.results[r]["weights"] for r in range(p)]
    return TrainResult(history, weights_per_rank[0], run.ledger, weights_per_rank)
