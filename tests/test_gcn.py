import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distgcn.gcn
import distgcn.runtime
import distgcn.spmm
from distgcn.gcn import (SerialGcn, TrainConfig, _xent_parts, init_weights, relu_grad,
                         serial_train, softmax_xent, train)
from distgcn.graphgen import clique_blocks, sbm
from distgcn.sparse import CsrMatrix, csr_from_dense, gcn_normalize
from distgcn.partition import apply_partition, greedy_tv_partition
from distgcn.spmm import serial_reference

from oracles import numeric_gradient, random_csr_dense, xent_parts_axis1


def random_problem(seed, n=8, f_in=3, classes=2, density=0.3):
    rng = np.random.default_rng(seed)
    dense = np.abs(random_csr_dense(rng, n, density=density))
    a = gcn_normalize(csr_from_dense(dense + dense.T))
    features = rng.normal(size=(n, f_in))
    labels = rng.integers(classes, size=n)
    mask = rng.random(n) < 0.7
    if not mask.any():
        mask[0] = True
    return a, features, labels, mask


# ---- loss ------------------------------------------------------------------

def test_uniform_logits_loss_is_log_k():
    logits = np.zeros((6, 4))
    labels = np.array([0, 1, 2, 3, 0, 1])
    mask = np.ones(6, dtype=bool)
    loss, grad = softmax_xent(logits, labels, mask)
    assert abs(loss - np.log(4)) < 1e-12
    assert grad.shape == logits.shape


def test_confident_correct_logit_loss_vanishes():
    logits = np.zeros((1, 3))
    logits[0, 2] = 50.0
    loss, _ = softmax_xent(logits, np.array([2]), np.array([True]))
    assert loss < 1e-12


def test_xent_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(10, 4))
    labels = rng.integers(4, size=10)
    mask = rng.random(10) < 0.6
    mask[0] = True
    _, grad = softmax_xent(logits, labels, mask)
    step = 1e-6
    for i in range(10):
        for j in range(4):
            up, down = logits.copy(), logits.copy()
            up[i, j] += step
            down[i, j] -= step
            fd = (softmax_xent(up, labels, mask)[0]
                  - softmax_xent(down, labels, mask)[0]) / (2 * step)
            assert abs(fd - grad[i, j]) < 1e-6


def test_xent_gradient_zero_on_unmasked_rows():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(5, 3))
    mask = np.array([True, False, True, False, False])
    _, grad = softmax_xent(logits, np.zeros(5, dtype=int), mask)
    assert not grad[~mask].any()


def test_xent_rejects_out_of_range_label():
    with pytest.raises(ValueError, match="labels"):
        softmax_xent(np.zeros((2, 3)), np.array([0, 3]), np.ones(2, dtype=bool))


def test_xent_rejects_non_integral_label_by_name():
    mask = np.ones(2, bool)
    with pytest.raises(ValueError, match="vertex 1 has a non-integral or non-finite label 1.5"):
        softmax_xent(np.zeros((2, 3)), np.array([0.0, 1.5]), mask)
    with pytest.raises(ValueError, match="vertex 0 has a non-integral or non-finite label nan"):
        softmax_xent(np.zeros((2, 3)), np.array([np.nan, 1.0]), mask)
    # integral float labels are labels
    logits = np.arange(6.0).reshape(2, 3)
    loss, grad = softmax_xent(logits, np.array([0.0, 2.0]), mask)
    want_loss, want_grad = softmax_xent(logits, np.array([0, 2]), mask)
    assert loss == want_loss and np.array_equal(grad, want_grad)


@pytest.mark.parametrize("label,shown", [
    (1e30, "1e+30"), (2.0 ** 63, "9.22337e+18"), (-1e19, "-1e+19"),
    (np.uint64(2 ** 63), "9.22337e+18"),
], ids=["1e30", "2**63", "-1e19", "uint64-2**63"])
def test_labels_outside_int64_rejected_before_the_cast(label, shown):
    # an invalid float-to-int64 cast warns (an error under this suite's
    # filterwarnings) and yields -2**63; a uint64 past int64 wraps silently
    labels = np.array([0, label], dtype=np.asarray(label).dtype)
    match = re.escape(f"vertex 1 has label {shown}, outside the int64 range")
    with pytest.raises(ValueError, match=match):
        softmax_xent(np.zeros((2, 3)), labels, np.ones(2, bool))
    # training checks its labels with the same rule
    a, features, _, mask = random_problem(0)
    labels = np.zeros(8, dtype=labels.dtype)
    labels[1] = label
    with pytest.raises(ValueError, match=match):
        train(a, features, labels, mask, TrainConfig(epochs=1), p=2)


def test_xent_rejects_empty_mask():
    with pytest.raises(ValueError, match="masked"):
        softmax_xent(np.zeros((2, 3)), np.zeros(2, dtype=int), np.zeros(2, dtype=bool))


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
def test_xent_parts_equal_the_axis_1_formula_bit_for_bit(k):
    # the row maximum is taken one class column at a time; the loss, the
    # gradient and the correct count must be the bits of one reduction
    # along the class axis, with tied maxima and zeros of both signs
    rng = np.random.default_rng(k)
    n = 300
    logits = rng.integers(-2, 3, size=(n, k)).astype(np.float64)
    logits[::3] *= 1.5
    logits[1::3] = rng.normal(size=(len(logits[1::3]), k))
    zeros = rng.random((n, k)) < 0.25
    logits[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    labels = rng.integers(0, k, n)
    mask = rng.random(n) < 0.7
    got = _xent_parts(logits, labels, mask, 17)
    want = xent_parts_axis1(logits, labels, mask, 17)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2] == want[2]


# ---- configuration -----------------------------------------------------------

@pytest.mark.parametrize("kwargs, message", [
    (dict(lr=float("inf")), "learning rate must be finite, got inf"),
    (dict(lr=float("nan")), "learning rate must be finite, got nan"),
    (dict(epochs=2.0), "epochs must be an integer, got 2.0"),
    (dict(layers=3.0), "layers must be an integer, got 3.0"),
    (dict(hidden=4.5), "hidden must be an integer, got 4.5"),
    (dict(seed=-1), "seed must be non-negative"),
    (dict(lr="0.1"), "lr must be a real number, got '0.1'"),
    (dict(lr=None), "lr must be a real number, got None"),
    (dict(lr=1 + 2j), "lr must be a real number, got (1+2j)"),
    (dict(lr=True), "lr must be a real number, got True"),
], ids=["inf-lr", "nan-lr", "float-epochs", "float-layers", "fractional-hidden",
        "negative-seed", "string-lr", "none-lr", "complex-lr", "bool-lr"])
def test_train_config_rejects_by_field_name(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig(**kwargs)


def test_train_config_accepts_numpy_integers():
    cfg = TrainConfig(layers=np.int64(3), hidden=np.int32(4), epochs=np.int64(2),
                      seed=np.uint8(1), lr=np.float32(0.5))
    assert cfg.layer_dims(5, 2) == [5, 4, 2]


# ---- serial forward/backward -------------------------------------------------

def test_forward_zero_features_zero_logits():
    a, features, labels, mask = random_problem(2)
    cfg = TrainConfig(layers=3, hidden=4, seed=0)
    weights = init_weights(cfg, 3, 2)
    net = SerialGcn(a, weights)
    logits = net.forward(np.zeros_like(features))
    assert not logits.any()
    ys = net.backward(np.zeros_like(logits))
    assert all(not y.any() for y in ys)


def test_backward_before_forward_rejected():
    a, features, labels, mask = random_problem(3)
    net = SerialGcn(a, init_weights(TrainConfig(seed=1), 3, 2))
    with pytest.raises(RuntimeError, match="before forward"):
        net.backward(np.zeros((8, 2)))


def test_single_vertex_two_weight_layers():
    # one vertex: normalized adjacency is [[1]]; with identity-like weights
    # the logits reduce to relu(h0 W1) W2
    a = gcn_normalize(csr_from_dense(np.zeros((1, 1))))
    h0 = np.array([[2.0, -3.0]])
    w1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    w2 = np.array([[0.5, 0.0], [0.0, 0.5]])
    net = SerialGcn(a, [w1, w2])
    logits = net.forward(h0)
    np.testing.assert_allclose(logits, np.maximum(h0, 0) @ w2, atol=1e-15)


def test_relu_grad_zero_at_zero():
    z = np.array([[-1.0, 0.0, 2.0]])
    np.testing.assert_array_equal(relu_grad(z), [[0.0, 0.0, 1.0]])


@pytest.mark.parametrize("layers", [2, 3])
def test_weight_gradients_match_finite_differences(layers):
    a, features, labels, mask = random_problem(layers * 10, n=6, f_in=2)
    cfg = TrainConfig(layers=layers, hidden=3, seed=4)
    weights = init_weights(cfg, 2, 2)

    def loss_of(ws):
        net = SerialGcn(a, ws)
        logits = net.forward(features)
        return softmax_xent(logits, labels, mask)[0]

    net = SerialGcn(a, weights)
    logits = net.forward(features)
    _, grad = softmax_xent(logits, labels, mask)
    analytic = net.backward(grad)
    numeric = numeric_gradient(loss_of, weights, step=1e-5)
    for g_a, g_n in zip(analytic, numeric):
        np.testing.assert_allclose(g_a, g_n, rtol=1e-5, atol=1e-8)


def test_distributed_gradients_match_serial():
    a, features, labels, mask = random_problem(40, n=12, f_in=3)
    denom = int(mask.sum())
    for variant, p, c in [("1d-oblivious", 3, 1), ("1d-sparse", 3, 1),
                          ("15d-oblivious", 4, 2), ("15d-sparse", 4, 2)]:
        cfg = TrainConfig(layers=3, hidden=4, lr=0.5, epochs=1, seed=6,
                          variant=variant)
        res = train(a, features, labels, mask, cfg, p=p, c=c)
        serial = serial_train(a, features, labels, mask,
                              TrainConfig(layers=3, hidden=4, lr=0.5, epochs=1,
                                          seed=6, variant="serial"))
        # after one identical update the weights agree within round-off
        for wd, ws in zip(res.weights, serial.weights):
            np.testing.assert_allclose(wd, ws, atol=1e-10)
        assert abs(res.history[0]["loss"] - serial.history[0]["loss"]) < 1e-10


# ---- training ----------------------------------------------------------------

def test_lr_zero_keeps_weights_and_loss_flat():
    a, features, labels, mask = random_problem(7, n=10)
    cfg = TrainConfig(layers=3, hidden=4, lr=0.0, epochs=5, seed=2, variant="serial")
    res = serial_train(a, features, labels, mask, cfg)
    losses = res.losses
    assert np.all(losses == losses[0])
    np.testing.assert_array_equal(res.weights[0], init_weights(cfg, 3, 2)[0])


def test_training_is_deterministic():
    a, features, labels, mask = random_problem(8, n=14)
    cfg = TrainConfig(layers=3, hidden=4, lr=0.05, epochs=4, seed=3, variant="1d-sparse")
    r1 = train(a, features, labels, mask, cfg, p=2, c=1)
    r2 = train(a, features, labels, mask, cfg, p=2, c=1)
    assert r1.history == r2.history
    for w1, w2 in zip(r1.weights, r2.weights):
        assert np.array_equal(w1, w2)


def test_empty_mask_rejected():
    a, features, labels, _ = random_problem(9)
    cfg = TrainConfig(epochs=1, variant="serial")
    with pytest.raises(ValueError, match="mask"):
        serial_train(a, features, labels, np.zeros(8, dtype=bool), cfg)


def test_serial_train_rejects_1d_features():
    a, features, labels, mask = random_problem(9)
    cfg = TrainConfig(epochs=1, variant="serial")
    with pytest.raises(ValueError, match="features must be 2-D"):
        serial_train(a, features[:, 0], labels, mask, cfg)


def test_train_rejects_1d_features():
    a, features, labels, mask = random_problem(9)
    cfg = TrainConfig(epochs=1, variant="1d-sparse")
    with pytest.raises(ValueError, match="features must be 2-D"):
        train(a, features[:, 0], labels, mask, cfg, p=2, c=1)


def test_serial_train_rejects_non_finite_features():
    a, features, labels, mask = random_problem(9)
    cfg = TrainConfig(epochs=1, variant="serial")
    for bad in (np.nan, np.inf):
        features[2, 1] = bad
        with pytest.raises(ValueError, match="features must be finite"):
            serial_train(a, features, labels, mask, cfg)


def test_train_rejects_non_finite_features():
    a, features, labels, mask = random_problem(9)
    cfg = TrainConfig(epochs=1, variant="1d-sparse")
    for bad in (np.nan, -np.inf):
        features[0, 0] = bad
        with pytest.raises(ValueError, match="features must be finite"):
            train(a, features, labels, mask, cfg, p=2, c=1)


TRAIN_PATHS = [("serial", 1), ("1d-sparse", 2)]


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
@pytest.mark.parametrize("variant, p", TRAIN_PATHS)
def test_train_rejects_non_finite_matrix(variant, p, bad):
    # a NaN or inf entry used to train until the weights turned non-finite,
    # and the error blamed the learning rate
    a, features, labels, mask = random_problem(9)
    values = a.values.copy()
    values[5] = bad
    a = CsrMatrix(a.n_rows, a.n_cols, a.row_ptr, a.col_idx, values)
    message = f"the matrix must be finite, but entry ({a.row_of_nnz()[5]}, {a.col_idx[5]}) is {bad}"
    cfg = TrainConfig(epochs=1, variant=variant)
    with pytest.raises(ValueError, match=re.escape(message)):
        train(a, features, labels, mask, cfg, p=p, c=1)


@pytest.mark.parametrize("variant, p", TRAIN_PATHS)
def test_train_rejects_non_square_matrix_by_name(variant, p):
    # the serial path used to fail in its first multiply with
    # "dimension mismatch: (10, 8) @ (10, 16)"
    rng = np.random.default_rng(4)
    a = csr_from_dense(random_csr_dense(rng, 10, density=0.3, square=False, n_cols=8))
    features, labels = rng.normal(size=(10, 3)), rng.integers(2, size=10)
    cfg = TrainConfig(epochs=1, variant=variant)
    with pytest.raises(ValueError, match="the matrix must be square, got 10x8"):
        train(a, features, labels, np.ones(10, dtype=bool), cfg, p=p, c=1)


@pytest.mark.parametrize("variant, p", TRAIN_PATHS)
def test_train_rejects_non_integral_label(variant, p):
    a, features, labels, mask = random_problem(9)
    labels = labels.astype(np.float64)
    labels[3] = 1.7
    cfg = TrainConfig(epochs=1, variant=variant)
    with pytest.raises(ValueError, match="vertex 3 has a non-integral or non-finite label 1.7"):
        train(a, features, labels, mask, cfg, p=p, c=1)


@pytest.mark.parametrize("variant, p", TRAIN_PATHS)
def test_train_rejects_nan_label(variant, p):
    a, features, labels, mask = random_problem(9)
    labels = labels.astype(np.float64)
    labels[[5, 6]] = np.nan
    cfg = TrainConfig(epochs=1, variant=variant)
    with pytest.raises(ValueError, match="vertex 5 has a non-integral or non-finite label nan"):
        train(a, features, labels, mask, cfg, p=p, c=1)


@pytest.mark.parametrize("variant, p", TRAIN_PATHS)
def test_train_rejects_column_of_labels(variant, p):
    # an (n, 1) label column used to broadcast in the loss and train on
    # a wrong loss without an error
    a, features, labels, mask = random_problem(9)
    cfg = TrainConfig(epochs=1, variant=variant)
    with pytest.raises(ValueError, match=r"labels and train_mask must be 1-D.*\(8, 1\)"):
        train(a, features, labels[:, None], mask, cfg, p=p, c=1)


@pytest.mark.parametrize("variant, p", TRAIN_PATHS)
def test_train_rejects_negative_masked_label_without_epochs(variant, p):
    a, features, labels, mask = random_problem(9)
    v = int(np.flatnonzero(mask)[0])
    labels[v] = -1
    cfg = TrainConfig(epochs=0, variant=variant)
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\) on masked rows"):
        train(a, features, labels, mask, cfg, p=p, c=1)
    # an unmasked -1 marks an unlabeled vertex and trains
    mask[v] = False
    assert train(a, features, labels, mask, cfg, p=p, c=1).history == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_training_stops_at_first_non_finite_weight():
    # every replica sees the same weights, so all ranks stop in the same epoch
    a, features, labels, mask = random_problem(3, n=12)
    for variant, p, c in [("serial", 1, 1), ("1d-sparse", 2, 1), ("15d-sparse", 4, 2)]:
        cfg = TrainConfig(lr=1e150, epochs=20, variant=variant)
        with pytest.raises(FloatingPointError, match="non-finite in epoch 2"):
            train(a, features, labels, mask, cfg, p=p, c=c)


def test_replication_invariant_all_ranks():
    a, features, labels, mask = random_problem(10, n=16)
    cfg = TrainConfig(layers=3, hidden=4, lr=0.05, epochs=3, seed=5, variant="15d-sparse")
    res = train(a, features, labels, mask, cfg, p=4, c=2)
    for per_rank in res.weights_per_rank[1:]:
        for w0, wr in zip(res.weights_per_rank[0], per_rank):
            assert np.array_equal(w0, wr)


def test_distributed_losses_track_serial_over_epochs():
    a, features, labels = sbm(60, seed=11, feature_dim=6)
    ah = gcn_normalize(a)
    mask = np.ones(60, dtype=bool)
    base = dict(layers=3, hidden=8, lr=0.02, epochs=12, seed=7)
    serial = serial_train(ah, features, labels, mask,
                          TrainConfig(variant="serial", **base))
    for variant, p, c in [("1d-sparse", 4, 1), ("15d-oblivious", 4, 2)]:
        res = train(ah, features, labels, mask, TrainConfig(variant=variant, **base),
                    p=p, c=c)
        assert np.abs(res.losses - serial.losses).max() < 1e-8


def _check_epoch_phase_counts(variants):
    _, features, labels, mask = random_problem(12, n=16)
    # not symmetric, so the forward and backward operands differ and the
    # aware variants exchange the index lists of both at set-up
    dense = np.abs(random_csr_dense(np.random.default_rng(12), 16, density=0.3))
    a = gcn_normalize(csr_from_dense(dense))
    assert not np.array_equal(a.to_dense(), a.to_dense().T)
    epochs, layers = 2, 4
    for variant, c in variants:
        cfg = TrainConfig(layers=layers, hidden=4, lr=0.01, epochs=epochs, seed=8,
                          variant=variant)
        res = train(a, features, labels, mask, cfg, p=4, c=c)
        counters = res.ledger.counters
        setup = 2 if variant.endswith("sparse") else 0
        for r in range(4):
            # one personalized exchange per multiply phase
            assert counters["alltoallv"]["calls"][r] == epochs * 2 * (layers - 1) + setup
            # one bucketed weight-gradient reduction per epoch, plus one
            # partial-sum reduction per multiply phase when c > 1
            assert counters["allreduce"]["calls"][r] == epochs * (1 + 2 * (layers - 1) * (c > 1))
            assert counters["p2p"]["msgs_sent"][r] == counters["p2p"]["msgs_received"][r] == 0
            assert counters["broadcast"]["calls"][r] == 0


def test_epoch_phase_counts():
    _check_epoch_phase_counts((("1d-oblivious", 1), ("1d-sparse", 1)))


def test_epoch_phase_counts_replicated():
    _check_epoch_phase_counts((("15d-oblivious", 2), ("15d-sparse", 2)))


def test_partitioned_training_matches_serial():
    a, features, labels = sbm(48, seed=13, feature_dim=5)
    ah = gcn_normalize(a)
    mask = np.ones(48, dtype=bool)
    part = greedy_tv_partition(ah, 4)
    base = dict(layers=3, hidden=6, lr=0.02, epochs=6, seed=9)
    serial = serial_train(ah, features, labels, mask, TrainConfig(variant="serial", **base))
    res = train(ah, features, labels, mask, TrainConfig(variant="1d-sparse", **base),
                p=4, c=1, partition=part)
    assert np.abs(res.losses - serial.losses).max() < 1e-8


def test_directed_graph_training_matches_serial():
    # asymmetric adjacency exercises the separate forward/backward operands
    rng = np.random.default_rng(50)
    dense = np.abs(random_csr_dense(rng, 18, density=0.2))
    a = gcn_normalize(csr_from_dense(dense))
    assert not np.array_equal(a.to_dense(), a.to_dense().T)
    features = rng.normal(size=(18, 3))
    labels = rng.integers(2, size=18)
    mask = np.ones(18, dtype=bool)
    base = dict(layers=3, hidden=4, lr=0.05, epochs=8, seed=12)
    serial = serial_train(a, features, labels, mask, TrainConfig(variant="serial", **base))
    for variant, p, c in [("1d-sparse", 3, 1), ("15d-sparse", 4, 2)]:
        res = train(a, features, labels, mask, TrainConfig(variant=variant, **base),
                    p=p, c=c)
        assert np.abs(res.losses - serial.losses).max() < 1e-8


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(layers=1)
    with pytest.raises(ValueError):
        TrainConfig(hidden=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=-0.1)


@pytest.mark.parametrize("layers", [3, 5])
@pytest.mark.parametrize("variant,c", [("1d-sparse", 1), ("15d-sparse", 1), ("15d-sparse", 2)])
def test_disjoint_cliques_epoch_is_one_gradient_reduction(variant, c, layers):
    # criterion 3's zero-byte case trained: cliques aligned with the block
    # rows move no row, so an epoch's messages are the one bucketed
    # gradient all-reduce over the column group, plus (c > 1) the row
    # all-reduce of each multiply phase; both groups are powers of two,
    # reduced by recursive halving and doubling in 2*log2(g) messages
    p, size, epochs = 8, 5, 2
    grid_rows = p // c
    a = gcn_normalize(clique_blocks(grid_rows, size))
    rng = np.random.default_rng(layers)
    features = rng.normal(size=(a.n_rows, 3))
    labels = rng.integers(3, size=a.n_rows)
    mask = np.ones(a.n_rows, dtype=bool)

    def run(n):
        cfg = TrainConfig(layers=layers, hidden=4, lr=0.05, epochs=n, seed=3, variant=variant)
        return train(a, features, labels, mask, cfg, p=p, c=c).ledger.counters

    trained, setup = run(epochs), run(0)
    per_epoch = {prim: {field: (trained[prim][field] - setup[prim][field]) / epochs
                        for field in ("bytes_sent", "msgs_sent")} for prim in trained}
    for prim in ("p2p", "alltoallv", "broadcast"):
        assert per_epoch[prim]["bytes_sent"].tolist() == [0.0] * p
        assert per_epoch[prim]["msgs_sent"].tolist() == [0] * p
    assert per_epoch["allreduce"]["msgs_sent"].tolist() == (
        [2 * int(math.log2(grid_rows)) + 2 * (layers - 1) * 2 * int(math.log2(c))] * p)


# ---- layer 0's product and the BLAS ----------------------------------------

def test_training_without_epochs_multiplies_nothing(monkeypatch):
    calls = []
    spmm = distgcn.spmm.local_spmm
    monkeypatch.setattr(distgcn.spmm, "local_spmm", lambda a, h: calls.append(1) or spmm(a, h))
    a, features, labels, mask = random_problem(5, n=24)
    for variant, p, c in [("1d-sparse", 4, 1), ("1d-oblivious", 4, 1), ("15d-sparse", 8, 2)]:
        train(a, features, labels, mask, TrainConfig(epochs=0, variant=variant), p=p, c=c)
    assert calls == []


@pytest.mark.parametrize("variant", ["1d-sparse", "1d-oblivious"])
def test_layer_0_products_are_made_before_the_run_read_only(variant, monkeypatch):
    # every rank passes the same products, made once from the permuted
    # features: stacked, they are the serial product of the permuted
    # matrix, through zero-row ranks too
    holds = []
    kernel = distgcn.gcn.spmm_kernel

    def spy(comm, op, h_block, held=None):
        if held is not None:
            holds.append(held)
        return kernel(comm, op, h_block, held=held)

    monkeypatch.setattr(distgcn.gcn, "spmm_kernel", spy)
    graph, x, y = sbm(100, blocks=4, p_in=0.1, p_out=0.01, seed=0, feature_dim=3)
    a = gcn_normalize(graph)
    part = greedy_tv_partition(a, 32)
    assert any(s == e for s, e in part.boundaries)  # a zero-row rank
    cfg = TrainConfig(epochs=2, variant=variant)
    train(a, x, y, np.arange(100) % 2 == 0, cfg, p=32, partition=part)
    assert len(holds) == 32 * cfg.epochs
    products = holds[0]
    assert all(h is products for h in holds)
    assert not any(z.flags.writeable for z in products)
    a2, x2 = apply_partition(a, x, part)
    assert np.vstack(products).tobytes() == serial_reference(a2, x2).tobytes()


_BLAS_CHILD = """
import sys
import numpy as np
from distgcn.gcn import TrainConfig, train
from distgcn.graphgen import sbm
from distgcn.sparse import gcn_normalize

graph, x, y = sbm(2000, blocks=4, feature_dim=128, seed=7)
res = train(gcn_normalize(graph), x, y, np.arange(2000) % 2 == 0,
            TrainConfig(epochs=2, variant="15d-sparse"), p=8, c=2)
sys.stdout.buffer.write(res.losses.tobytes() + b"".join(w.tobytes() for w in res.weights))
"""


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif((_cpus() or 1) < 2, reason="one CPU: OpenBLAS runs one thread anyway")
def test_training_does_not_depend_on_the_blas_thread_count():
    # a child with OpenBLAS's default threads and one with a single thread
    # train to the same losses and weights, byte for byte
    src = str(Path(distgcn.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS",
                                                            "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        proc = subprocess.run([sys.executable, "-c", _BLAS_CHILD], capture_output=True,
                              env={**env, **threads}, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(hashlib.sha256(proc.stdout).hexdigest())
    assert outs[0] == outs[1]


@pytest.mark.skipif(distgcn.runtime._openblas() is None,
                    reason="numpy bundles no OpenBLAS here")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_serial_training_restores_the_blas_thread_count():
    get, put = distgcn.runtime._openblas()
    saved = get()
    a, features, labels, mask = random_problem(3, n=12)
    try:
        put(2)
        before = get()
        serial_train(a, features, labels, mask, TrainConfig(epochs=2, variant="serial"))
        assert get() == before
        with pytest.raises(FloatingPointError, match="non-finite"):
            serial_train(a, features, labels, mask, TrainConfig(lr=1e150, epochs=20))
        assert get() == before
    finally:
        put(saved)
