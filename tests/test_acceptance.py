"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import time

import numpy as np
import pytest

from distgcn.cli import main as cli_main
from distgcn.costmodel import CostParams, confront, predict_1d_terms
from distgcn.gcn import TrainConfig, serial_train, train
from distgcn.graphgen import clique_blocks, grid2d, sbm, star_augmented
from distgcn.partition import (block_partition, comm_metrics, greedy_tv_partition,
                               imbalance_pct, random_partition,
                               volume_balanced_refine)
from distgcn.sparse import csr_from_dense, gcn_normalize
from distgcn.spmm import run_spmm, serial_reference

from oracles import random_csr_dense


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


GRID_SHAPES = ((2, 1), (4, 1), (8, 1), (4, 2), (8, 2))


@pytest.fixture(scope="module")
def sweep():
    """Randomized instance sweep shared by criteria 1, 2 and 9.

    60 instances over f in {1,4,16}, (p,c) in {2,4,8}x{1,2} where valid,
    n <= 200, density <= 0.1; every valid variant runs on each instance.
    """
    t0 = time.time()
    records = []
    for f in (1, 4, 16):
        for p, c in GRID_SHAPES:
            for seed in (0, 1, 2, 3):
                rng = np.random.default_rng(seed * 10007 + p * 101 + c * 13 + f)
                n = int(rng.integers(40, 201))
                density = float(rng.uniform(0.01, 0.1))
                a = csr_from_dense(random_csr_dense(rng, n, density=density))
                h = rng.normal(size=(n, f))
                ref = serial_reference(a, h)
                variants = (("1d-oblivious", "1d-sparse", "15d-oblivious",
                             "15d-sparse") if c == 1
                            else ("15d-oblivious", "15d-sparse"))
                runs = {v: run_spmm(a, h, p, c, v) for v in variants}
                records.append({
                    "a": a, "h": h, "ref": ref, "f": f, "p": p, "c": c,
                    "n": n, "runs": runs,
                })
    return {"records": records, "elapsed": time.time() - t0}


def test_criterion_1_oracle_equivalence(sweep):
    worst = 0.0
    total_runs = 0
    for rec in sweep["records"]:
        for run in rec["runs"].values():
            worst = max(worst, float(np.abs(run.z - rec["ref"]).max()))
            total_runs += 1
    ok = worst <= 1e-10 and len(sweep["records"]) >= 50 and sweep["elapsed"] < 60.0
    report(1, ok,
           f"{len(sweep['records'])} instances / {total_runs} runs, worst "
           f"|err|={worst:.2e} (tol 1e-10), sweep {sweep['elapsed']:.1f}s (< 60s)")


def test_criterion_2_volume_dominance(sweep):
    checked = strict_checked = 0
    ok = True
    for rec in sweep["records"]:
        pairs = ([("1d-sparse", "1d-oblivious"), ("15d-sparse", "15d-oblivious")]
                 if rec["c"] == 1 else [("15d-sparse", "15d-oblivious")])
        for aware_name, obl_name in pairs:
            if aware_name not in rec["runs"]:
                continue
            aware = rec["runs"][aware_name]
            obl = rec["runs"][obl_name]
            a_bytes = aware.ledger.total_bytes_sent("data")
            o_bytes = obl.ledger.total_bytes_sent("data")
            checked += 1
            if a_bytes > o_bytes:
                ok = False
            widths = [e - s for s, e in aware.dm.boundaries]
            nb = len(widths)
            slack = any(aware.dm.fwd.cols(i, j).size < widths[j]
                        for i in range(nb) for j in range(nb) if i != j)
            if slack:
                strict_checked += 1
                if not a_bytes < o_bytes:
                    ok = False
    report(2, ok, f"aware <= oblivious data bytes on {checked} pairs, "
                  f"strict on all {strict_checked} pairs with an empty "
                  f"off-diagonal column")


def test_criterion_3_near_zero_communication():
    ok = True
    details = []
    for p, size in ((2, 8), (4, 6), (8, 5)):
        a = gcn_normalize(clique_blocks(p, size))
        h = np.random.default_rng(p).normal(size=(p * size, 4))
        run = run_spmm(a, h, p, 1, "1d-sparse")
        data = run.ledger.total_bytes_sent("data")
        err = float(np.abs(run.z - serial_reference(a, h)).max())
        details.append(f"p={p}: {data:.0f}B")
        if data != 0.0 or err > 1e-12:
            ok = False
    report(3, ok, "aligned clique blocks move exactly 0 data bytes in the "
                  "1D aware variant (" + ", ".join(details) + ")")


def test_criterion_4_imbalance_metric_reproduction():
    v16 = imbalance_pct(199.6, 333.5)
    v256 = imbalance_pct(32.6, 86.4)
    ok = abs(v16 - 67.1) <= 0.1 and abs(v256 - 165.0) <= 0.5
    report(4, ok, f"imbalance(199.6, 333.5)={v16:.2f}% (67.1 +/- 0.1), "
                  f"imbalance(32.6, 86.4)={v256:.2f}% (165.0 +/- 0.5)")


def test_criterion_5_partitioner_effectiveness():
    t0 = time.time()
    grid = grid2d(32, 32)
    rand = random_partition(1024, 8, seed=1)
    tv0 = greedy_tv_partition(grid, 8)
    gvb_grid = volume_balanced_refine(grid, tv0, lambda_max=8.0)
    m_rand = comm_metrics(grid, rand)
    m_gvb = comm_metrics(grid, gvb_grid)

    sa = star_augmented(300, seed=0)
    tv = greedy_tv_partition(sa, 8)
    gvb_sa = volume_balanced_refine(sa, tv, lambda_max=8.0)
    m_tv = comm_metrics(sa, tv)
    m_gvb_sa = comm_metrics(sa, gvb_sa)

    # determinism of the full pipeline
    gvb_again = volume_balanced_refine(sa, greedy_tv_partition(sa, 8), lambda_max=8.0)
    deterministic = np.array_equal(gvb_again.assignment, gvb_sa.assignment)

    elapsed = time.time() - t0
    ok = (m_gvb.max_rows <= 0.5 * m_rand.max_rows
          and m_gvb_sa.max_rows <= m_tv.max_rows
          and deterministic and elapsed < 10.0)
    report(5, ok,
           f"grid k=8: gvb max {m_gvb.max_rows:.0f} <= 0.5 x random max "
           f"{m_rand.max_rows:.0f}; star-augmented: gvb max {m_gvb_sa.max_rows:.0f} "
           f"<= greedy-tv max {m_tv.max_rows:.0f}; deterministic={deterministic}; "
           f"{elapsed:.1f}s (< 10s)")


def test_criterion_6_gradient_correctness():
    from distgcn.gcn import SerialGcn, init_weights, softmax_xent
    from oracles import numeric_gradient

    worst = 0.0
    for i in range(10):
        layers = 2 + (i % 2)
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(6, 31))
        dense = np.abs(random_csr_dense(rng, n, density=0.25))
        a = gcn_normalize(csr_from_dense(dense + dense.T))
        f_in, classes = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        feats = rng.normal(size=(n, f_in))
        labels = rng.integers(classes, size=n)
        mask = rng.random(n) < 0.7
        mask[0] = True
        cfg = TrainConfig(layers=layers, hidden=4, seed=i)
        weights = init_weights(cfg, f_in, classes)

        def loss_of(ws):
            return softmax_xent(SerialGcn(a, ws).forward(feats), labels, mask)[0]

        net = SerialGcn(a, weights)
        _, grad = softmax_xent(net.forward(feats), labels, mask)
        analytic = net.backward(grad)
        numeric = numeric_gradient(loss_of, weights, step=1e-5)
        for g_a, g_n in zip(analytic, numeric):
            # tiny floor only guards division where the gradient vanishes
            rel = np.abs(g_a - g_n) / np.maximum(np.abs(g_n), 1e-8)
            worst = max(worst, float(rel.max()))
    ok = worst <= 1e-5
    report(6, ok, f"10 instances (n<=30, layers in {{2,3}}): worst relative "
                  f"gradient error {worst:.2e} (tol 1e-5)")


def test_criterion_7_variant_independent_training():
    a, feats, labels = sbm(200, seed=7, feature_dim=16, p_in=0.2, p_out=0.01)
    ah = gcn_normalize(a)
    mask = np.ones(200, dtype=bool)
    base = dict(layers=3, hidden=16, lr=0.01, epochs=100, seed=1)
    serial = serial_train(ah, feats, labels, mask,
                          TrainConfig(variant="serial", **base))
    losses = {}
    accs = {}
    for variant, p, c in (("1d-oblivious", 4, 1), ("1d-sparse", 4, 1),
                          ("15d-oblivious", 4, 2), ("15d-sparse", 4, 2)):
        res = train(ah, feats, labels, mask, TrainConfig(variant=variant, **base),
                    p=p, c=c)
        losses[variant] = res.losses
        accs[variant] = res.final_accuracy
    names = sorted(losses)
    max_gap = max(float(np.abs(losses[x] - losses[y]).max())
                  for x in names for y in names)
    ok = (max_gap <= 1e-8 and serial.final_accuracy >= 0.9
          and all(acc >= 0.9 for acc in accs.values()))
    report(7, ok, f"4 variants x 100 epochs: max per-epoch loss gap "
                  f"{max_gap:.2e} (tol 1e-8); accuracies serial="
                  f"{serial.final_accuracy:.3f}, "
                  + ", ".join(f"{v}={accs[v]:.3f}" for v in names)
                  + " (target >= 0.9)")


def test_criterion_8_c1_reduction():
    rng = np.random.default_rng(81)
    a = csr_from_dense(random_csr_dense(rng, 60, density=0.08))
    h = rng.normal(size=(60, 5))
    ok = True
    details = []
    for flavor in ("oblivious", "sparse"):
        run_1d = run_spmm(a, h, 4, 1, f"1d-{flavor}")
        run_15d = run_spmm(a, h, 4, 1, f"15d-{flavor}")
        bits = np.array_equal(run_1d.z, run_15d.z)
        ledgers = run_1d.ledger.to_dict() == run_15d.ledger.to_dict()
        details.append(f"{flavor}: bit-identical={bits}, ledgers equal={ledgers}")
        ok = ok and bits and ledgers
    report(8, ok, "replicated layout at c=1 reproduces the 1D variants ("
                  + "; ".join(details) + ")")


def test_criterion_9_model_bound_consistency(sweep):
    ok = True
    checked = 0
    for rec in sweep["records"]:
        if "1d-sparse" not in rec["runs"]:
            continue
        run = rec["runs"]["1d-sparse"]
        metrics = comm_metrics(rec["a"], block_partition(rec["n"], rec["p"]),
                               f=rec["f"])
        cp = CostParams(alpha=1e-6, beta=1e-9, p=rec["p"], l_layers=1,
                        f=rec["f"], cut_p=metrics.cut_p)
        rep = confront(predict_1d_terms(cp), run.ledger, cp, phases=1)
        measured = rep["measured"]
        checked += 1
        if measured["max_pair_data_rows"] > metrics.cut_p:
            ok = False
        if measured["max_rank_msgs"] > 2 * (rec["p"] - 1):
            ok = False
        if rep["flags"]:
            ok = False
    # negative control: corrupt one ledger and demand a flag
    rec = sweep["records"][0]
    run = rec["runs"]["1d-sparse"]
    metrics = comm_metrics(rec["a"], block_partition(rec["n"], rec["p"]), f=rec["f"])
    cp = CostParams(alpha=1e-6, beta=1e-9, p=rec["p"], l_layers=1, f=rec["f"],
                    cut_p=metrics.cut_p)
    run.ledger.pair_max_data_bytes[(0, min(1, rec["p"] - 1))] = \
        (metrics.cut_p + 7) * rec["f"] * 8
    flagged = len(confront(predict_1d_terms(cp), run.ledger, cp, phases=1)["flags"]) >= 1
    ok = ok and flagged
    report(9, ok, f"{checked} aware 1D runs: pairwise rows <= cut_p, msgs <= "
                  f"2(P-1), zero flags; corrupted ledger raises a flag="
                  f"{flagged}")


def test_criterion_10_cli_determinism(tmp_path):
    commands = [
        ("partition", ["partition", "--gen", "star-augmented", "--n", "120",
                       "--k", "4", "--partitioner", "gvb", "--seed", "5"]),
        ("spmm-bench", ["spmm-bench", "--gen", "sbm", "--n", "64", "--p", "4",
                        "--c", "1", "--variant", "1d-sparse",
                        "--partitioner", "gvb", "--seed", "5"]),
        ("train", ["train", "--gen", "sbm", "--n", "48", "--p", "4", "--c", "1",
                   "--variant", "1d-sparse", "--partitioner", "gvb",
                   "--epochs", "5", "--hidden", "8", "--seed", "5"]),
        ("gen-graph", ["gen-graph", "--gen", "sbm", "--n", "32", "--seed", "5"]),
    ]
    ok = True
    for name, argv in commands:
        dumps = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            rc = cli_main(argv + ["--out-dir", str(out)])
            if rc != 0:
                ok = False
            dumps.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        if dumps[0] != dumps[1]:
            ok = False
    report(10, ok, f"{len(commands)} CLI commands re-run with identical "
                   f"config emit bit-identical files")
