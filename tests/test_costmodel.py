import math

import numpy as np
import pytest

from distgcn.costmodel import CostParams, confront, predict_1d_terms, predict_15d_terms
from distgcn.partition import block_partition, comm_metrics
from distgcn.sparse import csr_from_dense
from distgcn.spmm import run_spmm

from oracles import random_csr_dense


def reimplementation_1d(alpha, beta, p, layers, f, cut):
    # independent transcription of the bound, kept deliberately separate
    per_phase = alpha * (p - 1) + (p - 1) * cut * f * beta
    return 2 * layers * per_phase


def reimplementation_15d(alpha, beta, p, c, layers, f, cut):
    s = p // (c * c)
    log_term = math.log(s, 2) if s > 1 else 0.0
    return 2 * layers * (alpha * s * log_term + s * cut * f * beta)


def test_single_process_costs_nothing():
    cp = CostParams(alpha=1.0, beta=1.0, p=1, l_layers=3, f=8, cut_p=100)
    assert predict_1d_terms(cp)["total"] == 0.0


def test_direct_substitution():
    cp = CostParams(alpha=0.0, beta=1.0, p=3, l_layers=1, f=2, cut_p=5)
    assert predict_1d_terms(cp)["total"] == 40.0  # 2 * (2 * 5 * 2)


def test_1d_matches_reimplementation():
    rng = np.random.default_rng(0)
    for _ in range(25):
        alpha, beta = rng.random(), rng.random()
        p = int(rng.integers(1, 40))
        layers, f, cut = int(rng.integers(1, 6)), int(rng.integers(1, 64)), int(rng.integers(0, 500))
        cp = CostParams(alpha=alpha, beta=beta, p=p, l_layers=layers, f=f, cut_p=cut)
        assert predict_1d_terms(cp)["total"] == pytest.approx(
            reimplementation_1d(alpha, beta, p, layers, f, cut), rel=1e-15)


def test_15d_matches_reimplementation():
    rng = np.random.default_rng(1)
    for _ in range(25):
        alpha, beta = rng.random(), rng.random()
        c = int(rng.integers(1, 4))
        s = int(rng.integers(1, 10))
        p = s * c * c
        layers, f, cut = int(rng.integers(1, 6)), int(rng.integers(1, 64)), int(rng.integers(0, 500))
        cp = CostParams(alpha=alpha, beta=beta, p=p, c=c, l_layers=layers, f=f, cut_p=cut)
        assert predict_15d_terms(cp)["total"] == pytest.approx(
            reimplementation_15d(alpha, beta, p, c, layers, f, cut), rel=1e-15)


def test_15d_latency_vanishes_when_one_stage():
    cp = CostParams(alpha=5.0, beta=2.0, p=4, c=2, l_layers=1, f=3, cut_p=7)
    terms = predict_15d_terms(cp)
    assert terms["latency"] == 0.0
    assert terms["bandwidth"] == 2 * 1 * 7 * 3 * 2.0


def test_15d_rejects_bad_grid():
    with pytest.raises(ValueError, match="divide"):
        predict_15d_terms(CostParams(alpha=1, beta=1, p=6, c=2))["total"]


@pytest.mark.parametrize("p,c", [(0, 1), (4, 0)])
def test_cost_params_name_the_grid_contract(p, c):
    # the grid's lower bounds are ProcessGrid's, in its words
    with pytest.raises(ValueError, match=f"p and c must be at least 1 \\(p={p}, c={c}\\)"):
        CostParams(alpha=1, beta=1, p=p, c=c)


@pytest.mark.parametrize("field,value,low", [("f", 0, 1), ("l_layers", 0, 1), ("cut_p", -1, 0)])
def test_cost_params_name_the_field_they_reject(field, value, low):
    with pytest.raises(ValueError, match=f"cost model parameter {field} must be at least "
                                         f"{low}, got {value}"):
        CostParams(alpha=1, beta=1, p=4, **{field: value})


def test_1d_rejects_replication():
    with pytest.raises(ValueError, match="c == 1"):
        predict_1d_terms(CostParams(alpha=1, beta=1, p=4, c=2))["total"]


def test_monotone_in_each_parameter():
    base = dict(alpha=1.0, beta=2.0, p=8, l_layers=2, f=4, cut_p=10)
    t0 = predict_1d_terms(CostParams(**base))["total"]
    for key, bump in [("alpha", 2.0), ("beta", 3.0), ("l_layers", 3), ("f", 8),
                      ("cut_p", 20)]:
        t1 = predict_1d_terms(CostParams(**{**base, key: bump}))["total"]
        assert t1 >= t0


def test_bandwidth_term_linear_in_cut():
    base = dict(alpha=0.7, beta=2.0, p=8, l_layers=2, f=4)
    for k in (2, 4, 5):
        hi = predict_1d_terms(CostParams(cut_p=1000, **base))["bandwidth"]
        lo = predict_1d_terms(CostParams(cut_p=1000 // k, **base))["bandwidth"]
        assert lo == pytest.approx(hi / k, rel=1e-12)


def _bench(seed=7, n=40, p=4, f=3):
    rng = np.random.default_rng(seed)
    a = csr_from_dense(random_csr_dense(rng, n, density=0.1))
    h = rng.normal(size=(n, f))
    run = run_spmm(a, h, p, 1, "1d-sparse")
    metrics = comm_metrics(a, block_partition(n, p), f=f)
    cp = CostParams(alpha=1e-6, beta=1e-9, p=p, l_layers=1, f=f, cut_p=metrics.cut_p)
    return run, cp


def test_confront_clean_run_has_no_flags():
    run, cp = _bench()
    report = confront(predict_1d_terms(cp), run.ledger, cp, phases=1)
    assert report["flags"] == []
    assert report["measured"]["max_pair_data_rows"] <= cp.cut_p


def test_confront_block_diagonal_zero_measured():
    from distgcn.graphgen import clique_blocks
    a = clique_blocks(4, 8)
    h = np.ones((32, 2))
    run = run_spmm(a, h, 4, 1, "1d-sparse")
    cp = CostParams(alpha=1e-6, beta=1e-9, p=4, l_layers=1, f=2, cut_p=0)
    report = confront(predict_1d_terms(cp), run.ledger, cp, phases=1)
    assert report["measured"]["max_pair_data_rows"] == 0.0
    assert report["flags"] == []


def test_confront_flags_corrupted_ledger():
    run, cp = _bench()
    # negative control: inject an oversized message into the ledger
    run.ledger.pair_max_data_bytes[(0, 1)] = (cp.cut_p + 5) * cp.f * 8
    report = confront(predict_1d_terms(cp), run.ledger, cp, phases=1)
    kinds = {f["kind"] for f in report["flags"]}
    assert "pair-rows-exceed-bound" in kinds


def test_confront_flags_excess_messages():
    run, cp = _bench()
    run.ledger.counters["p2p"]["data_msgs_sent"][0] += 1000
    report = confront(predict_1d_terms(cp), run.ledger, cp, phases=1)
    kinds = {f["kind"] for f in report["flags"]}
    assert "message-count-exceeds-bound" in kinds


def test_confront_message_bound_per_phase():
    run, cp = _bench()
    report = confront(predict_1d_terms(cp), run.ledger, cp, phases=1)
    assert report["measured"]["max_rank_msgs"] <= 2 * (cp.p - 1)
