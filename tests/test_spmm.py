import dataclasses
import functools
import hashlib
import json
import random
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distgcn.gcn
import distgcn.runtime
import distgcn.spmm
from distgcn.gcn import TrainConfig, derive_train_ledger, train
from distgcn.graphgen import clique_blocks, sbm
from distgcn.partition import (Partition, apply_partition, block_partition, comm_metrics,
                               greedy_tv_partition, random_partition, volume_balanced_refine)
from distgcn.runtime import ProcessGrid, run_program
from distgcn.sparse import (CsrMatrix, csr_equal, csr_from_dense, gcn_normalize, local_spmm,
                            transpose_csr)
from distgcn.spmm import (VARIANTS, build_dist_matrices, derive_spmm_ledger, exchange_index_lists,
                          run_spmm, serial_reference, spmm_kernel, validate_variant_grid)

from oracles import (alltoallv_charges_by_loop, halo_exchange_by_loop, halo_layout_by_sort,
                     matmul_triple_loop, nnz_cols_dense_scan, random_csr_dense)


def random_instance(seed, n=24, f=3, density=0.15, symmetric=False):
    rng = np.random.default_rng(seed)
    dense = random_csr_dense(rng, n, density=density)
    if symmetric:
        dense = dense + dense.T
    return csr_from_dense(dense), rng.normal(size=(n, f))


# ---- layout construction ---------------------------------------------------

def _halo(op, grid, part, r) -> np.ndarray:
    """Rank r's halo: the occupied global columns of its block row in its
    column group, ascending."""
    i, g = grid.coords(r)
    s = grid.stage_count()
    return np.concatenate([op.cols(i, j) + part.boundaries[j][0]
                           for j in range(g * s, (g + 1) * s)])


def _rank_block(op, r, halo) -> CsrMatrix:
    """Rank r's rows of `op.matrix`, their global columns compressed to
    the ascending columns `halo`, all of which they must lie in."""
    m = op.matrix
    r0, r1 = op.row_off[r], op.row_off[r + 1]
    e0, e1 = m.row_ptr[r0], m.row_ptr[r1]
    cols = m.col_idx[e0:e1]
    assert np.isin(cols, halo).all()
    return CsrMatrix(r1 - r0, halo.size, m.row_ptr[r0:r1 + 1] - e0,
                     np.searchsorted(halo, cols), m.values[e0:e1])


def test_halo_operands_tile_matrix_exactly():
    a, _ = random_instance(0, n=22)
    at = transpose_csr(a)
    dense = at.to_dense()
    for p, c in ((4, 1), (8, 2)):
        grid = ProcessGrid(p, c)
        part = block_partition(22, grid.n_rows)
        family = "1d" if c == 1 else "15d"
        dm = build_dist_matrices(a, part.boundaries, grid, f"{family}-sparse")
        op = dm.fwd
        s = grid.stage_count()
        assert op.matrix.shape == (op.row_off[-1], 22)
        assert op.row_off[0] == 0
        assert op.owners == [b * c + b // s for b in range(grid.n_rows)]
        # in 1D the operand is the transpose itself
        if c == 1:
            _assert_same_csr(op.matrix, at)
        for i, (r0, r1) in enumerate(part.boundaries):
            for g in range(c):
                r = grid.rank_of(i, g)
                halo = _halo(op, grid, part, r)
                assert np.all(np.diff(halo) > 0)
                local = _rank_block(op, r, halo)
                assert local.shape == (r1 - r0, halo.size)
                expanded = np.zeros((r1 - r0, 22))
                expanded[:, halo] = local.to_dense()
                group = range(g * s, (g + 1) * s)
                c0, c1 = part.boundaries[group[0]][0], part.boundaries[group[-1]][1]
                expected = np.zeros((r1 - r0, 22))
                expected[:, c0:c1] = dense[r0:r1, c0:c1]
                np.testing.assert_array_equal(expanded, expected)
        # the ranks' rows hold every stored entry of the matrix once
        assert op.matrix.nnz == a.nnz


def test_nnz_cache_matches_fresh_computation():
    a, _ = random_instance(1, n=18)
    for p, c in ((3, 1), (8, 2)):
        rows = ProcessGrid(p, c).n_rows
        part = greedy_tv_partition(a, rows)
        a2, _ = apply_partition(a, None, part)
        dm = build_dist_matrices(a2, part.boundaries, ProcessGrid(p, c),
                                 "1d-sparse" if c == 1 else "15d-sparse")
        assert not dm.symmetric
        dense = a2.to_dense()
        for op, mat in ((dm.fwd, dense.T), (dm.bwd, dense)):
            for j in range(rows):
                for i in range(rows):
                    expected = nnz_cols_dense_scan(mat, part.boundaries, i, j)
                    assert op.cols(i, j).tolist() == expected
                # owner j's send plan is its column's runs, in block-row order
                plan = op.idx[op.ptr[j, 0]:op.ptr[j, -1]]
                np.testing.assert_array_equal(
                    plan, np.concatenate([op.cols(i, j) for i in range(rows)]))
                np.testing.assert_array_equal(
                    np.diff(op.ptr[j]), [op.cols(i, j).size for i in range(rows)])


def test_symmetric_matrix_shares_operand():
    a, _ = random_instance(2, n=16, symmetric=True)
    dm = build_dist_matrices(a, block_partition(16, 4).boundaries, ProcessGrid(4, 1),
                             "1d-sparse")
    assert dm.symmetric
    b, _ = random_instance(3, n=16, symmetric=False)
    dm2 = build_dist_matrices(b, block_partition(16, 4).boundaries, ProcessGrid(4, 1),
                              "1d-sparse")
    assert not dm2.symmetric


# every valid (variant, p, c) the layout oracle runs on, c = 3 and 4 included
_LAYOUT_GRIDS = ([(v, p, 1) for v in ("1d-sparse", "1d-oblivious") for p in (1, 2, 3, 5, 8)]
                 + [(v, p, c) for v in ("15d-sparse", "15d-oblivious")
                    for p, c in ((1, 1), (3, 1), (4, 2), (8, 2), (12, 2), (9, 3), (18, 3),
                                 (16, 4), (32, 4))])


def _assert_same_array(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _assert_same_csr(got, expected):
    assert got.shape == expected.shape
    for field in ("row_ptr", "col_idx", "values"):
        _assert_same_array(getattr(got, field), getattr(expected, field))


def _random_layout(seed, grid_case, n, symmetric, contiguous):
    """The grid, a random partition that may leave parts empty, the
    matrix permuted to it and its operands, of a hypothesis example."""
    variant, p, c = grid_case
    grid = ProcessGrid(p, c)
    rng = np.random.default_rng(seed)
    dense = random_csr_dense(rng, n, density=float(rng.choice([0.05, 0.2, 0.6])))
    if symmetric:
        dense = dense + dense.T
    assignment = rng.integers(0, grid.n_rows, n)
    if contiguous:
        assignment = np.sort(assignment)
    part = Partition.from_assignment(assignment, grid.n_rows)
    a2, _ = apply_partition(csr_from_dense(dense), None, part)
    return grid, part, a2, build_dist_matrices(a2, part.boundaries, grid, variant)


_LAYOUT_CASES = (st.integers(min_value=0, max_value=2 ** 31 - 1), st.sampled_from(_LAYOUT_GRIDS),
                 st.integers(min_value=1, max_value=30), st.booleans(), st.booleans())


def _assert_charges_sends(schedule, sends, p):
    """`schedule` charges, count by count, the exchange in which rank s
    sends rank d the rows sends[s, d]: per rank and per message."""
    counts = [[len(sends.get((s, d), ())) for d in range(p)] for s in range(p)]
    *per_rank, wire = alltoallv_charges_by_loop(counts)
    for got, expected in zip((schedule.sent_rows, schedule.sent_msgs, schedule.received_rows,
                              schedule.received_msgs), per_rank):
        assert got.tolist() == expected
    pairs = zip(schedule.wire_src.tolist(), schedule.wire_dst.tolist())
    assert dict(zip(pairs, schedule.wire_rows.tolist())) == wire


@settings(max_examples=120, deadline=None)
@given(*_LAYOUT_CASES)
def test_halo_layout_equals_the_sort_based_oracle(seed, grid_case, n, symmetric, contiguous):
    # the operands, the pair-run index and the index lists, field by field
    # against one comparison sort of every entry's key and per-rank loops
    # (the phase plans' charges are checked with the ranks' reads)
    variant, p, c = grid_case
    grid, part, a2, dm = _random_layout(seed, grid_case, n, symmetric, contiguous)
    d2 = a2.to_dense()
    assert dm.symmetric == np.array_equal(d2, d2.T)
    heights = np.diff([0] + [e for _, e in part.boundaries])
    aware = variant.endswith("sparse")
    for op, mat in ((dm.fwd, d2.T), (dm.bwd, d2)):
        layout = halo_layout_by_sort(csr_from_dense(mat), part.boundaries,
                                     grid.stage_count())
        _assert_same_csr(op.matrix, layout[0])
        for got, expected in zip((op.row_off, op.idx, op.ptr), layout[1:]):
            _assert_same_array(got, expected)
        sends, halos = halo_exchange_by_loop(op.idx, op.ptr, heights, c, aware)
        if aware:
            assert len(op.index[1]) == p
            for got, expected in zip(op.index[1], halos):
                _assert_same_array(got, expected)
            # every rank sends the whole of its halo, to the stage owners
            # of its column group in turn: the aware phase transposed
            assert op.index[0].heights == [h.size for h in halos]
            _assert_charges_sends(op.index[0], {(d, s): rows for (s, d), rows in sends.items()},
                                  p)
        else:
            assert op.index is None


@settings(max_examples=120, deadline=None)
@given(*_LAYOUT_CASES)
def test_every_rank_reads_only_rows_its_phase_delivers(seed, grid_case, n, symmetric,
                                                       contiguous):
    # a phase multiplies with the owners' blocks where they are, so a
    # send plan that left out a row would go unseen in the product: every
    # global column of a rank's rows of the operand must be a row its
    # stage owners send it, and in the aware forms every row sent one that
    # its rows read; each (owner, reader) pair is charged the rows sent
    variant, p, c = grid_case
    grid, part, a2, dm = _random_layout(seed, grid_case, n, symmetric, contiguous)
    heights = np.diff([0] + [e for _, e in part.boundaries])
    aware = variant.endswith("sparse")
    for op in (dm.fwd, dm.bwd):
        sends, _ = halo_exchange_by_loop(op.idx, op.ptr, heights, c, aware)
        m = op.matrix
        for r in range(p):
            # the global rows of the senders' blocks that reach rank r
            delivered = np.sort(np.concatenate([np.zeros(0, np.int64)] + [
                rows + part.boundaries[grid.coords(s)[0]][0]
                for (s, d), rows in sends.items() if d == r]))
            e0, e1 = m.row_ptr[op.row_off[r]], m.row_ptr[op.row_off[r + 1]]
            read = np.unique(m.col_idx[e0:e1])
            if aware:
                assert delivered.tolist() == read.tolist(), (r, variant)
            else:
                assert np.isin(read, delivered).all(), (r, variant)
        _assert_charges_sends(op.schedule, sends, p)


@pytest.mark.parametrize("variant,p,c", [
    ("1d-oblivious", 8, 1), ("1d-sparse", 8, 1),
    ("15d-oblivious", 8, 1), ("15d-sparse", 8, 1),
    ("15d-oblivious", 8, 2), ("15d-sparse", 8, 2),
    ("15d-oblivious", 32, 4), ("15d-sparse", 32, 4)])
def test_phase_schedules_hold_counts_only(variant, p, c):
    # every schedule is its count matrix's charges: no array of a phase's
    # or an index exchange's grows with the rows it stands for, which live
    # in the operand's occupied-column index (aware) or are whole block
    # rows (oblivious). Two of the partition's parts are empty, so two
    # owners send no row.
    grid = ProcessGrid(p, c)
    k = grid.n_rows
    a, _ = random_instance(37, n=48, density=0.2)
    assignment = np.random.default_rng(5).integers(1, k - 1, 48)
    part = Partition.from_assignment(assignment, k)
    assert [s == e for s, e in part.boundaries].count(True) == 2
    a2, _ = apply_partition(a, None, part)
    dm = build_dist_matrices(a2, part.boundaries, grid, variant)
    assert not dm.symmetric
    heights = np.diff([0] + [e for _, e in part.boundaries])
    aware = variant.endswith("sparse")
    for op in (dm.fwd, dm.bwd):
        assert (op.index is not None) == aware
        schedules = [op.schedule] + ([op.index[0]] if aware else [])
        for schedule in schedules:
            for field in dataclasses.fields(schedule):
                assert np.size(getattr(schedule, field.name)) <= p * p, field.name
        sends, _ = halo_exchange_by_loop(op.idx, op.ptr, heights, c, aware)
        _assert_charges_sends(op.schedule, sends, p)


def test_variant_grid_validation_names_constraint():
    with pytest.raises(ValueError, match="c == 1"):
        validate_variant_grid("1d-sparse", 4, 2)
    with pytest.raises(ValueError, match=r"c\*c to divide p"):
        validate_variant_grid("15d-sparse", 6, 2)
    with pytest.raises(ValueError, match="unknown variant"):
        validate_variant_grid("2d", 4, 1)
    for p, c in ((4, 0), (0, 1), (-2, 1)):
        with pytest.raises(ValueError, match="p and c must be at least 1"):
            validate_variant_grid("15d-sparse", p, c)
    # the grid contract has one owner, which names both values
    for p, c in ((0, 1), (4, 0)):
        with pytest.raises(ValueError, match=rf"p and c must be at least 1 \(p={p}, c={c}\)"):
            ProcessGrid(p, c)
    validate_variant_grid("15d-oblivious", 8, 2)


def _spy_plans(monkeypatch) -> list:
    """The names of the threads that call `plan_all_to_allv` from now on."""
    threads = []

    def spy(*args):
        threads.append(threading.current_thread().name)
        return plan(*args)

    plan = distgcn.spmm.plan_all_to_allv
    monkeypatch.setattr(distgcn.spmm, "plan_all_to_allv", spy)
    return threads


@pytest.mark.parametrize("variant,p,c", [("1d-sparse", 4, 1), ("15d-sparse", 8, 2)])
def test_every_exchange_is_planned_at_setup_on_the_calling_thread(variant, p, c,
                                                                  monkeypatch):
    # a non-symmetric matrix has two operands, each with its phase and its
    # index exchange; no rank thread plans one
    threads = _spy_plans(monkeypatch)
    a, x = random_instance(29, n=24, f=3)
    assert not csr_equal(transpose_csr(a), a)
    train(a, x, np.arange(24) % 3, np.ones(24, bool), TrainConfig(epochs=2, variant=variant),
          p=p, c=c)
    assert threads == [threading.current_thread().name] * 4


def test_build_dist_matrices_checks_the_variant_before_planning(monkeypatch):
    threads = _spy_plans(monkeypatch)
    a, _ = random_instance(30, n=16)
    bounds = block_partition(16, 4).boundaries
    with pytest.raises(ValueError, match="unknown variant"):
        build_dist_matrices(a, bounds, ProcessGrid(4, 1), "2d-sparse")
    with pytest.raises(ValueError, match="c == 1"):
        build_dist_matrices(a, bounds, ProcessGrid(8, 2), "1d-sparse")
    assert threads == []


# ---- serial oracle equivalence ---------------------------------------------

def test_serial_reference_matches_triple_loop():
    a, h = random_instance(4, n=12)
    np.testing.assert_allclose(serial_reference(a, h),
                               matmul_triple_loop(a.to_dense().T, h), atol=1e-12)


def test_single_process_equals_local_product():
    a, h = random_instance(5, n=10)
    run = run_spmm(a, h, 1, 1, "1d-sparse")
    np.testing.assert_array_equal(run.z, serial_reference(a, h))
    assert run.ledger.total_bytes_sent() == 0.0


@pytest.mark.parametrize("variant,p,c", [
    ("1d-oblivious", 2, 1), ("1d-oblivious", 4, 1),
    ("1d-sparse", 2, 1), ("1d-sparse", 4, 1),
    ("15d-oblivious", 4, 2), ("15d-oblivious", 8, 2),
    ("15d-sparse", 4, 2), ("15d-sparse", 8, 2),
] + [(v, p, c) for v in ("15d-oblivious", "15d-sparse") for p, c in ((16, 4), (32, 4), (27, 3))])
def test_variants_match_serial_oracle(variant, p, c):
    a, h = random_instance(p * 7 + c, n=32, f=4)
    for part in (None, greedy_tv_partition(a, ProcessGrid(p, c).n_rows)):
        run = run_spmm(a, h, p, c, variant, partition=part)
        np.testing.assert_allclose(run.z, serial_reference(a, h), atol=1e-10)


def test_variants_match_oracle_on_variable_boundaries():
    a, h = random_instance(6, n=30, f=2, symmetric=True)
    part = greedy_tv_partition(a, 3)
    for variant in ("1d-oblivious", "1d-sparse"):
        run = run_spmm(a, h, 3, 1, variant, partition=part)
        np.testing.assert_allclose(run.z, serial_reference(a, h), atol=1e-10)
    # part 2 is unused: a zero-width block row, so two blocks start at the
    # same row
    assignment = np.arange(30) % 3
    assignment[assignment == 2] = 3
    part = Partition.from_assignment(assignment, 4)
    assert part.boundaries[2] == (20, 20)
    for variant, p, c in [(v, 4, 1) for v in VARIANTS] + [("15d-oblivious", 8, 2),
                                                         ("15d-sparse", 8, 2)]:
        run = run_spmm(a, h, p, c, variant, partition=part)
        np.testing.assert_allclose(run.z, serial_reference(a, h), atol=1e-10)
        # the empty block row has nothing to send, not even an empty
        # message; only the all-reduce charges every member
        for r in ProcessGrid(p, c).row_group(2):
            for prim in ("p2p", "alltoallv", "broadcast"):
                assert run.ledger.counters[prim]["msgs_sent"][r] == 0, (variant, r, prim)


def test_c1_variants_match_serial_reference_bitwise():
    # every c=1 variant accumulates in ascending column of the partitioned
    # matrix, as the serial product of that matrix does
    a, h = random_instance(37, n=40, f=5, density=0.3, symmetric=True)
    for part in (block_partition(40, 4), greedy_tv_partition(a, 4)):
        a2, h2 = apply_partition(a, h, part)
        ref = serial_reference(a2, h2)[part.perm]
        for variant in VARIANTS:
            run = run_spmm(a, h, 4, 1, variant, partition=part)
            assert np.array_equal(run.z, ref), variant
    # the block partition keeps the vertex order, so there the product is
    # bitwise the unpermuted one
    assert np.array_equal(run_spmm(a, h, 4, 1, "1d-sparse").z, serial_reference(a, h))


def test_1d_sparse_at_p256_matches_serial_reference_bitwise():
    # the paper's largest process count: ranks of two or three rows,
    # greedy-tv parts of every size, some of them empty
    a, h = random_instance(256, n=640, f=4, density=0.01)
    for part in (block_partition(640, 256), greedy_tv_partition(a, 256)):
        a2, h2 = apply_partition(a, h, part)
        run = run_spmm(a, h, 256, 1, "1d-sparse", partition=part)
        assert np.array_equal(run.z, serial_reference(a2, h2)[part.perm])
        assert run.ledger.conservation_ok()
        # every occupied column of an off-diagonal block moves once
        op = run.dm.fwd
        remote = op.idx.size - sum(op.cols(i, i).size for i in range(256))
        assert run.ledger.total_bytes_sent("data") == 8 * 4 * remote


# ---- one multiply per phase -------------------------------------------------

def _own_products(op, grid, part, h2):
    """Every rank's own product, in rank order: `local_spmm` of its block
    with its halo gathered from the (partitioned) dense operand h2."""
    products = []
    for r in range(grid.p):
        halo = _halo(op, grid, part, r)
        products.append(local_spmm(_rank_block(op, r, halo), h2[halo]))
    return products


def _fused_and_per_rank_products(a, h, p, c, variant, part):
    """Each rank's result of `spmm_kernel`, and the same as separate
    per-rank multiplies make it (`_own_products`), the c partial products
    of a grid row summed in rank order."""
    grid = ProcessGrid(p, c)
    a2, h2 = apply_partition(a, h, part)
    dm = build_dist_matrices(a2, part.boundaries, grid, variant)
    op = dm.fwd

    def program(comm):
        r0, r1 = dm.boundaries[comm.coords[0]]
        exchange_index_lists(comm, op)
        return spmm_kernel(comm, op, h2[r0:r1])

    fused = run_program(p, c, program).results
    own = _own_products(op, grid, part, h2)
    per_rank = []
    for i in range(grid.n_rows):
        z = None
        for g in range(c):
            zr = own[grid.rank_of(i, g)]
            z = zr if z is None else z + zr
        per_rank += [z] * c
    return fused, per_rank, op


def _dense_rows_instance():
    # rows and columns 0..149 dense, the rest sparse: at p=8, c=2 rank 0
    # alone holds 150 x 300 entries, so the one multiply of a phase adds
    # its rows' long levels past every other rank's short ones
    rng = np.random.default_rng(41)
    dense = random_csr_dense(rng, 600, density=0.01)
    dense[:150] = rng.uniform(0.5, 1.5, size=(150, 600))
    dense[:, :150] = dense[:150].T
    return csr_from_dense(dense), rng.normal(size=(600, 3))


_GRID_CASES = [(v, 8, 1) for v in VARIANTS] + [("15d-oblivious", 8, 2), ("15d-sparse", 8, 2)]


@pytest.mark.parametrize("variant,p,c", _GRID_CASES)
def test_fused_multiply_matches_per_rank_products_on_a_rank_over_the_bound(variant, p, c):
    a, h = _dense_rows_instance()
    part = block_partition(600, ProcessGrid(p, c).n_rows)
    fused, per_rank, op = _fused_and_per_rank_products(a, h, p, c, variant, part)
    assert op.matrix.row_ptr[op.row_off[1]] > 150 * 150  # rank 0's entries
    for got, want in zip(fused, per_rank, strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [1, 16, 40, 1 << 14])
@pytest.mark.parametrize("variant,p,c", [(v, 32, 1) for v in VARIANTS]
                         + [("15d-oblivious", 64, 2), ("15d-sparse", 64, 2)])
def test_fused_multiply_matches_per_rank_products_with_empty_ranks(variant, p, c, seed,
                                                                   monkeypatch):
    # zero-row ranks, which send nothing and multiply no row, arriving in a
    # seeded random order, so any of them may be the last arrival that
    # completes a phase
    rng = random.Random(seed)
    monkeypatch.setattr(distgcn.runtime._Runtime, "pick",
                        staticmethod(lambda ready: rng.randrange(len(ready))))
    graph, h, _ = sbm(100, blocks=4, p_in=0.1, p_out=0.01, seed=0, feature_dim=3)
    a = gcn_normalize(graph)
    part = greedy_tv_partition(a, ProcessGrid(p, c).n_rows)
    assert any(s == e for s, e in part.boundaries)  # a zero-row rank
    fused, per_rank, op = _fused_and_per_rank_products(a, h, p, c, variant, part)
    for got, want in zip(fused, per_rank, strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("partitioner", ["block", "greedy-tv"])
@pytest.mark.parametrize("variant,p,c", [(v, p, c) for v in ("15d-oblivious", "15d-sparse")
                                         for p, c in ((16, 4), (32, 4), (27, 3))])
def test_fused_multiply_matches_per_rank_products_on_c3_and_c4_grids(variant, p, c,
                                                                     partitioner):
    # column groups strided by 3 and 4, with one or two stages each
    graph, h, _ = sbm(150, blocks=4, p_in=0.1, p_out=0.01, seed=1, feature_dim=3)
    a = gcn_normalize(graph)
    rows = ProcessGrid(p, c).n_rows
    part = (block_partition(150, rows) if partitioner == "block"
            else greedy_tv_partition(a, rows))
    fused, per_rank, op = _fused_and_per_rank_products(a, h, p, c, variant, part)
    for got, want in zip(fused, per_rank, strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("variant,p,c", [("1d-sparse", 32, 1), ("1d-oblivious", 32, 1),
                                         ("15d-sparse", 64, 2), ("15d-oblivious", 64, 2)])
def test_training_hands_back_epoch_0s_layer_0_products_read_only(variant, p, c,
                                                                  monkeypatch):
    # layer 0's forward operand is the fixed features, so its products are
    # made before the run and handed back in every epoch, through zero-row
    # ranks too: what every rank receives must be the bits of its own
    # multiply, and no rank may write to them
    received = {}  # rank -> what each of its multiplying exchanges returned
    index_schedules = []  # the index exchanges' schedules, which multiply nothing
    all_to_allv = distgcn.runtime.Comm.all_to_allv
    build = distgcn.gcn.build_dist_matrices

    def spy(comm, buf, schedule, then):
        out = all_to_allv(comm, buf, schedule, then)
        if not any(schedule is index for index in index_schedules):
            received.setdefault(comm.rank, []).append(out)
        return out

    def build_spy(*args):
        dm = build(*args)
        index_schedules.extend(op.index[0] for op in (dm.fwd, dm.bwd) if op.index is not None)
        return dm

    monkeypatch.setattr(distgcn.runtime.Comm, "all_to_allv", spy)
    monkeypatch.setattr(distgcn.gcn, "build_dist_matrices", build_spy)
    graph, x, y = sbm(100, blocks=4, p_in=0.1, p_out=0.01, seed=0, feature_dim=3)
    a = gcn_normalize(graph)
    grid = ProcessGrid(p, c)
    part = greedy_tv_partition(a, grid.n_rows)
    assert any(s == e for s, e in part.boundaries)  # a zero-row rank
    cfg = TrainConfig(epochs=3, variant=variant)
    train(a, x, y, np.arange(100) % 2 == 0, cfg, p=p, c=c, partition=part)
    a2, x2 = apply_partition(a, x, part)
    own = _own_products(build_dist_matrices(a2, part.boundaries, grid, variant).fwd, grid,
                        part, x2)
    for r in range(p):
        # each epoch's first multiplying phase is layer 0's forward one
        first, *later = received[r][::2 * (cfg.layers - 1)]
        assert len(later) == cfg.epochs - 1
        assert first.tobytes() == own[r].tobytes()
        for z in [first, *later]:
            assert z.shape == own[r].shape and z.tobytes() == first.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                z[...] = 0.0


# ---- volumes ---------------------------------------------------------------

def test_oblivious_broadcasts_full_rows_even_when_useless():
    a = gcn_normalize(clique_blocks(4, 6))
    h = np.ones((24, 2))
    run = run_spmm(a, h, 4, 1, "1d-oblivious")
    np.testing.assert_allclose(run.z, serial_reference(a, h), atol=1e-12)
    per_rank = run.ledger.counters["alltoallv"]["data_bytes_sent"].tolist()
    assert per_rank == [3 * 6 * 2 * 8.0] * 4  # (p-1) x block rows x f x 8
    assert run.ledger.total_bytes_sent("data") == sum(per_rank)


def test_sparse_block_diagonal_moves_nothing():
    a = gcn_normalize(clique_blocks(4, 6))
    h = np.ones((24, 2))
    run = run_spmm(a, h, 4, 1, "1d-sparse")
    np.testing.assert_allclose(run.z, serial_reference(a, h), atol=1e-12)
    assert run.ledger.total_bytes_sent() == 0.0


def test_sparse_messages_sized_by_occupied_columns():
    a, h = random_instance(7, n=16, f=3)
    part = block_partition(16, 4)
    run = run_spmm(a, h, 4, 1, "1d-sparse")
    dm = run.dm
    m = comm_metrics(a, part, f=3)
    # one message per rank pair with occupied columns, and none elsewhere
    rows = np.array([[0 if s == d else dm.fwd.cols(d, s).size for d in range(4)]
                     for s in range(4)])
    np.testing.assert_array_equal(run.ledger.pair_max_data_bytes, rows * (8 * 3))
    assert rows.max() <= m.cut_p
    assert all(type(v) is int for v in run.ledger.to_dict()["pair_max_data_bytes"].values())


def test_volume_dominance_within_families():
    for seed in range(5):
        a, h = random_instance(100 + seed, n=40, f=4, density=0.1)
        d1o = run_spmm(a, h, 4, 1, "1d-oblivious").ledger.total_bytes_sent("data")
        d1s = run_spmm(a, h, 4, 1, "1d-sparse").ledger.total_bytes_sent("data")
        d15o = run_spmm(a, h, 4, 2, "15d-oblivious").ledger.total_bytes_sent("data")
        d15s = run_spmm(a, h, 4, 2, "15d-sparse").ledger.total_bytes_sent("data")
        assert d1s <= d1o
        assert d15s <= d15o


def test_dominance_strict_when_off_diagonal_column_empty():
    a, h = random_instance(11, n=32, f=2, density=0.05)
    run_s = run_spmm(a, h, 4, 1, "1d-sparse")
    dm = run_s.dm
    widths = [e - s for s, e in dm.boundaries]
    has_slack = any(dm.fwd.cols(i, j).size < widths[j]
                    for i in range(4) for j in range(4) if i != j)
    assert has_slack  # at 5% density some off-diagonal column is empty
    d_obl = run_spmm(a, h, 4, 1, "1d-oblivious").ledger.total_bytes_sent("data")
    assert run_s.ledger.total_bytes_sent("data") < d_obl


def test_index_traffic_charged_once_per_setup():
    a, h = random_instance(13, n=20, f=2)
    run = run_spmm(a, h, 4, 1, "1d-sparse")
    dm = run.dm
    expected = 8 * sum(dm.fwd.cols(i, j).size
                       for i in range(4) for j in range(4) if i != j)
    assert run.ledger.total_bytes_sent("index") == expected


# ---- cross-variant structure ------------------------------------------------

def test_sparse_equals_oblivious_bitwise_1d():
    a, h = random_instance(17, n=28, f=3)
    z1 = run_spmm(a, h, 4, 1, "1d-oblivious").z
    z2 = run_spmm(a, h, 4, 1, "1d-sparse").z
    assert np.array_equal(z1, z2)


def test_sparse_equals_oblivious_bitwise_15d():
    a, h = random_instance(18, n=24, f=3)
    z1 = run_spmm(a, h, 8, 2, "15d-oblivious").z
    z2 = run_spmm(a, h, 8, 2, "15d-sparse").z
    assert np.array_equal(z1, z2)


def test_c1_reduction_results_and_volumes():
    a, h = random_instance(19, n=30, f=4)
    for flavor in ("oblivious", "sparse"):
        run_1d = run_spmm(a, h, 4, 1, f"1d-{flavor}")
        run_15d = run_spmm(a, h, 4, 1, f"15d-{flavor}")
        assert np.array_equal(run_1d.z, run_15d.z)
        # one code path: the whole ledger is the same
        assert run_1d.ledger.to_dict() == run_15d.ledger.to_dict()


def test_15d_stage_count():
    a, h = random_instance(23, n=32, f=2)
    grid = ProcessGrid(8, 2)
    s = grid.stage_count()
    assert s == 2
    run = run_spmm(a, h, 8, 2, "15d-oblivious")
    # the oblivious schedule delivers one full block row per stage, minus
    # the stage a process serves itself (only ranks inside their column's
    # stage band own one)
    msgs = run.ledger.counters["alltoallv"]["msgs_received"]
    for rank in range(8):
        i, j = grid.coords(rank)
        own = 1 if j * s <= i < (j + 1) * s else 0
        assert msgs[rank] == s - own


def test_block_diagonal_15d_only_allreduce_traffic():
    a = gcn_normalize(clique_blocks(4, 8))
    h = np.ones((32, 3))
    run = run_spmm(a, h, 8, 2, "15d-sparse")
    np.testing.assert_allclose(run.z, serial_reference(a, h), atol=1e-12)
    assert run.ledger.counters["alltoallv"]["bytes_sent"].sum() == 0.0
    assert run.ledger.counters["allreduce"]["bytes_sent"].sum() > 0.0


def test_run_rejects_wrong_partition_size():
    a, h = random_instance(29, n=16)
    with pytest.raises(ValueError, match="parts"):
        run_spmm(a, h, 4, 1, "1d-sparse", partition=block_partition(16, 3))


def test_run_rejects_1d_dense_operand():
    a, h = random_instance(29, n=16)
    with pytest.raises(ValueError, match="must be 2-D"):
        run_spmm(a, h[:, 0], 4, 1, "1d-sparse")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_run_rejects_non_finite_dense_operand(bad):
    a, h = random_instance(29, n=16)
    h[5, 1] = bad
    with pytest.raises(ValueError, match=r"dense operand h must be finite \(found NaN or inf\)"):
        run_spmm(a, h, 4, 1, "1d-sparse")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_run_rejects_non_finite_matrix(bad):
    # a NaN or inf entry used to come back as NaN or inf product rows
    a, h = random_instance(29, n=16)
    values = a.values.copy()
    values[2] = bad
    a = CsrMatrix(16, 16, a.row_ptr, a.col_idx, values)
    message = f"the matrix must be finite, but entry ({a.row_of_nnz()[2]}, {a.col_idx[2]}) is {bad}"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_spmm(a, h, 4, 1, "1d-sparse")


def test_gather_respects_partition_permutation():
    a, h = random_instance(31, n=21, f=2, symmetric=True)
    ref = serial_reference(a, h)
    part = greedy_tv_partition(a, 4)
    run = run_spmm(a, h, 4, 1, "1d-sparse", partition=part)
    np.testing.assert_allclose(run.z, ref, atol=1e-10)


# ---- the identity partition -------------------------------------------------

def _train_bytes(res):
    return ([h["loss"] for h in res.history],
            [[w.tobytes() for w in ws] for ws in res.weights_per_rank], res.ledger.to_dict())


@pytest.mark.parametrize("variant,p,c", [("1d-sparse", 4, 1), ("1d-oblivious", 3, 1),
                                         ("15d-sparse", 8, 2), ("15d-oblivious", 18, 3)])
def test_identity_partition_reads_the_inputs_as_a_moving_one_would(variant, p, c,
                                                                   monkeypatch):
    # no partition, the block partition and the same blocks as an assignment
    # all keep every vertex in place, so both drivers read the caller's
    # matrix and features, here read-only; their outputs are those of the
    # relabelled copies a partition that moves vertices makes
    n = 26
    a, x = random_instance(41, n=n, f=3)
    assert not csr_equal(transpose_csr(a), a)
    labels, mask = np.arange(n) % 3, np.arange(n) % 4 != 1
    for arr in (a.row_ptr, a.col_idx, a.values, x, labels, mask):
        arr.setflags(write=False)
    cfg = TrainConfig(epochs=2, variant=variant)
    block = block_partition(n, p // c)

    def runs(part):
        return (run_spmm(a, x, p, c, variant, partition=part),
                train(a, x, labels, mask, cfg, p=p, c=c, partition=part))

    kept = [runs(part) for part in (None, block, Partition.from_assignment(block.assignment,
                                                                           p // c))]
    layout = distgcn.spmm._layout_partition

    def moving(*args):
        part, h, _ = layout(*args)
        return part, h, True

    monkeypatch.setattr(distgcn.spmm, "_layout_partition", moving)
    monkeypatch.setattr(distgcn.gcn, "_layout_partition", moving)
    spmm_moved, train_moved = runs(block)
    for spmm_kept, train_kept in kept:
        assert spmm_kept.z.tobytes() == spmm_moved.z.tobytes()
        assert spmm_kept.ledger.to_dict() == spmm_moved.ledger.to_dict()
        assert _train_bytes(train_kept) == _train_bytes(train_moved)
        # a 1D operand is its matrix: here the caller's
        assert (spmm_kept.dm.bwd.matrix is a) == (c == 1)
    assert not np.shares_memory(spmm_moved.dm.bwd.matrix.row_ptr, a.row_ptr)


def test_identity_partition_of_another_size_is_rejected():
    a, x = random_instance(42, n=16)
    labels, mask = np.arange(16) % 2, np.ones(16, bool)
    cfg = TrainConfig(epochs=1, variant="15d-sparse")
    for run in (lambda part: run_spmm(a, x, 4, 1, "1d-sparse", partition=part),
                lambda part: train(a, x, labels, mask, cfg, p=8, c=2, partition=part)):
        with pytest.raises(ValueError, match="partition does not match the matrix"):
            run(block_partition(17, 4))


def test_apply_partition_returns_fresh_arrays():
    a, x = random_instance(43, n=20, symmetric=True)
    for part in (block_partition(20, 4), greedy_tv_partition(a, 4)):
        a2, x2 = apply_partition(a, x, part)
        for out in (a2.row_ptr, a2.col_idx, a2.values, x2):
            for arr in (a.row_ptr, a.col_idx, a.values, x):
                assert not np.shares_memory(out, arr)


# ---- pinned ledgers ----------------------------------------------------------

def _pin_digest(ledger, *arrays):
    """sha256 of the serialized ledger and the given arrays' bytes. The JSON
    form tells an int pair maximum from an equal float one."""
    digest = hashlib.sha256(json.dumps(ledger.to_dict(), sort_keys=True).encode())
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


# a rework of the kernels or collectives that keeps every product bit and
# ledger byte keeps these
_PINNED_RUNS = {
    ("1d-oblivious", "block"):
        "6e596db47308421148caf6e708690c72b59db7f04bdb5b65ab4c1181fd44e94d",
    ("1d-oblivious", "greedy-tv"):
        "4141259c15f19300aa4b0a33a5e541f79c5c7e91586d7d8a610ffe337cb886dd",
    ("1d-sparse", "block"):
        "164f7748038f56dfe8c96ef874ae13c2ef2318b2f6106e04f516127dc51ef97c",
    ("1d-sparse", "greedy-tv"):
        "0c085090b7de89da9629c879c6f13daee73e5c7b709e90e5cc31856dca57560e",
    ("15d-oblivious", "block"):
        "5bed655c64e102318b022c1a941e023b44f084f86c75f0e98777cee8b1b0268e",
    ("15d-oblivious", "greedy-tv"):
        "d062bce8ee0ee4a381f0db8ba7f9459693c1202b9462991384d5b3ea16892ae3",
    ("15d-sparse", "block"):
        "18d728f5386866343908260668b7dbd02439aac36b6eb11957be814d98fd43d0",
    ("15d-sparse", "greedy-tv"):
        "4956287d597fbcadee6734083e4386551474d142c6c12e6b93f2a3a121cd378d",
}
_PINNED_TRAIN = "2c19da80efd971aa82d59427766b6d389afbed6d2ba8d48e39781c0edd2ac9ed"
_PINNED_TRAIN_15D = "f986251168bd09dc1c79717c6f874c69d116bffc8e5c047bfafe94838069d3a5"


def _pinned_spmm_input():
    graph, h, _ = sbm(400, blocks=8, p_in=0.1, p_out=0.01, seed=3, feature_dim=8)
    # signed weights from the seeded stream rather than gcn_normalize's
    # power function, so the product bytes do not depend on the platform
    weights = np.random.default_rng(3).uniform(-2.0, 2.0, graph.nnz)
    return CsrMatrix(400, 400, graph.row_ptr, graph.col_idx, weights), h


def _pinned_spmm(a, h, variant, partitioner):
    c = 2 if variant.startswith("15d") else 1
    rows = ProcessGrid(8, c).n_rows
    part = block_partition(400, rows) if partitioner == "block" else greedy_tv_partition(a, rows)
    return run_spmm(a, h, 8, c, variant, partition=part)


def _nonsymmetric_input():
    """A non-symmetric matrix, so the backward operand is its own operand
    with its own index exchange, its features, labels and training mask,
    and a greedy-tv partition into 4 uneven parts."""
    graph, x, y = sbm(320, blocks=4, p_in=0.1, p_out=0.01, seed=5, feature_dim=8)
    keep = np.random.default_rng(5).random(graph.nnz) < 0.7
    counts = np.bincount(graph.row_of_nnz()[keep], minlength=320)
    a = gcn_normalize(CsrMatrix(320, 320, np.concatenate([[0], np.cumsum(counts)]),
                                graph.col_idx[keep], graph.values[keep]))
    assert not csr_equal(transpose_csr(a), a)
    return a, x, y, np.arange(320) % 2 == 0, greedy_tv_partition(a, 4)


def _nonsymmetric_train_15d(epochs=2):
    """`_nonsymmetric_input` trained on a 1.5D grid with uneven block rows."""
    a, x, y, mask, part = _nonsymmetric_input()
    cfg = TrainConfig(epochs=epochs, variant="15d-sparse")
    return train(a, x, y, mask, cfg, p=8, c=2, partition=part)


@pytest.mark.parametrize("variant,partitioner", sorted(_PINNED_RUNS))
def test_ledger_and_product_pinned(variant, partitioner):
    a, h = _pinned_spmm_input()
    run = _pinned_spmm(a, h, variant, partitioner)
    assert _pin_digest(run.ledger, run.z) == _PINNED_RUNS[(variant, partitioner)]


def test_train_ledger_pinned():
    # bytes, messages and pair maxima depend on shapes only, so the ledger
    # is pinned without the BLAS-dependent weights
    graph, x, y = sbm(640, blocks=8, p_in=0.1, p_out=0.005, seed=4, feature_dim=8)
    cfg = TrainConfig(epochs=2, variant="1d-sparse")
    res = train(gcn_normalize(graph), x, y, np.arange(640) % 2 == 0, cfg, p=32)
    assert _pin_digest(res.ledger) == _PINNED_TRAIN
    assert _pin_digest(_nonsymmetric_train_15d().ledger) == _PINNED_TRAIN_15D


# ---- results that do not depend on the schedule -----------------------------

def _train_bytes(res):
    return (json.dumps(res.history), json.dumps(res.ledger.to_dict(), sort_keys=True),
            [[w.tobytes() for w in ws] for ws in res.weights_per_rank])


def test_results_do_not_depend_on_which_ready_rank_runs(monkeypatch):
    # the runtime may run any ready rank next: every product, ledger and
    # weight must come out as under the FIFO order. Ten seeded random
    # orders, and the one that always runs the highest ready rank.
    a, h = _pinned_spmm_input()

    def outputs():
        runs = [_pinned_spmm(a, h, *case) for case in sorted(_PINNED_RUNS)]
        return ([(run.z.tobytes(), json.dumps(run.ledger.to_dict(), sort_keys=True))
                 for run in runs], _train_bytes(_nonsymmetric_train_15d()))

    fifo = outputs()
    policies = [random.Random(seed) for seed in range(10)]
    policies = [lambda ready, rng=rng: rng.randrange(len(ready)) for rng in policies]
    policies.append(lambda ready: max(range(len(ready)), key=ready.__getitem__))
    for pick in policies:
        monkeypatch.setattr(distgcn.runtime._Runtime, "pick", staticmethod(pick))
        assert outputs() == fifo


# ---- one inspection per operand ----------------------------------------------

def test_each_exchange_pattern_is_inspected_once_per_run(monkeypatch):
    # count matrices are inspected once per operand and form, whatever
    # the number of phases, and each phase multiplies once, straight from
    # the owners' block rows
    inspected, multiplies = [], []
    inspect, spmm = distgcn.spmm.plan_all_to_allv, distgcn.spmm.local_spmm

    def spy_inspect(counts, heights):
        inspected.append(len(heights))
        return inspect(counts, heights)

    def spy_spmm(a, h):
        multiplies.append((a.n_cols, h.shape[0]))
        return spmm(a, h)

    monkeypatch.setattr(distgcn.spmm, "plan_all_to_allv", spy_inspect)
    monkeypatch.setattr(distgcn.spmm, "local_spmm", spy_spmm)
    for epochs in (1, 3):
        inspected.clear()
        multiplies.clear()
        res = _nonsymmetric_train_15d(epochs)
        # two operands, each with its index exchange and its one phase plan
        assert inspected == [8] * 4
        # one multiply per weight matrix forward and one backward, each of
        # which reads all 320 rows of the dense operand, the owners' block
        # rows concatenated. Layer 0's forward product is multiplied once
        # per training call, before the run, on the calling thread, but
        # every epoch runs that phase's exchange.
        phases = 2 * (TrainConfig().layers - 1) * epochs
        assert multiplies == [(320, 320)] * (phases - (epochs - 1))
        assert res.ledger.counters["alltoallv"]["calls"].tolist() == [2 + phases] * 8


@pytest.mark.parametrize("variant", ["15d-sparse", "15d-oblivious"])
def test_planned_operand_equals_a_validated_build(variant, monkeypatch):
    # the permutation, the transpose and the operand's row restack each
    # move the entries of a validated matrix and build the result
    # unchecked; the checked constructor accepts the same arrays,
    # here for both operands of a non-symmetric matrix on uneven block rows,
    # one of them empty
    a, _ = random_instance(61, n=40, density=0.2)
    assert not csr_equal(transpose_csr(a), a)
    part = Partition.from_assignment(np.repeat(np.arange(4), [7, 13, 0, 20]), 4)

    def no_checks(self):
        raise AssertionError("a derived matrix was re-validated")

    with monkeypatch.context() as patched:
        patched.setattr(CsrMatrix, "__post_init__", no_checks)
        a2, _ = apply_partition(a, None, part)
        at = transpose_csr(a2)
        dm = build_dist_matrices(a2, part.boundaries, ProcessGrid(8, 2), variant)
    assert not dm.symmetric
    for op in (dm.fwd, dm.bwd):
        assert op.matrix.nnz == a.nnz > 0
    for derived in (a2, at, dm.fwd.matrix, dm.bwd.matrix):
        checked = CsrMatrix(derived.n_rows, derived.n_cols, derived.row_ptr,
                            derived.col_idx, derived.values)
        assert csr_equal(derived, checked)
        assert (derived.row_ptr.dtype, derived.col_idx.dtype, derived.values.dtype) == (
            np.int64, np.int64, np.float64)
    assert a2.nnz == at.nnz == a.nnz


def _traced_peak(p, c, program):
    """A run of `program` and the peak of the memory it allocates, traced
    after a first, warm-up run: thread and runtime state, and what a
    program keeps across runs."""
    run_program(p, c, program)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run = run_program(p, c, program)
        return run, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_index_exchange_stacks_the_shared_index_once():
    # every rank sends its halo's column list, a slice of one array, so the
    # exchange stacks each index entry once; stacking the operand's whole
    # index once per sender would allocate p times its size. The runtime's
    # own cost, a run of a program that does nothing, is not the exchange's.
    graph, h, _ = sbm(8000, blocks=8, p_in=0.01, p_out=0.001, seed=2, feature_dim=1)
    a = gcn_normalize(graph)
    p = 64
    part = block_partition(8000, p)
    a2, _ = apply_partition(a, None, part)
    op = build_dist_matrices(a2, part.boundaries, ProcessGrid(p, 1), "1d-sparse").fwd
    _, idle = _traced_peak(p, 1, lambda comm: None)
    run, exchange = _traced_peak(p, 1, functools.partial(exchange_index_lists, op=op))
    assert run.ledger.total_bytes_sent("index") > 0
    assert exchange - idle < 4 * op.idx.nbytes, (exchange, idle, op.idx.nbytes)


@pytest.mark.parametrize("variant", ["1d-sparse", "1d-oblivious"])
def test_held_phase_stacks_no_row_after_its_first_call(variant):
    # the products of a held phase are made before the run, so every call
    # of it, a run's first included, hands them back: its completion reads
    # no row and must not concatenate the owners' block rows, 1 MB here
    graph, h, _ = sbm(4000, blocks=4, p_in=0.01, p_out=0.001, seed=2, feature_dim=32)
    a = gcn_normalize(graph)
    part = block_partition(4000, 4)
    a2, h2 = apply_partition(a, h, part)
    op = build_dist_matrices(a2, part.boundaries, ProcessGrid(4, 1), variant).fwd
    held = op.product(h2)
    for z in held:
        z.setflags(write=False)

    def program(comm):
        r0, r1 = part.boundaries[comm.rank]
        return spmm_kernel(comm, op, h2[r0:r1], held=held)

    _, idle = _traced_peak(4, 1, lambda comm: None)
    run, later = _traced_peak(4, 1, program)  # the phase's first call of the run
    schedule = op.schedule
    stacked = h2.itemsize * h2.shape[1] * sum(schedule.heights[s] for s in op.owners)
    assert stacked == h2.nbytes
    assert later - idle < stacked / 4, (later, idle, stacked)
    assert all(z is kept for z, kept in zip(run.results, held, strict=True))
    np.testing.assert_array_equal(np.vstack(held), serial_reference(a2, h2))


@pytest.mark.parametrize("p,c,symmetric", [(32, 1, True), (64, 2, True), (32, 4, True),
                                             (8, 2, False)])
def test_index_exchange_delivers_each_readers_columns(p, c, symmetric):
    # every stage owner receives cols(i, q) of its block q from each reader
    # i in turn, and the exchange is the aware phase transposed: a rank's
    # index entries sent are the rows its aware phase receives. Greedy-tv
    # leaves parts empty at 32 parts; the non-symmetric matrix has a
    # backward operand of its own.
    if symmetric:
        graph, _, _ = sbm(100, blocks=4, p_in=0.1, p_out=0.01, seed=0, feature_dim=3)
        a = gcn_normalize(graph)
    else:
        a, _ = random_instance(23, n=40)
    grid = ProcessGrid(p, c)
    part = greedy_tv_partition(a, grid.n_rows)
    assert any(s == e for s, e in part.boundaries) == (grid.n_rows == 32)
    a2, h2 = apply_partition(a, np.random.default_rng(0).normal(size=(a.n_rows, 1)), part)
    dm = build_dist_matrices(a2, part.boundaries, grid, "1d-sparse" if c == 1 else "15d-sparse")
    assert dm.symmetric == symmetric
    op = dm.fwd if symmetric else dm.bwd
    np.testing.assert_array_equal(op.index[0].sent_rows, op.schedule.received_rows)

    def program(comm):
        r0, r1 = part.boundaries[comm.coords[0]]
        got = exchange_index_lists(comm, op)
        spmm_kernel(comm, op, h2[r0:r1])
        return got

    run = run_program(p, c, program)
    s = grid.stage_count()
    for r, got in enumerate(run.results):
        i, g = grid.coords(r)
        want = ([op.cols(reader, i) for reader in range(grid.n_rows)] if i // s == g else [])
        assert got.dtype == np.int64
        assert got.tolist() == np.concatenate([np.zeros(0, np.int64), *want]).tolist()
    # one column index and one f=1 row are 8 bytes each
    ledger = run.ledger.counters["alltoallv"]
    for index, data in (("index_bytes_sent", "data_bytes_received"),
                        ("index_msgs_sent", "data_msgs_received"),
                        ("index_bytes_received", "data_bytes_sent")):
        assert ledger[index].tolist() == ledger[data].tolist(), index
    assert ledger["index_bytes_sent"].sum() > 0


@pytest.mark.parametrize("p,c", [(8, 1), (8, 2)])
def test_index_exchange_hands_out_read_only_views_of_the_index(p, c):
    # a stage owner's received lists are its send plan, a slice of the
    # operand's one occupied-column index, which no rank may write to;
    # every other rank receives an empty list
    a, _ = random_instance(23, n=40)
    grid = ProcessGrid(p, c)
    part = block_partition(40, grid.n_rows)
    a2, _ = apply_partition(a, None, part)
    op = build_dist_matrices(a2, part.boundaries, grid, "1d-sparse" if c == 1 else "15d-sparse").fwd

    def program(comm):
        got = exchange_index_lists(comm, op)
        with pytest.raises(ValueError, match="read-only"):
            got[...] = 0
        return got

    run = run_program(p, c, program)
    for r, got in enumerate(run.results):
        if r in op.owners:
            assert got.size and np.shares_memory(got, op.idx)
        else:
            assert got.dtype == np.int64 and got.size == 0


# ---- ledgers derived from the plans alone ------------------------------------

def _assert_same_ledger(derived, executed):
    # compared as one bool: pytest's diff of two long JSON texts takes minutes
    same = (json.dumps(derived.to_dict(), sort_keys=True)
            == json.dumps(executed.to_dict(), sort_keys=True))
    assert same, "the derived ledger is not the run's"


def _derived_train(a, x, y, cfg, p, c, partition=None):
    """The ledger `train(a, x, y, mask, cfg, p, c, partition)` charges,
    derived from a layout built here (block by default), without a run."""
    grid = ProcessGrid(p, c)
    part = partition if partition is not None else block_partition(a.n_rows, grid.n_rows)
    dm = build_dist_matrices(apply_partition(a, None, part)[0], part.boundaries, grid,
                             cfg.variant)
    return derive_train_ledger(dm, grid, cfg.layer_dims(x.shape[1], int(y.max()) + 1),
                               cfg.epochs)


def _assert_derived_train(a, x, y, mask, cfg, p, c, partition=None):
    res = train(a, x, y, mask, cfg, p=p, c=c, partition=partition)
    _assert_same_ledger(_derived_train(a, x, y, cfg, p, c, partition), res.ledger)
    return res


def _assert_derived_spmm(a, h, p, c, variant, partition=None):
    run = run_spmm(a, h, p, c, variant, partition=partition)
    _assert_same_ledger(derive_spmm_ledger(run.dm, ProcessGrid(p, c), h.shape[1]), run.ledger)
    return run


@pytest.mark.parametrize("variant,partitioner", sorted(_PINNED_RUNS))
def test_derived_spmm_ledger_equals_the_pinned_runs(variant, partitioner):
    a, h = _pinned_spmm_input()
    c = 2 if variant.startswith("15d") else 1
    rows = ProcessGrid(8, c).n_rows
    part = block_partition(400, rows) if partitioner == "block" else greedy_tv_partition(a, rows)
    _assert_derived_spmm(a, h, 8, c, variant, part)


def test_derived_train_ledger_equals_the_pinned_runs():
    # the graph of test_train_ledger_pinned, and a non-symmetric one whose
    # backward operand has its own index exchange
    graph, x, y = sbm(640, blocks=8, p_in=0.1, p_out=0.005, seed=4, feature_dim=8)
    _assert_derived_train(gcn_normalize(graph), x, y, np.arange(640) % 2 == 0,
                          TrainConfig(epochs=2, variant="1d-sparse"), 32, 1)
    a, x, y, mask, part = _nonsymmetric_input()
    _assert_derived_train(a, x, y, mask, TrainConfig(epochs=2, variant="15d-sparse"), 8, 2, part)


@pytest.mark.parametrize("variant,n,p,c,partitioner,layers,epochs", [
    # greedy-tv leaves parts of this graph empty at 32 and 16 parts
    ("1d-sparse", 400, 32, 1, "greedy-tv", 3, 3),
    ("15d-sparse", 400, 32, 2, "greedy-tv", 3, 3),
    ("15d-sparse", 400, 32, 4, "greedy-tv", 3, 3),
    ("1d-oblivious", 400, 32, 1, "greedy-tv", 3, 3),
    ("15d-oblivious", 400, 32, 4, "greedy-tv", 3, 3),
    # row groups of 3 and column groups of 6, and column groups of 6 with
    # four weight matrices: all reduced by the ring
    ("15d-sparse", 144, 18, 3, "gvb", 3, 3),
    ("15d-sparse", 48, 12, 2, "gvb", 5, 3),
    # the paper's p, with row communicators of 4 in 1.5D
    ("1d-sparse", 1024, 256, 1, "block", 3, 2),
    ("15d-sparse", 1024, 256, 4, "block", 3, 2),
])
def test_derived_train_ledger_equals_the_cli_runs(variant, n, p, c, partitioner, layers, epochs):
    # the training runs of the CLI's hash-seed check, as `distgcn train
    # --gen sbm --hidden 8 --seed 5` builds them
    graph, x, y = sbm(n, seed=5, feature_dim=4)
    a = gcn_normalize(graph)
    k = p // c
    part = (block_partition(n, k) if partitioner == "block" else greedy_tv_partition(a, k))
    if partitioner == "gvb":
        part = volume_balanced_refine(a, part)
    cfg = TrainConfig(layers=layers, hidden=8, epochs=epochs, seed=5, variant=variant)
    _assert_derived_train(a, x, y, np.ones(n, dtype=bool), cfg, p, c, part)


@pytest.mark.parametrize("variant,p,c", [("1d-sparse", 8, 1), ("1d-oblivious", 4, 1),
                                         ("15d-sparse", 16, 4), ("15d-oblivious", 8, 2)])
def test_derived_ledgers_with_no_epoch_or_no_feature(variant, p, c):
    # no epoch leaves the index exchanges alone; features of width 0 make
    # phases that charge calls only
    a, x, y, mask, _ = _nonsymmetric_input()
    _assert_derived_train(a, x, y, mask, TrainConfig(epochs=0, variant=variant), p, c)
    _assert_derived_train(a, x[:, :0], y, mask, TrainConfig(epochs=2, variant=variant), p, c)
    run = _assert_derived_spmm(a, x[:, :0], p, c, variant)
    totals = run.ledger.totals()
    assert totals["alltoallv"]["data_bytes_sent"] == totals["allreduce"]["bytes_sent"] == 0
    assert totals["alltoallv"]["calls"] == (2 if variant.endswith("sparse") else 1) * p
    assert totals["allreduce"]["calls"] == (p if c > 1 else 0)


_DERIVED_GRIDS = [("1d-sparse", 1, 1), ("1d-sparse", 3, 1), ("1d-oblivious", 5, 1),
                  ("1d-sparse", 8, 1), ("15d-sparse", 4, 2), ("15d-oblivious", 8, 2),
                  ("15d-sparse", 12, 2), ("15d-oblivious", 9, 3), ("15d-sparse", 18, 3),
                  ("15d-sparse", 16, 4)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_DERIVED_GRIDS), st.integers(min_value=9, max_value=48), st.booleans(),
       st.sampled_from(["block", "random", "greedy-tv"]),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_derived_ledgers_equal_the_runs(grid_case, n, symmetric, partitioner, seed):
    variant, p, c = grid_case
    a, x = random_instance(seed, n=n, f=1 + seed % 4, symmetric=symmetric)
    k = p // c
    part = {"block": lambda: block_partition(n, k), "random": lambda: random_partition(n, k, seed),
            "greedy-tv": lambda: greedy_tv_partition(a, k)}[partitioner]()
    _assert_derived_spmm(a, x, p, c, variant, part)
    y = np.random.default_rng(seed).integers(0, 3, n)
    cfg = TrainConfig(layers=2 + seed % 3, hidden=3, epochs=seed % 3, variant=variant)
    _assert_derived_train(a, x, y, np.ones(n, dtype=bool), cfg, p, c, part)


def test_traffic_needs_no_run(monkeypatch):
    # the ledger of a 1d-sparse train call at p=1024 from its plans alone:
    # no rank thread starts and no program runs
    graph, x, y = sbm(2048, blocks=4, p_in=0.01, p_out=0.0005, seed=1, feature_dim=64)
    a = gcn_normalize(graph)
    runs = []
    monkeypatch.setattr(distgcn.gcn, "run_program", lambda *args: runs.append(args))
    threads = threading.active_count()
    grid = ProcessGrid(1024)
    dm = build_dist_matrices(a, block_partition(2048, 1024).boundaries, grid, "1d-sparse")
    ledger = derive_train_ledger(dm, grid, TrainConfig().layer_dims(64, int(y.max()) + 1), 2)
    assert threading.active_count() == threads
    assert runs == []
    assert list(ledger.marks) == [("epoch", 0), ("epoch", 1)]
    assert ledger.conservation_ok()
    assert ledger.counters["alltoallv"]["calls"].tolist() == [1 + 2 * 2 * 2] * 1024

