import numpy as np
import pytest

from distgcn.graphgen import clique_blocks, sbm
from distgcn.partition import (apply_partition, block_partition, comm_metrics,
                               greedy_tv_partition)
from distgcn.runtime import ProcessGrid
from distgcn.sparse import csr_from_dense, gcn_normalize, transpose_csr
from distgcn.spmm import (VARIANTS, build_dist_matrices, run_spmm,
                          serial_reference, validate_variant_grid)

from oracles import matmul_triple_loop, nnz_cols_dense_scan, random_csr_dense


def random_instance(seed, n=24, f=3, density=0.15, symmetric=False):
    rng = np.random.default_rng(seed)
    dense = random_csr_dense(rng, n, density=density)
    if symmetric:
        dense = dense + dense.T
    return csr_from_dense(dense), rng.normal(size=(n, f))


# ---- layout construction ---------------------------------------------------

def test_halo_operands_tile_matrix_exactly():
    a, _ = random_instance(0, n=22)
    at = transpose_csr(a).to_dense()
    for p, c in ((4, 1), (8, 2)):
        grid = ProcessGrid(p, c)
        part = block_partition(22, grid.n_rows)
        dm = build_dist_matrices(a, part.boundaries, grid)
        s = grid.stage_count()
        for i, (r0, r1) in enumerate(part.boundaries):
            for g in range(c):
                group = range(g * s, (g + 1) * s)
                halo = np.concatenate([dm.fwd.nnz_cols[(i, j)] + part.boundaries[j][0]
                                       for j in group])
                assert np.all(np.diff(halo) > 0)
                local = dm.fwd.local[(i, g)]
                assert local.shape == (r1 - r0, halo.size)
                expanded = np.zeros((r1 - r0, 22))
                expanded[:, halo] = local.to_dense()
                c0, c1 = part.boundaries[group[0]][0], part.boundaries[group[-1]][1]
                expected = np.zeros((r1 - r0, 22))
                expected[:, c0:c1] = at[r0:r1, c0:c1]
                np.testing.assert_array_equal(expanded, expected)


def test_nnz_cache_matches_fresh_computation():
    a, _ = random_instance(1, n=18)
    part = greedy_tv_partition(a, 3)
    a2, _ = apply_partition(a, None, part)
    dm = build_dist_matrices(a2, part.boundaries, ProcessGrid(3, 1))
    assert not dm.symmetric
    dense = a2.to_dense()
    for op, mat in ((dm.fwd, dense.T), (dm.bwd, dense)):
        for i in range(3):
            for j in range(3):
                expected = nnz_cols_dense_scan(mat, part.boundaries, i, j)
                assert op.nnz_cols[(i, j)].tolist() == expected


def test_symmetric_matrix_shares_operand():
    a, _ = random_instance(2, n=16, symmetric=True)
    dm = build_dist_matrices(a, block_partition(16, 4).boundaries, ProcessGrid(4, 1))
    assert dm.symmetric
    b, _ = random_instance(3, n=16, symmetric=False)
    dm2 = build_dist_matrices(b, block_partition(16, 4).boundaries, ProcessGrid(4, 1))
    assert not dm2.symmetric


def test_variant_grid_validation_names_constraint():
    with pytest.raises(ValueError, match="c == 1"):
        validate_variant_grid("1d-sparse", 4, 2)
    with pytest.raises(ValueError, match=r"c\*c to divide p"):
        validate_variant_grid("15d-sparse", 6, 2)
    with pytest.raises(ValueError, match="unknown variant"):
        validate_variant_grid("2d", 4, 1)
    validate_variant_grid("15d-oblivious", 8, 2)


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
])
def test_variants_match_serial_oracle(variant, p, c):
    a, h = random_instance(p * 7 + c, n=32, f=4)
    run = run_spmm(a, h, p, c, variant)
    np.testing.assert_allclose(run.z, serial_reference(a, h), atol=1e-10)


def test_variants_match_oracle_on_variable_boundaries():
    a, h = random_instance(6, n=30, f=2, symmetric=True)
    part = greedy_tv_partition(a, 3)
    for variant in ("1d-oblivious", "1d-sparse"):
        run = run_spmm(a, h, 3, 1, variant, partition=part)
        np.testing.assert_allclose(run.z, serial_reference(a, h), atol=1e-10)


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


# ---- volumes ---------------------------------------------------------------

def test_oblivious_broadcasts_full_rows_even_when_useless():
    a = gcn_normalize(clique_blocks(4, 6))
    h = np.ones((24, 2))
    run = run_spmm(a, h, 4, 1, "1d-oblivious")
    np.testing.assert_allclose(run.z, serial_reference(a, h), atol=1e-12)
    per_rank = [run.ledger.rank_bytes_sent(r, "data") for r in range(4)]
    assert per_rank == [3 * 6 * 2 * 8.0] * 4  # (p-1) x block rows x f x 8


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
    for (s, d), nbytes in run.ledger.pair_max_data_bytes.items():
        rows = nbytes / (8 * 3)
        assert rows == len(dm.fwd.nnz_cols[(d, s)])
        assert rows <= m.cut_p


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
    widths = dm.fwd.widths
    has_slack = any(len(dm.fwd.nnz_cols[(i, j)]) < widths[j]
                    for i in range(4) for j in range(4) if i != j)
    assert has_slack  # at 5% density some off-diagonal column is empty
    d_obl = run_spmm(a, h, 4, 1, "1d-oblivious").ledger.total_bytes_sent("data")
    assert run_s.ledger.total_bytes_sent("data") < d_obl


def test_index_traffic_charged_once_per_setup():
    a, h = random_instance(13, n=20, f=2)
    run = run_spmm(a, h, 4, 1, "1d-sparse")
    dm = run.dm
    expected = 8 * sum(len(dm.fwd.nnz_cols[(i, j)])
                       for i in range(4) for j in range(4) if i != j)
    assert run.ledger.total_bytes_sent("index") == expected
    no_setup = run_spmm(a, h, 4, 1, "1d-sparse", index_setup=False)
    assert no_setup.ledger.total_bytes_sent("index") == 0.0
    assert np.array_equal(no_setup.z, run.z)


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
        for r in range(4):
            assert (run_1d.ledger.rank_bytes_sent(r, "data")
                    == run_15d.ledger.rank_bytes_sent(r, "data"))


def test_15d_stage_count():
    a, h = random_instance(23, n=32, f=2)
    grid = ProcessGrid(8, 2)
    s = grid.stage_count()
    assert s == 2
    run = run_spmm(a, h, 8, 2, "15d-oblivious")
    # the oblivious schedule delivers one full block row per stage, minus
    # the stage a process serves itself (only ranks inside their column's
    # stage band own one)
    msgs = run.ledger.counters["p2p"]["msgs_received"]
    for rank in range(8):
        i, j = grid.coords(rank)
        own = 1 if j * s <= i < (j + 1) * s else 0
        assert msgs[rank] == s - own


def test_block_diagonal_15d_only_allreduce_traffic():
    a = gcn_normalize(clique_blocks(4, 8))
    h = np.ones((32, 3))
    run = run_spmm(a, h, 8, 2, "15d-sparse")
    np.testing.assert_allclose(run.z, serial_reference(a, h), atol=1e-12)
    assert run.ledger.counters["p2p"]["bytes_sent"].sum() == 0.0
    assert run.ledger.counters["allreduce"]["bytes_sent"].sum() > 0.0


def test_run_rejects_wrong_partition_size():
    a, h = random_instance(29, n=16)
    with pytest.raises(ValueError, match="parts"):
        run_spmm(a, h, 4, 1, "1d-sparse", partition=block_partition(16, 3))


def test_run_rejects_1d_dense_operand():
    a, h = random_instance(29, n=16)
    with pytest.raises(ValueError, match="must be 2-D"):
        run_spmm(a, h[:, 0], 4, 1, "1d-sparse")


def test_gather_respects_partition_permutation():
    a, h = random_instance(31, n=21, f=2, symmetric=True)
    ref = serial_reference(a, h)
    part = greedy_tv_partition(a, 4)
    run = run_spmm(a, h, 4, 1, "1d-sparse", partition=part)
    np.testing.assert_allclose(run.z, ref, atol=1e-10)
