import hashlib
import json

import numpy as np
import pytest

import distgcn.spmm
from distgcn.gcn import TrainConfig, train
from distgcn.graphgen import clique_blocks, sbm
from distgcn.partition import (Partition, apply_partition, block_partition, comm_metrics,
                               greedy_tv_partition)
from distgcn.runtime import ProcessGrid, run_program
from distgcn.sparse import (CsrMatrix, csr_equal, csr_from_dense, gcn_normalize, local_spmm,
                            transpose_csr)
from distgcn.spmm import (VARIANTS, build_dist_matrices, exchange_index_lists, run_spmm,
                          serial_reference, spmm_kernel, validate_variant_grid)

from oracles import matmul_triple_loop, nnz_cols_dense_scan, random_csr_dense


def random_instance(seed, n=24, f=3, density=0.15, symmetric=False):
    rng = np.random.default_rng(seed)
    dense = random_csr_dense(rng, n, density=density)
    if symmetric:
        dense = dense + dense.T
    return csr_from_dense(dense), rng.normal(size=(n, f))


# ---- layout construction ---------------------------------------------------

def _rank_block(op, r) -> CsrMatrix:
    """Rank r's operand: its row and column slice of the stacked `op.local`."""
    loc = op.local
    r0, r1 = op.row_off[r], op.row_off[r + 1]
    c0, c1 = op.col_off[r], op.col_off[r + 1]
    e0, e1 = loc.row_ptr[r0], loc.row_ptr[r1]
    # the operand is block diagonal: rank r's rows hold only its columns
    assert np.all((loc.col_idx[e0:e1] >= c0) & (loc.col_idx[e0:e1] < c1))
    return CsrMatrix(r1 - r0, c1 - c0, loc.row_ptr[r0:r1 + 1] - e0, loc.col_idx[e0:e1] - c0,
                     loc.values[e0:e1])


def test_halo_operands_tile_matrix_exactly():
    a, _ = random_instance(0, n=22)
    at = transpose_csr(a).to_dense()
    for p, c in ((4, 1), (8, 2)):
        grid = ProcessGrid(p, c)
        part = block_partition(22, grid.n_rows)
        dm = build_dist_matrices(a, part.boundaries, grid)
        op = dm.fwd
        s = grid.stage_count()
        assert op.local.shape == (op.row_off[-1], op.col_off[-1])
        assert op.row_off[0] == op.col_off[0] == 0
        for i, (r0, r1) in enumerate(part.boundaries):
            for g in range(c):
                group = range(g * s, (g + 1) * s)
                halo = np.concatenate([op.cols(i, j) + part.boundaries[j][0]
                                       for j in group])
                assert np.all(np.diff(halo) > 0)
                local = _rank_block(op, grid.rank_of(i, g))
                assert local.shape == (r1 - r0, halo.size)
                expanded = np.zeros((r1 - r0, 22))
                expanded[:, halo] = local.to_dense()
                c0, c1 = part.boundaries[group[0]][0], part.boundaries[group[-1]][1]
                expected = np.zeros((r1 - r0, 22))
                expected[:, c0:c1] = at[r0:r1, c0:c1]
                np.testing.assert_array_equal(expanded, expected)
        # the ranks' blocks hold every stored entry of the stacked operand
        assert sum(_rank_block(op, r).nnz for r in range(p)) == op.local.nnz == a.nnz
        # the groups are consecutive runs of ranks, each its ranks' slice
        assert [lo for lo, _, _ in op.groups] == [0] + [hi for _, hi, _ in op.groups[:-1]]
        assert op.groups[-1][1] == p
        for lo, hi, block in op.groups:
            want = op.local.to_dense()[op.row_off[lo]:op.row_off[hi],
                                       op.col_off[lo]:op.col_off[hi]]
            np.testing.assert_array_equal(block.to_dense(), want)


def test_nnz_cache_matches_fresh_computation():
    a, _ = random_instance(1, n=18)
    for p, c in ((3, 1), (8, 2)):
        rows = ProcessGrid(p, c).n_rows
        part = greedy_tv_partition(a, rows)
        a2, _ = apply_partition(a, None, part)
        dm = build_dist_matrices(a2, part.boundaries, ProcessGrid(p, c))
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
    for p, c in ((4, 0), (0, 1), (-2, 1)):
        with pytest.raises(ValueError, match="p and c must be at least 1"):
            validate_variant_grid("15d-sparse", p, c)
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
        # message; only the ring all-reduce charges every member
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


# ---- one multiply per group of ranks ---------------------------------------

def _fused_and_per_rank_products(a, h, p, c, variant, part):
    """Each rank's result of `spmm_kernel`, and the same as separate
    per-rank multiplies make it: `local_spmm` of each rank's block with
    its halo gathered from the dense operand, the c partial products of a
    grid row summed in rank order."""
    grid = ProcessGrid(p, c)
    a2, h2 = apply_partition(a, h, part)
    dm = build_dist_matrices(a2, part.boundaries, grid)
    op = dm.fwd

    def program(comm):
        r0, r1 = dm.boundaries[comm.coords[0]]
        exchange_index_lists(comm, op, variant)
        return spmm_kernel(comm, op, h2[r0:r1], variant)

    fused = run_program(p, c, program).results
    s = grid.stage_count()
    per_rank = []
    for i in range(grid.n_rows):
        z = None
        for g in range(c):
            halo = np.concatenate([op.cols(i, j) + part.boundaries[j][0]
                                   for j in range(g * s, (g + 1) * s)])
            zr = local_spmm(_rank_block(op, grid.rank_of(i, g)), h2[halo])
            z = zr if z is None else z + zr
        per_rank += [z] * c
    return fused, per_rank, op


def _dense_rows_instance():
    # rows and columns 0..149 dense, the rest sparse: at p=8, c=2 rank 0
    # alone holds 150 x 300 entries, over the group bound
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
    bound = distgcn.spmm._GROUP_NNZ
    assert any(hi - lo == 1 and _rank_block(op, lo).nnz > bound for lo, hi, _ in op.groups)
    assert len(op.groups) > 1
    for got, want in zip(fused, per_rank, strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bound", [1, 16, 40, 1 << 14])
@pytest.mark.parametrize("variant,p,c", [(v, 32, 1) for v in VARIANTS]
                         + [("15d-oblivious", 64, 2), ("15d-sparse", 64, 2)])
def test_fused_multiply_matches_per_rank_products_with_empty_ranks(variant, p, c, bound,
                                                                   monkeypatch):
    # groups of every size, from one rank each to the whole grid, some of
    # them zero-row ranks only
    monkeypatch.setattr(distgcn.spmm, "_GROUP_NNZ", bound)
    graph, h, _ = sbm(100, blocks=4, p_in=0.1, p_out=0.01, seed=0, feature_dim=3)
    a = gcn_normalize(graph)
    part = greedy_tv_partition(a, ProcessGrid(p, c).n_rows)
    assert any(s == e for s, e in part.boundaries)  # a zero-row rank
    fused, per_rank, op = _fused_and_per_rank_products(a, h, p, c, variant, part)
    assert len(op.groups) == 1 if bound == 1 << 14 else len(op.groups) > 1
    for got, want in zip(fused, per_rank, strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


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


def test_gather_respects_partition_permutation():
    a, h = random_instance(31, n=21, f=2, symmetric=True)
    ref = serial_reference(a, h)
    part = greedy_tv_partition(a, 4)
    run = run_spmm(a, h, 4, 1, "1d-sparse", partition=part)
    np.testing.assert_allclose(run.z, ref, atol=1e-10)


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
_PINNED_TRAIN = "a5c8f4d9a4c245ba74cd3bb1efd88202427ca3065f5b28098232c07aa70f49a3"
_PINNED_TRAIN_15D = "1a1fa4ba9afe69ce9596eb4c0bbcccd4e8ab9d3853205d932645291936115135"


@pytest.mark.parametrize("variant,partitioner", sorted(_PINNED_RUNS))
def test_ledger_and_product_pinned(variant, partitioner):
    graph, h, _ = sbm(400, blocks=8, p_in=0.1, p_out=0.01, seed=3, feature_dim=8)
    # signed weights from the seeded stream rather than gcn_normalize's
    # power function, so the product bytes do not depend on the platform
    weights = np.random.default_rng(3).uniform(-2.0, 2.0, graph.nnz)
    a = CsrMatrix(400, 400, graph.row_ptr, graph.col_idx, weights)
    c = 2 if variant.startswith("15d") else 1
    rows = ProcessGrid(8, c).n_rows
    part = block_partition(400, rows) if partitioner == "block" else greedy_tv_partition(a, rows)
    run = run_spmm(a, h, 8, c, variant, partition=part)
    assert _pin_digest(run.ledger, run.z) == _PINNED_RUNS[(variant, partitioner)]


def test_train_ledger_pinned():
    # bytes, messages and pair maxima depend on shapes only, so the ledger
    # is pinned without the BLAS-dependent weights
    graph, x, y = sbm(640, blocks=8, p_in=0.1, p_out=0.005, seed=4, feature_dim=8)
    cfg = TrainConfig(epochs=2, variant="1d-sparse")
    res = train(gcn_normalize(graph), x, y, np.arange(640) % 2 == 0, cfg, p=32)
    assert _pin_digest(res.ledger) == _PINNED_TRAIN
    # a non-symmetric matrix, so the backward operand is its own operand
    # with its own index exchange, on a 1.5D grid with uneven block rows
    graph, x, y = sbm(320, blocks=4, p_in=0.1, p_out=0.01, seed=5, feature_dim=8)
    keep = np.random.default_rng(5).random(graph.nnz) < 0.7
    counts = np.bincount(graph.row_of_nnz()[keep], minlength=320)
    a = gcn_normalize(CsrMatrix(320, 320, np.concatenate([[0], np.cumsum(counts)]),
                                graph.col_idx[keep], graph.values[keep]))
    cfg = TrainConfig(epochs=2, variant="15d-sparse")
    res = train(a, x, y, np.arange(320) % 2 == 0, cfg, p=8, c=2,
                partition=greedy_tv_partition(a, 4))
    assert not csr_equal(transpose_csr(a), a)
    assert _pin_digest(res.ledger) == _PINNED_TRAIN_15D
