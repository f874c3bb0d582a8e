import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distgcn.sparse
from distgcn.sparse import (CsrMatrix, csr_from_dense, csr_from_edges, csr_equal,
                            gcn_normalize, gemm, local_spmm, transpose_csr)
from distgcn.partition import block_partition
from distgcn.runtime import ProcessGrid
from distgcn.spmm import build_dist_matrices

from oracles import (dense_from_edges, matmul_triple_loop, nnz_cols_dense_scan,
                     normalize_dense, random_csr_dense)


def test_from_edges_empty_graph():
    a = csr_from_edges([], 3)
    assert a.shape == (3, 3)
    assert a.nnz == 0


def test_from_edges_symmetrize_pattern():
    a = csr_from_edges([(0, 1, 1.0), (1, 2, 1.0)], 3, symmetrize=True)
    assert a.nnz == 4
    assert np.array_equal(a.to_dense(), a.to_dense().T)


def test_from_edges_matches_dense_accumulation():
    rng = np.random.default_rng(42)
    n = 20
    edges = [(int(rng.integers(n)), int(rng.integers(n)), float(rng.normal()))
             for _ in range(50)]
    edges += edges[:10]  # force duplicates
    for symmetrize in (False, True):
        a = csr_from_edges(edges, n, symmetrize=symmetrize)
        expected = dense_from_edges(edges, n, symmetrize=symmetrize)
        np.testing.assert_allclose(a.to_dense(), expected, atol=1e-14)


def test_from_edges_sum_independent_of_order():
    edges = [(0, 1, 0.1), (0, 1, 0.7), (0, 1, -0.3)]
    a = csr_from_edges(edges, 2)
    b = csr_from_edges(edges[::-1], 2)
    assert csr_equal(a, b)


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"edge 1 .* outside"):
        csr_from_edges([(0, 1, 1.0), (0, 3, 1.0)], 3)


def test_from_edges_drops_zero_sums():
    a = csr_from_edges([(0, 1, 1.0), (0, 1, -1.0), (1, 0, 2.0)], 2)
    assert a.nnz == 1


def test_canonical_form_validation():
    with pytest.raises(ValueError):
        CsrMatrix(2, 2, [0, 2, 2], [1, 0], [1.0, 1.0])  # cols not increasing
    with pytest.raises(ValueError):
        CsrMatrix(2, 2, [0, 1], [0], [1.0])  # row_ptr wrong length


def test_normalize_single_isolated_vertex():
    a = csr_from_edges([], 1)
    np.testing.assert_array_equal(gcn_normalize(a).to_dense(), [[1.0]])


def test_normalize_two_vertex_edge():
    a = csr_from_edges([(0, 1, 1.0)], 2, symmetrize=True)
    np.testing.assert_allclose(gcn_normalize(a).to_dense(), np.full((2, 2), 0.5),
                               atol=1e-15)


def test_normalize_matches_dense_formula():
    rng = np.random.default_rng(0)
    dense = np.abs(random_csr_dense(rng, 10, density=0.3))
    dense = dense + dense.T
    a = csr_from_dense(dense)
    got = gcn_normalize(a).to_dense()
    np.testing.assert_allclose(got, normalize_dense(dense), atol=1e-12)
    assert np.array_equal(got, got.T)


def test_normalize_reconstructs_with_degrees():
    rng = np.random.default_rng(3)
    dense = np.abs(random_csr_dense(rng, 12, density=0.25))
    a = csr_from_dense(dense)
    atil = dense + np.eye(12)
    d = atil.sum(axis=1)
    dhalf = np.diag(d ** 0.5)
    recon = dhalf @ gcn_normalize(a).to_dense() @ dhalf
    np.testing.assert_allclose(recon, atil, atol=1e-12)


def test_normalize_rejects_non_square():
    with pytest.raises(ValueError):
        gcn_normalize(CsrMatrix(1, 2, [0, 0], [], []))


def test_normalize_rejects_negative_weight():
    a = csr_from_edges([(0, 1, -3.0)], 2, symmetrize=True)
    with pytest.raises(ValueError, match="non-negative edge weights"):
        gcn_normalize(a)


def test_normalize_rejects_non_finite_weight():
    for bad in (np.nan, np.inf):
        a = csr_from_edges([(0, 1, 1.0), (1, 2, bad)], 3, symmetrize=True)
        with pytest.raises(ValueError, match="finite edge weights"):
            gcn_normalize(a)


def test_local_spmm_identity():
    eye = csr_from_dense(np.eye(5))
    h = np.arange(15.0).reshape(5, 3)
    np.testing.assert_array_equal(local_spmm(eye, h), h)


def test_local_spmm_zero_matrix():
    z = csr_from_edges([], 4)
    assert not local_spmm(z, np.ones((4, 2))).any()


def test_local_spmm_matches_triple_loop(monkeypatch):
    # both add each row's terms from 0.0 in ascending column, so on finite
    # inputs they agree bit for bit (the skipped zero terms change nothing);
    # a small slice size splits rows across slices without changing that
    rng = np.random.default_rng(8)
    dense = random_csr_dense(rng, 12, density=0.6)
    h = rng.normal(size=(12, 5))
    expected = matmul_triple_loop(dense, h)
    np.testing.assert_array_equal(local_spmm(csr_from_dense(dense), h), expected)
    monkeypatch.setattr(distgcn.sparse, "_SPMM_STEP_ELEMS", 12)
    np.testing.assert_array_equal(local_spmm(csr_from_dense(dense), h), expected)


def test_local_spmm_rejects_mismatch():
    a = csr_from_dense(np.eye(3))
    with pytest.raises(ValueError, match="mismatch"):
        local_spmm(a, np.ones((4, 2)))


def test_gemm_identity_and_scalar():
    a = np.random.default_rng(1).normal(size=(4, 4))
    np.testing.assert_array_equal(gemm(a, np.eye(4)), a)
    np.testing.assert_array_equal(gemm([[2.0]], [[3.0]]), [[6.0]])


def test_gemm_matches_triple_loop():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3))
    np.testing.assert_allclose(gemm(a, b), matmul_triple_loop(a, b), atol=1e-12)


def test_gemm_rejects_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        gemm(np.ones((2, 3)), np.ones((2, 3)))


def test_transpose_symmetric_fixed_point():
    a = csr_from_edges([(0, 1, 2.0), (1, 2, 3.0)], 3, symmetrize=True)
    assert csr_equal(transpose_csr(a), a)


def test_transpose_rectangular():
    a = csr_from_dense([[1.0, 0.0, 2.0]])
    t = transpose_csr(a)
    assert t.shape == (3, 1)
    np.testing.assert_array_equal(t.to_dense(), [[1.0], [0.0 + 0], [2.0]])


def test_transpose_involution_random():
    rng = np.random.default_rng(11)
    a = csr_from_dense(random_csr_dense(rng, 10, density=0.3))
    assert csr_equal(transpose_csr(transpose_csr(a)), a)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_transpose_involution_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    m = int(rng.integers(1, 12))
    a = csr_from_dense(random_csr_dense(rng, n, density=0.3, square=False, n_cols=m))
    assert csr_equal(transpose_csr(transpose_csr(a)), a)


def occupied_cols(a, part):
    """Occupied-column index of a's blocks, as the distributed layout
    stores it: the forward operand is the transpose of its input."""
    dm = build_dist_matrices(transpose_csr(a), part.boundaries, ProcessGrid(part.k, 1))
    return dm.fwd.nnz_cols


def test_nnz_cols_diagonal_matrix_off_blocks_empty():
    a = csr_from_dense(np.diag(np.arange(1.0, 9.0)))
    occ = occupied_cols(a, block_partition(8, 4))
    for i in range(4):
        for j in range(4):
            assert (occ[(i, j)].size == 0) == (i != j)


def test_nnz_cols_dense_block_full():
    a = csr_from_dense(np.ones((6, 6)))
    occ = occupied_cols(a, block_partition(6, 3))
    np.testing.assert_array_equal(occ[(0, 2)], [0, 1])


def test_nnz_cols_matches_dense_scan():
    rng = np.random.default_rng(16)
    dense = random_csr_dense(rng, 16, density=0.15)
    a = csr_from_dense(dense)
    part = block_partition(16, 4)
    occ = occupied_cols(a, part)
    for i in range(4):
        for j in range(4):
            got = occ[(i, j)].tolist()
            assert got == nnz_cols_dense_scan(dense, part.boundaries, i, j)


def test_nnz_cols_counts_structural_zeros():
    # a stored entry with value 0.0 still occupies its column
    a = CsrMatrix(2, 2, [0, 1, 1], [1], [0.0])
    occ = occupied_cols(a, block_partition(2, 2))
    np.testing.assert_array_equal(occ[(0, 1)], [0])
    assert occ[(0, 0)].size == occ[(1, 0)].size == occ[(1, 1)].size == 0


def test_nnz_cols_empty_iff_block_empty():
    rng = np.random.default_rng(21)
    dense = random_csr_dense(rng, 12, density=0.08)
    a = csr_from_dense(dense)
    part = block_partition(12, 3)
    occ = occupied_cols(a, part)
    for i in range(3):
        for j in range(3):
            r0, r1 = part.boundaries[i]
            c0, c1 = part.boundaries[j]
            empty = not np.any(dense[r0:r1, c0:c1] != 0)
            assert (occ[(i, j)].size == 0) == empty
