import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distgcn.sparse
from distgcn.graphgen import sbm, star_augmented
from distgcn.sparse import (CsrMatrix, _ranges, _run_starts, _stable_order, csr_from_coo,
                            csr_from_dense, csr_from_edges, csr_equal, gcn_normalize, gemm,
                            local_spmm, transpose_csr)
from distgcn.partition import Partition, _sym_pattern, apply_partition, block_partition
from distgcn.runtime import ProcessGrid
from distgcn.spmm import build_dist_matrices

from oracles import (csr_from_coo_lexsort, dense_from_edges, gcn_normalize_via_coo,
                     matmul_triple_loop, nnz_cols_dense_scan, normalize_dense,
                     random_csr_dense, spmm_storage_order)


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


@pytest.mark.parametrize("bad", [(0, 1.5), (0.9, 2), (np.nan, 1), (0, np.inf), (-np.inf, 0)])
def test_from_edges_rejects_non_integral_endpoints(bad):
    with pytest.raises(ValueError, match=r"edge 1 .* non-integral or non-finite endpoint"):
        csr_from_edges([(0, 1, 1.0), (*bad, 2.0)], 3)


def test_from_edges_drops_zero_sums():
    a = csr_from_edges([(0, 1, 1.0), (0, 1, -1.0), (1, 0, 2.0)], 2)
    assert a.nnz == 1


def _same_bits(a, b):
    return (a.shape == b.shape
            and a.row_ptr.tobytes() == b.row_ptr.tobytes()
            and a.col_idx.tobytes() == b.col_idx.tobytes()
            and a.values.tobytes() == b.values.tobytes())


# mixed magnitudes, signed zeros and values that cancel exactly in a group
_COO_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 0.1, 0.2, -0.3, 3.5, -3.5,
                        1e-8, -1e-8, 1e8, -1e8, 1e16, -1e16])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
def test_coo_matches_lexsort_reference(seed, n_rows, n_cols):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, 60)) if n_rows and n_cols else 0
    rows, cols = rng.integers(0, max(n_rows, 1), m), rng.integers(0, max(n_cols, 1), m)
    vals = rng.choice(_COO_VALUES, m) * rng.choice([1.0, 0.7], m)
    # groups of 3 to 8 duplicates of a few cells, some summing to exactly zero
    for _ in range(int(rng.integers(0, 4)) if m else 0):
        i, size = int(rng.integers(m)), int(rng.integers(3, 9))
        group = rng.choice(_COO_VALUES, size)
        if rng.random() < 0.5:
            group = np.concatenate([group, -group])
        rows = np.concatenate([rows, np.full(group.size, rows[i])])
        cols = np.concatenate([cols, np.full(group.size, cols[i])])
        vals = np.concatenate([vals, group])
    got = csr_from_coo(n_rows, n_cols, rows, cols, vals)
    assert _same_bits(got, csr_from_coo_lexsort(n_rows, n_cols, rows, cols, vals))
    order = rng.permutation(rows.size)
    assert _same_bits(csr_from_coo(n_rows, n_cols, rows[order], cols[order], vals[order]),
                      got)


@pytest.mark.parametrize("rows,cols,match", [
    ([0, 2], [0, 0], r"triplet 1 has row index 2 outside \[0, 2\)"),
    ([0, -1], [0, 0], r"triplet 1 has row index -1 outside \[0, 2\)"),
    ([0, 1], [3, 0], r"triplet 0 has column index 3 outside \[0, 3\)"),
    ([0, 1], [0, -2], r"triplet 1 has column index -2 outside \[0, 3\)"),
], ids=["row-high", "row-negative", "column-high", "column-negative"])
def test_coo_rejects_out_of_range_coordinates(rows, cols, match):
    with pytest.raises(ValueError, match=match):
        csr_from_coo(2, 3, rows, cols, [1.0, 1.0])


def test_coo_rejects_shape_beyond_int64_key():
    with pytest.raises(ValueError, match="exceeds the int64 key space"):
        csr_from_coo(2 ** 32, 2 ** 32, [0], [0], [1.0])


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


def _directed_with_stored_zeros(rng, n):
    """Random directed matrix with weights spanning 1e-8..1e8, self-loops on
    some rows, stored 0.0 and -0.0 on and off the diagonal and a few
    isolated vertices."""
    pattern = rng.random((n, n)) < rng.uniform(0.05, 0.5)
    pattern[np.diag_indices(n)] = rng.random(n) < 0.5
    isolated = rng.random(n) < 0.2
    pattern[isolated] = False
    pattern[:, isolated] = False
    rows, cols = np.nonzero(pattern)
    vals = 10.0 ** rng.uniform(-8, 8, rows.size)
    vals[rng.random(rows.size) < 0.15] = 0.0
    vals[rng.random(rows.size) < 0.1] = -0.0
    counts = np.bincount(rows, minlength=n)
    return CsrMatrix(n, n, np.concatenate([[0], np.cumsum(counts)]), cols, vals)


@pytest.mark.parametrize("seed", range(40))
def test_normalize_matches_coo_rebuild(seed):
    rng = np.random.default_rng(seed)
    n = seed if seed < 2 else int(rng.integers(2, 30))  # n=0 and n=1 first
    a = _directed_with_stored_zeros(rng, n)
    assert _same_bits(gcn_normalize(a), gcn_normalize_via_coo(a))


@pytest.mark.parametrize("make", [
    lambda: sbm(4000, blocks=4, p_in=0.01, p_out=0.0005, feature_dim=64, seed=1)[0],
    lambda: sbm(8000, blocks=4, p_in=0.005, p_out=0.00025, feature_dim=128, seed=1)[0],
    lambda: star_augmented(4000, seed=1),
], ids=["sbm4000", "sbm8000", "star4000"])
def test_normalize_matches_coo_rebuild_on_benchmark_graphs(make):
    a = make()
    assert _same_bits(gcn_normalize(a), gcn_normalize_via_coo(a))


@pytest.mark.parametrize("seed", range(6))
def test_normalize_and_union_pattern_build_unchecked(seed, monkeypatch):
    # both take a validated matrix and keep canonical form, so neither runs
    # the checked constructor; their outputs are the checked builds'
    rng = np.random.default_rng(seed)
    a = _directed_with_stored_zeros(rng, int(rng.integers(2, 30)))
    expected = gcn_normalize_via_coo(a)
    rows, cols = a.row_of_nnz(), a.col_idx
    off = rows != cols
    union = csr_from_coo(a.n_rows, a.n_cols, np.concatenate([rows[off], cols[off]]),
                         np.concatenate([cols[off], rows[off]]), np.ones(2 * int(off.sum())))
    checks = []
    check = CsrMatrix.__post_init__
    monkeypatch.setattr(CsrMatrix, "__post_init__", lambda m: checks.append(m) or check(m))
    got_normalized, got_pattern = gcn_normalize(a), _sym_pattern(a)
    assert checks == []
    assert _same_bits(got_normalized, expected)
    assert got_pattern.row_ptr.tobytes() == union.row_ptr.tobytes()
    assert got_pattern.col_idx.tobytes() == union.col_idx.tobytes()
    assert np.array_equal(got_pattern.values, np.ones(union.nnz))
    for m in (got_normalized, got_pattern):
        assert (m.row_ptr.dtype, m.col_idx.dtype, m.values.dtype) == (np.int64, np.int64,
                                                                     np.float64)


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


def _mixed_degree_matrix(seed):
    """Rows of 0, 1, 9, 17 and 5000 entries in shuffled order plus one hub
    row of 10**5 entries, with signed values spanning 1e-8..1e8."""
    rng = np.random.default_rng(seed)
    n_cols = 10**5 + 7
    degrees = np.array([0] * 5 + [1] * 30 + [9] * 30 + [17] * 30 + [5000] * 20 + [10**5])
    rng.shuffle(degrees)
    cols = [np.sort(rng.choice(n_cols, size=d, replace=False)) for d in degrees]
    row_ptr = np.concatenate([[0], np.cumsum(degrees)])
    col_idx = np.concatenate(cols)
    values = rng.choice([-1.0, 1.0], col_idx.size) * 10.0 ** rng.uniform(-8, 8, col_idx.size)
    return CsrMatrix(degrees.size, n_cols, row_ptr, col_idx, values)


@pytest.mark.parametrize("f", [1, 2, 16])
def test_local_spmm_adds_in_storage_order(monkeypatch, f):
    # bit equality with a one-entry-at-a-time loop: any pairwise or blocked
    # summation of the 5000- and 10**5-entry rows changes the bits
    a = _mixed_degree_matrix(f)
    rng = np.random.default_rng(100 + f)
    h = rng.choice([-1.0, 1.0], (a.n_cols, f)) * 10.0 ** rng.uniform(-8, 8, (a.n_cols, f))
    expected = spmm_storage_order(a, h).tobytes()
    assert local_spmm(a, h).tobytes() == expected
    # 40-row chunks: several chunks, each adding its levels one at a time,
    # and an np.add.at tail of up to 15 rows in several slices
    monkeypatch.setattr(distgcn.sparse, "_SPMM_STEP_ELEMS", 40 * f)
    assert local_spmm(a, h).tobytes() == expected


def test_local_spmm_reuses_level_order_across_widths(monkeypatch):
    # one level order serves every width and slice size: f=128 cuts the
    # 2582 non-empty rows into 256-row chunks that levels 0..12 run past,
    # f=16 into 2048-row chunks that levels 0 and 1 run past, f=1 takes
    # them in one chunk, and 40-row chunks at f=16 split every one of the
    # 40 levels
    rng = np.random.default_rng(21)
    n_cols = 700
    degrees = rng.choice([0, 1, 2, 5, 8, 13, 40, 400], size=2700,
                         p=[.04, .2, .2, .2, .15, .15, .055, .005])
    cols = [np.sort(rng.choice(n_cols, size=d, replace=False)) for d in degrees]
    row_ptr = np.concatenate([[0], np.cumsum(degrees)])
    col_idx = np.concatenate(cols)
    values = rng.choice([-1.0, 1.0], col_idx.size) * 10.0 ** rng.uniform(-8, 8, col_idx.size)
    a = CsrMatrix(degrees.size, n_cols, row_ptr, col_idx, values)
    hs = {f: rng.normal(size=(n_cols, f)) * 10.0 ** rng.uniform(-8, 8, (n_cols, f))
          for f in (1, 16, 128)}
    expected = {f: spmm_storage_order(a, h).tobytes() for f, h in hs.items()}
    for f in (16, 1, 128, 16):
        assert local_spmm(a, hs[f]).tobytes() == expected[f]
    order = a.level_order
    # the f=128 chunks still end inside some level, so that path is tested
    f128_rows = distgcn.sparse._SPMM_STEP_ELEMS // 128
    assert any(m > f128_rows for m in order.active[:-1])
    monkeypatch.setattr(distgcn.sparse, "_SPMM_STEP_ELEMS", 40 * 16)
    assert local_spmm(a, hs[16]).tobytes() == expected[16]
    assert a.level_order is order


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


def _sparse_with_empty_lines(rng, n_rows, n_cols):
    """Random CSR matrix with every third row and fifth column empty."""
    dense = random_csr_dense(rng, n_rows, density=0.4, square=False, n_cols=n_cols)
    dense[::3] = 0.0
    dense[:, ::5] = 0.0
    return csr_from_dense(dense)


# Shapes whose indices fill the top of 8- and 16-bit keys or just pass them
# (255, 256, 257, 65535, 65536, 65537), with and without entries
_KEY_WIDTHS = [255, 256, 257, 65535, 65536, 65537]
_WIDE_CASES = ([(w, w, 3000) for w in _KEY_WIDTHS]
               + [(255, 65537, 3000), (65537, 256, 3000), (257, 65536, 0), (65537, 65537, 0)])


def _sparse_near_the_top(rng, n_rows, n_cols, nnz):
    """CSR matrix of nnz random triplets, half of them in the last 300 rows
    and columns, so columns hold several entries and indices fill the top
    digit of their key."""
    rows, cols = rng.integers(0, n_rows, nnz), rng.integers(0, n_cols, nnz)
    rows[::2] = n_rows - 1 - rng.integers(0, min(300, n_rows), rows[::2].size)
    cols[::2] = n_cols - 1 - rng.integers(0, min(300, n_cols), cols[::2].size)
    return csr_from_coo(n_rows, n_cols, rows, cols, rng.uniform(1.0, 2.0, nnz))


def _lexsort_case(case):
    """A seed's small matrix with empty lines, or a (n_rows, n_cols, nnz) one."""
    if isinstance(case, int):
        rng = np.random.default_rng(case)
        return _sparse_with_empty_lines(rng, int(rng.integers(1, 40)), int(rng.integers(1, 40)))
    return _sparse_near_the_top(np.random.default_rng(sum(case)), *case)


_LEXSORT_CASES = [*range(6), *(pytest.param(w, id="{}x{}-nnz{}".format(*w)) for w in _WIDE_CASES)]


@pytest.mark.parametrize("bound", [1, 255, 256, 257, 65535, 65536, 65537, 2 ** 32 + 5])
def test_stable_order_is_the_stable_argsort(bound):
    # one counting pass up to 16 bits, then one per 16-bit digit
    rng = np.random.default_rng(bound)
    keys = rng.integers(0, bound, 5000)
    keys[::3] = bound - 1 - rng.integers(0, min(bound, 40), keys[::3].size)
    for k in (keys, keys[:0]):
        np.testing.assert_array_equal(_stable_order(k, bound), np.argsort(k, kind="stable"))


@pytest.mark.parametrize("case", _LEXSORT_CASES)
def test_transpose_matches_lexsort_reference(case):
    a = _lexsort_case(case)
    order = np.lexsort((a.row_of_nnz(), a.col_idx))
    counts = np.bincount(a.col_idx, minlength=a.n_cols)
    expected = CsrMatrix(a.n_cols, a.n_rows, np.concatenate([[0], np.cumsum(counts)]),
                         a.row_of_nnz()[order], a.values[order])
    assert csr_equal(transpose_csr(a), expected)


@pytest.mark.parametrize("case", [*range(6), *(pytest.param((w, w, nnz), id=f"{w}-nnz{nnz}")
                                               for w in _KEY_WIDTHS for nnz in (0, 3000))])
def test_apply_partition_matches_lexsort_reference(case):
    rng = np.random.default_rng(case if isinstance(case, int) else sum(case))
    if isinstance(case, int):
        n, k = int(rng.integers(2, 40)), int(rng.integers(1, 5))
        a = _sparse_with_empty_lines(rng, n, n)
    else:
        n, k = case[0], 3
        a = _sparse_near_the_top(rng, *case)
    part = Partition.from_assignment(rng.integers(0, k, n), k)
    rows, cols = part.perm[a.row_of_nnz()], part.perm[a.col_idx]
    order = np.lexsort((cols, rows))
    counts = np.bincount(rows, minlength=n)
    expected = CsrMatrix(n, n, np.concatenate([[0], np.cumsum(counts)]),
                         cols[order], a.values[order])
    assert csr_equal(apply_partition(a, None, part)[0], expected)


def occupied_cols(a, part):
    """Occupied-column index of a's blocks, as the distributed layout
    stores it: the forward operand is the transpose of its input."""
    dm = build_dist_matrices(transpose_csr(a), part.boundaries, ProcessGrid(part.k, 1),
                             "1d-sparse")
    return dm.fwd.cols


def test_nnz_cols_diagonal_matrix_off_blocks_empty():
    a = csr_from_dense(np.diag(np.arange(1.0, 9.0)))
    occ = occupied_cols(a, block_partition(8, 4))
    for i in range(4):
        for j in range(4):
            assert (occ(i, j).size == 0) == (i != j)


def test_nnz_cols_dense_block_full():
    a = csr_from_dense(np.ones((6, 6)))
    occ = occupied_cols(a, block_partition(6, 3))
    np.testing.assert_array_equal(occ(0, 2), [0, 1])


def test_nnz_cols_matches_dense_scan():
    rng = np.random.default_rng(16)
    dense = random_csr_dense(rng, 16, density=0.15)
    a = csr_from_dense(dense)
    part = block_partition(16, 4)
    occ = occupied_cols(a, part)
    for i in range(4):
        for j in range(4):
            got = occ(i, j).tolist()
            assert got == nnz_cols_dense_scan(dense, part.boundaries, i, j)


def test_nnz_cols_counts_structural_zeros():
    # a stored entry with value 0.0 still occupies its column
    a = CsrMatrix(2, 2, [0, 1, 1], [1], [0.0])
    occ = occupied_cols(a, block_partition(2, 2))
    np.testing.assert_array_equal(occ(0, 1), [0])
    assert occ(0, 0).size == occ(1, 0).size == occ(1, 1).size == 0


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
            assert (occ(i, j).size == 0) == empty


# ---- index helpers -----------------------------------------------------------

def _ranges_loop(starts, lens):
    starts = np.broadcast_to(starts, np.shape(lens))
    return [s + j for s, n in zip(starts.tolist(), list(lens)) for j in range(n)]


@pytest.mark.parametrize("starts, lens", [
    ([], []),
    ([5], [0]),
    ([3, 10, 0], [0, 0, 0]),
    ([7, 2, 2, 9], [3, 0, 2, 1]),
    ([4, 4], [2, 2]),
    (0, [3, 0, 1, 2]),
    (6, []),
    (np.arange(40) * 3, np.arange(40) % 5)])
def test_ranges_matches_loop(starts, lens):
    got = _ranges(np.asarray(starts, dtype=np.int64) if np.ndim(starts) else starts,
                  np.asarray(lens, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == _ranges_loop(starts, lens)


@pytest.mark.parametrize("keys", [[], [4], [2, 2, 2], [1, 2, 3], [0, 0, 1, 5, 5, 5, 7],
                                  list(np.sort(np.random.default_rng(3).integers(0, 9, 60)))])
def test_run_starts_matches_loop(keys):
    keys = np.asarray(keys, dtype=np.int64)
    expected = [i == 0 or keys[i] != keys[i - 1] for i in range(keys.size)]
    got = _run_starts(keys)
    assert got.dtype == bool
    assert got.tolist() == expected
