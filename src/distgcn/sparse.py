"""Sequential sparse and dense kernels shared by every other module.

Sparse matrices are CSR with int64 index arrays and float64 values; dense
matrices are plain 2-D C-contiguous float64 numpy arrays. Every function
here is pure with respect to its inputs and safe to call concurrently on
shared read-only data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CsrMatrix",
    "csr_from_coo",
    "csr_from_dense",
    "csr_from_edges",
    "csr_equal",
    "gcn_normalize",
    "gemm",
    "local_spmm",
    "transpose_csr",
]


# Gathered values one local_spmm slice holds (1 MiB of float64). Many rank
# threads multiply at once; unbounded nnz x f temporaries raised the peak
# memory of a p=8, f=128 training run by a tenth.
_SPMM_STEP_ELEMS = 1 << 17


@dataclass
class CsrMatrix:
    """Compressed sparse row matrix in canonical form.

    Canonical means row_ptr is non-decreasing with row_ptr[0] == 0 and
    row_ptr[-1] == nnz, column indices are strictly increasing within each
    row, and the constructors in this module never store explicit zeros.
    """

    n_rows: int
    n_cols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.row_ptr = np.asarray(self.row_ptr, dtype=np.int64)
        self.col_idx = np.asarray(self.col_idx, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if self.row_ptr.shape != (self.n_rows + 1,):
            raise ValueError("row_ptr must have length n_rows + 1")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self.col_idx.size:
            raise ValueError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if self.values.size != self.col_idx.size:
            raise ValueError("values and col_idx must have equal length")
        if self.col_idx.size:
            if self.col_idx.min() < 0 or self.col_idx.max() >= self.n_cols:
                raise ValueError("column index out of range")
            rows = self.row_of_nnz()
            same_row = rows[1:] == rows[:-1]
            if np.any(same_row & (np.diff(self.col_idx) <= 0)):
                raise ValueError("column indices must be strictly increasing within each row")

    @property
    def nnz(self) -> int:
        return int(self.col_idx.size)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def row_of_nnz(self) -> np.ndarray:
        """Row index of every stored entry, in storage order."""
        return np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.row_ptr))

    def row(self, i):
        """(column indices, values) of row i as views."""
        lo, hi = self.row_ptr[i], self.row_ptr[i + 1]
        return self.col_idx[lo:hi], self.values[lo:hi]

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        if self.nnz:
            out[self.row_of_nnz(), self.col_idx] = self.values
        return out

    def copy(self) -> "CsrMatrix":
        return CsrMatrix(self.n_rows, self.n_cols, self.row_ptr.copy(),
                         self.col_idx.copy(), self.values.copy())


def csr_from_coo(n_rows, n_cols, rows, cols, vals) -> CsrMatrix:
    """Build a canonical CSR matrix from coordinate triplets.

    Duplicate coordinates are summed and entries whose sum is exactly zero
    are not stored. Triplets are sorted by (row, col, value) before
    reduction so the result does not depend on input order, down to the bit
    pattern of the sums.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if not (rows.size == cols.size == vals.size):
        raise ValueError("rows, cols and vals must have equal length")
    if rows.size:
        order = np.lexsort((vals, cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        group_start = np.empty(rows.size, dtype=bool)
        group_start[0] = True
        group_start[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(group_start)
        vals = np.add.reduceat(vals, starts)
        keep = vals != 0.0
        rows, cols, vals = rows[starts][keep], cols[starts][keep], vals[keep]
    counts = np.bincount(rows, minlength=n_rows) if rows.size else np.zeros(n_rows, np.int64)
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    return CsrMatrix(n_rows, n_cols, row_ptr, cols, vals)


def csr_from_edges(edges, n, symmetrize=False) -> CsrMatrix:
    """Build an n-by-n CSR adjacency matrix from (u, v, w) triples.

    Duplicate edges are summed; entries whose sum is exactly zero are not
    stored. With symmetrize=True, every off-diagonal edge is mirrored so
    both (u, v) and (v, u) carry the same weight.
    """
    arr = np.asarray(list(edges), dtype=np.float64)
    if arr.size == 0:
        return csr_from_coo(n, n, [], [], [])
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("edges must be (u, v, w) triples")
    u = arr[:, 0].astype(np.int64)
    v = arr[:, 1].astype(np.int64)
    w = arr[:, 2]
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"edge {i} = ({int(u[i])}, {int(v[i])}) has an endpoint outside [0, {n})")
    if symmetrize:
        off = u != v
        u = np.concatenate([u, v[off]])
        v = np.concatenate([v, arr[:, 0].astype(np.int64)[off]])
        w = np.concatenate([w, w[off]])
    return csr_from_coo(n, n, u, v, w)


def csr_from_dense(d) -> CsrMatrix:
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2:
        raise ValueError("expected a 2-D array")
    rows, cols = np.nonzero(d)
    return csr_from_coo(d.shape[0], d.shape[1], rows, cols, d[rows, cols])


def csr_equal(a: CsrMatrix, b: CsrMatrix) -> bool:
    """Exact structural and numerical equality."""
    return (a.shape == b.shape
            and np.array_equal(a.row_ptr, b.row_ptr)
            and np.array_equal(a.col_idx, b.col_idx)
            and np.array_equal(a.values, b.values))


def gcn_normalize(a: CsrMatrix) -> CsrMatrix:
    """Symmetrically normalized adjacency with self-loops.

    Adds a unit self-loop to every vertex and rescales each entry by the
    inverse square roots of both endpoint degrees (degrees taken after the
    self-loops are added). Weights must be finite and non-negative; a
    negative weight could make a degree zero or negative and its inverse
    square root infinite or NaN. An isolated vertex ends up with a single
    diagonal entry of 1. Symmetric input yields symmetric output.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("normalization requires a square matrix")
    if not np.isfinite(a.values).all():
        raise ValueError("normalization requires finite edge weights")
    if a.nnz and a.values.min() < 0:
        raise ValueError("normalization requires non-negative edge weights, "
                         f"got {a.values.min()}")
    n = a.n_rows
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([a.row_of_nnz(), diag])
    cols = np.concatenate([a.col_idx, diag])
    vals = np.concatenate([a.values, np.ones(n)])
    with_loops = csr_from_coo(n, n, rows, cols, vals)
    deg = np.bincount(with_loops.row_of_nnz(), weights=with_loops.values, minlength=n)
    dinv = deg ** -0.5
    # grouping the two scale factors keeps symmetric inputs bitwise symmetric
    scaled = with_loops.values * (dinv[with_loops.row_of_nnz()] * dinv[with_loops.col_idx])
    return CsrMatrix(n, n, with_loops.row_ptr, with_loops.col_idx, scaled)


def local_spmm(a: CsrMatrix, h) -> np.ndarray:
    """Sparse-times-dense product a @ h.

    Each output entry starts at 0.0 and adds its row's terms in storage
    order (ascending column), so repeated runs are bit-identical, and a
    caller that renumbers columns in ascending order (as the halo layout
    of `distgcn.spmm` does) keeps the summation order of the original
    matrix. Entries go in storage-order slices of at most
    `_SPMM_STEP_ELEMS` gathered values, which bounds the temporaries
    without changing that order.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError("dense operand must be 2-D")
    if a.n_cols != h.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {h.shape}")
    out = np.zeros((a.n_rows, h.shape[1]))
    rows = a.row_of_nnz()
    step = max(1, _SPMM_STEP_ELEMS // max(1, h.shape[1]))
    for lo in range(0, a.nnz, step):
        terms = h[a.col_idx[lo:lo + step]]
        terms *= a.values[lo:lo + step, None]
        np.add.at(out, rows[lo:lo + step], terms)
    return out


def gemm(a, b) -> np.ndarray:
    """Dense product a @ b with explicit shape validation."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("gemm operands must be 2-D")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    return a @ b


def transpose_csr(a: CsrMatrix) -> CsrMatrix:
    """Exact transpose in canonical CSR form.

    Pure permutation of the stored entries, hence an involution down to
    the bit level.
    """
    order = np.argsort(a.col_idx, kind="stable")
    counts = np.bincount(a.col_idx, minlength=a.n_cols) if a.nnz else np.zeros(a.n_cols, np.int64)
    row_ptr = np.zeros(a.n_cols + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    return CsrMatrix(a.n_cols, a.n_rows, row_ptr, a.row_of_nnz()[order], a.values[order])

