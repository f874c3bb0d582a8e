"""Sequential sparse and dense kernels shared by every other module.

Sparse matrices are CSR with int64 index arrays and float64 values; dense
matrices are plain 2-D C-contiguous float64 numpy arrays. Every function
here returns the same result for the same inputs and leaves its inputs'
arrays untouched. One piece of state is kept: `local_spmm` stores a
matrix's level order on the matrix at its first multiply, so the arrays
of a matrix must not change once it has been multiplied. Calls that
share a matrix may run concurrently; two that race to store its level
order compute equal orders, so either write is correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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


# Gathered values one local_spmm slice holds (256 KiB of float64). A slice's
# terms, its accumulator rows and the output rows it fills then stay in a
# core's L2 cache between the gather, the adds and the scatter; at 1 MiB they
# spilled, and the f=128 multiplies of a p=8, c=2 training run ran 10-15%
# slower. Unbounded nnz x f temporaries raised that run's peak memory by a
# tenth.
_SPMM_STEP_ELEMS = 1 << 15
# Active rows below which local_spmm stops adding level by level.
_SPMM_TAIL_ROWS = 16


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

    @classmethod
    def _derived(cls, n_rows, n_cols, row_ptr, col_idx, values) -> "CsrMatrix":
        """A matrix whose arrays derive from a validated matrix by a map
        that keeps canonical form, e.g. its columns renumbered by a
        strictly increasing map or its distinct entries moved and sorted,
        built without `__post_init__`'s checks.
        The caller owns that proof and passes int64 indices and float64
        values; every public build keeps its checks."""
        mat = object.__new__(cls)
        mat.n_rows, mat.n_cols = n_rows, n_cols
        mat.row_ptr, mat.col_idx, mat.values = row_ptr, col_idx, values
        return mat

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

    @cached_property
    def level_order(self) -> "LevelOrder":
        """The pattern work of `local_spmm`, derived once per matrix."""
        return _level_order(self)


def csr_from_coo(n_rows, n_cols, rows, cols, vals) -> CsrMatrix:
    """Build a canonical CSR matrix from coordinate triplets.

    Duplicate coordinates are summed and entries whose sum is exactly zero
    are not stored. Triplets are summed in (row, col, value) order so the
    result does not depend on input order, down to the bit pattern of the
    sums. The build is one sort on the int64 key row * n_cols + col, after
    which only the entries of duplicate keys are ordered by value.
    Coordinates must lie inside the shape, and n_rows * n_cols must fit
    the int64 key.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if not (rows.size == cols.size == vals.size):
        raise ValueError("rows, cols and vals must have equal length")
    if int(n_rows) * int(n_cols) > np.iinfo(np.int64).max:
        raise ValueError(f"shape ({n_rows}, {n_cols}) exceeds the int64 key space "
                         "row * n_cols + col")
    if rows.size:
        for name, idx, bound in (("row", rows, n_rows), ("column", cols, n_cols)):
            if idx.min() < 0 or idx.max() >= bound:
                i = int(np.flatnonzero((idx < 0) | (idx >= bound))[0])
                raise ValueError(f"triplet {i} has {name} index {int(idx[i])} "
                                 f"outside [0, {bound})")
        key = rows * n_cols + cols
        order = np.argsort(key)
        key, vals = key[order], vals[order]
        group_start = _run_starts(key)
        starts = np.flatnonzero(group_start)
        if starts.size < key.size:
            # order each duplicate group by value. Equal values differ at most
            # in the sign of a zero, which changes no nonzero sum, and zero
            # sums are not stored, so neither sort needs to be stable.
            dup = ~group_start
            dup[:-1] |= ~group_start[1:]
            at = np.flatnonzero(dup)
            vals[at] = vals[at[np.lexsort((vals[at], key[at]))]]
        vals = np.add.reduceat(vals, starts)
        keep = vals != 0.0
        key, vals = key[starts][keep], vals[keep]
        rows, cols = np.divmod(key, n_cols)
    return CsrMatrix(n_rows, n_cols, _row_ptr(rows, n_rows), cols, vals)


def _row_ptr(rows, n_rows) -> np.ndarray:
    """CSR row pointers of entries in rows `rows` (int64, each in [0, n_rows))."""
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=row_ptr[1:])
    return row_ptr


def _ranges(starts, lens) -> np.ndarray:
    """The ranges [starts[i], starts[i] + lens[i]) concatenated, as int64;
    `starts` may be one scalar for all ranges."""
    lens = np.asarray(lens, dtype=np.int64)
    ends = np.cumsum(lens)
    out = np.repeat(np.asarray(starts - ends + lens, dtype=np.int64), lens)
    out += np.arange(out.size)
    return out


def _run_starts(keys) -> np.ndarray:
    """Mask of the entries of a sorted array that start a run of equal
    keys, i.e. differ from their predecessor."""
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _stable_order(keys, bound) -> np.ndarray:
    """Stable argsort of integer keys in [0, bound), as int64 positions,
    by counting passes: numpy radix-sorts integers of 16 bits or fewer in
    one pass, so a narrower bound takes one pass in its narrowest unsigned
    type and a wider one a pass per 16-bit digit, least significant first."""
    if bound <= 1 << 16:
        return np.argsort(keys.astype(np.min_scalar_type(max(bound - 1, 0))), kind="stable")
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while (bound - 1) >> shift:
        digit = (keys[order] >> shift) & 0xFFFF
        order = order[np.argsort(digit.astype(np.uint16), kind="stable")]
        shift += 16
    return order


def _relabeled(n_rows, n_cols, rows, cols, vals) -> CsrMatrix:
    """Canonical CSR of entries moved to distinct new coordinates (rows,
    cols), values moved, not recomputed: one sort on the int64 key
    row * n_cols + col, which needs n_rows * n_cols below 2**63. The
    entries are a validated matrix's, given as int64 indices in range and
    float64 values, and distinct sorted keys are canonical, so the result
    is built unchecked."""
    order = np.argsort(rows * n_cols + cols)
    return CsrMatrix._derived(n_rows, n_cols, _row_ptr(rows, n_rows), cols[order],
                              vals[order])


def csr_from_edges(edges, n, symmetrize=False) -> CsrMatrix:
    """Build an n-by-n CSR adjacency matrix from (u, v, w) triples.

    Duplicate edges are summed; entries whose sum is exactly zero are not
    stored. With symmetrize=True, every off-diagonal edge is mirrored so
    both (u, v) and (v, u) carry the same weight. Endpoints must be
    integral; 1.5 or NaN is rejected, not truncated.
    """
    arr = np.asarray(list(edges), dtype=np.float64)
    if arr.size == 0:
        return csr_from_coo(n, n, [], [], [])
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("edges must be (u, v, w) triples")
    ends = arr[:, :2]
    bad = ~np.isfinite(ends) | (np.floor(ends) != ends)
    if np.any(bad):
        i = int(np.flatnonzero(bad.any(axis=1))[0])
        raise ValueError(f"edge {i} = ({ends[i, 0]:g}, {ends[i, 1]:g}) has a "
                         "non-integral or non-finite endpoint")
    bad = (ends < 0) | (ends >= n)
    if np.any(bad):
        i = int(np.flatnonzero(bad.any(axis=1))[0])
        raise ValueError(
            f"edge {i} = ({ends[i, 0]:g}, {ends[i, 1]:g}) has an endpoint outside [0, {n})")
    u = arr[:, 0].astype(np.int64)
    v = arr[:, 1].astype(np.int64)
    w = arr[:, 2]
    if symmetrize:
        off = u != v
        u, v = np.concatenate([u, v[off]]), np.concatenate([v, u[off]])
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

    Nothing is sorted: the input is canonical, so row i's diagonal slot is
    its row start plus its count of entries left of column i. Missing
    diagonals are inserted in one pass, every diagonal gains 1.0 in
    place, and stored zeros off the diagonal are dropped. The result is the
    canonical matrix `csr_from_coo` would build from the entries plus the
    unit diagonal, bit for bit.
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
    rows, cols, vals = a.row_of_nnz(), a.col_idx, a.values
    keep = (vals != 0.0) | (rows == cols)
    if not keep.all():
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    row_ptr = _row_ptr(rows, n)
    below = np.bincount(rows[cols < rows], minlength=n)
    slot = row_ptr[:-1] + below
    has = slot < row_ptr[1:]
    has[has] = cols[slot[has]] == diag[has]
    missing = ~has
    # a missing diagonal enters as 0.0, and 0.0 + 1.0 is exactly 1.0
    cols = np.insert(cols, slot[missing], diag[missing])
    vals = np.insert(vals, slot[missing], 0.0)
    row_ptr[1:] += np.cumsum(missing)
    vals[row_ptr[:-1] + below] += 1.0
    rows = np.repeat(diag, np.diff(row_ptr))
    deg = np.bincount(rows, weights=vals, minlength=n)
    dinv = deg ** -0.5
    # grouping the two scale factors keeps symmetric inputs bitwise symmetric
    scaled = vals * (dinv[rows] * dinv[cols])
    return CsrMatrix(n, n, row_ptr, cols, scaled)


def local_spmm(a: CsrMatrix, h) -> np.ndarray:
    """Sparse-times-dense product a @ h.

    Each output entry starts at 0.0 and adds its row's terms in storage
    order (ascending column), so repeated runs are bit-identical, and a
    caller that renumbers columns in ascending order (as the halo layout
    of `distgcn.spmm` does) keeps the summation order of the original
    matrix.

    The work that depends only on the sparsity pattern, the matrix's
    level order (see `CsrMatrix.level_order`), is derived on its first
    multiply and reused by every later one, whatever the width f. A call
    takes the rows in that order in chunks of at most `_SPMM_STEP_ELEMS
    / f` rows (never fewer than `_SPMM_TAIL_ROWS`). Within a chunk, level
    k adds the k-th entry of every row that has more than k entries; in
    degree order those rows are a prefix, so a level is one in-place add
    of the chunk's contiguous rows, one level at a time. The fewer than
    `_SPMM_TAIL_ROWS` rows that outlast the levels then finish through
    `np.add.at` in storage order, so a hub row does not cost one Python
    step per entry. Every add is one IEEE addition of the next term onto
    the running sum, in the same order as a row-by-row loop, so the bits
    do not depend on the chunks or the tail; a pairwise reduction such
    as `np.add.reduceat` would change them.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError("dense operand must be 2-D")
    if a.n_cols != h.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {h.shape}")
    f = h.shape[1]
    out = np.zeros((a.n_rows, f))
    if a.nnz == 0 or f == 0:
        return out
    lv = a.level_order
    active, bounds = lv.active, lv.bounds
    levels, n = len(bounds) - 1, lv.rows.size
    step = max(_SPMM_TAIL_ROWS, _SPMM_STEP_ELEMS // f)
    acc = np.empty((min(step, n), f))
    for c0 in range(0, n, step):
        c1 = min(c0 + step, n)
        acc[:c1 - c0] = 0.0
        k = 0
        while k < levels and active[k] > c0:
            m = min(active[k], c1)
            acc[:m - c0] += lv.terms(h, bounds[k] + c0, bounds[k] + m)
            k += 1
        out[lv.rows[c0:c1]] = acc[:c1 - c0]
    # the rows that outlast the levels finish in storage order
    for lo in range(0, lv.tail_rows.size, step):
        dst = lv.tail_rows[lo:lo + step]
        np.add.at(out, dst, lv.terms(h, bounds[-1] + lo, bounds[-1] + lo + dst.size))
    return out


class LevelOrder(NamedTuple):
    """The work of `local_spmm` that depends only on a matrix's pattern.

    `rows` holds the non-empty rows by decreasing entry count (stable).
    active[k] of them have more than k entries, for k = 0..levels, where
    levels is the entry count of the `_SPMM_TAIL_ROWS`-th row (0 when
    there are fewer rows), so fewer than `_SPMM_TAIL_ROWS` rows outlast
    the levels. `cols` and `vals` hold the entries level-major: level k,
    entries bounds[k]:bounds[k+1], is the k-th entry of each of the first
    active[k] rows. The entries past bounds[levels] are the rest of the
    rows that outlast the levels, each row in storage order, and
    `tail_rows` names the row of each. `active` and `bounds` are lists of
    Python ints, since a multiply walks them one level at a time.
    """

    rows: np.ndarray
    active: list
    bounds: list
    cols: np.ndarray
    vals: np.ndarray
    tail_rows: np.ndarray

    def terms(self, h, lo, hi) -> np.ndarray:
        """Rows h[col] scaled by the values of entries lo:hi of the order."""
        # np.take gathers whole rows in one copy each; h[cols] goes through
        # numpy's general fancy-index path, several times slower on narrow h
        terms = np.take(h, self.cols[lo:hi], axis=0)
        terms *= self.vals[lo:hi, None]
        return terms


def _level_order(a: CsrMatrix) -> LevelOrder:
    deg = np.diff(a.row_ptr)
    rows = np.argsort(-deg, kind="stable")[:np.count_nonzero(deg)]
    d, start = deg[rows], a.row_ptr[rows]
    levels = int(d[_SPMM_TAIL_ROWS - 1]) if rows.size >= _SPMM_TAIL_ROWS else 0
    active = np.searchsorted(-d, -np.arange(levels + 1), side="left")
    bounds = np.zeros(levels + 1, dtype=np.int64)
    np.cumsum(active[:levels], out=bounds[1:])
    # entry k of the i-th row in degree order is start[i] + k
    width = active[:levels]
    level_idx = start[_ranges(0, width)] + np.repeat(np.arange(levels), width)
    lens = d[:active[levels]] - levels
    tail_idx = _ranges(start[:lens.size] + levels, lens)
    idx = np.concatenate([level_idx, tail_idx])
    return LevelOrder(rows, active.tolist(), bounds.tolist(), a.col_idx[idx],
                      a.values[idx], np.repeat(rows[:lens.size], lens))


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
    return _transposed(a)[0]


def _transposed(a: CsrMatrix) -> tuple:
    """The transpose and its permutation of the entries: its entry e is a's
    entry order[e]. Stored entries ascend by row, so one stable counting
    sort by column (`_stable_order`) leaves each column's entries in row
    order, Gustavson's O(nnz + n) transpose."""
    order = _stable_order(a.col_idx, a.n_cols)
    at = CsrMatrix._derived(a.n_cols, a.n_rows, _row_ptr(a.col_idx, a.n_cols),
                            a.row_of_nnz()[order], a.values[order])
    return at, order
