"""Distributed sparse-times-dense multiplication over the simulated runtime.

Four variants share one block-row layout: 1D (one block row per process)
and 1.5D (block rows replicated on c processes, with p/c**2 exchange
stages), each in a sparsity-oblivious form that ships whole block rows of
the dense operand and a sparsity-aware form that ships only the rows
matching occupied columns of the relevant sparse blocks.

Each process holds one local operand per phase: its block row restricted
to the block columns of its stages, with columns compressed to the
occupied global columns in ascending order (a halo layout), which one
owner-major index, `DistOperand.cols`, lists block by block. A phase
stacks the rows it holds or receives in ascending source order and makes
one local multiply, so every entry accumulates in ascending global
column. The oblivious and aware forms therefore produce bit-identical
outputs, and the 1D variants and the replicated schedule with c=1 both
reproduce `serial_reference` of the partitioned matrix bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import apply_partition, block_partition
from .runtime import Comm, ProcessGrid, RunResult, run_program
from .sparse import CsrMatrix, csr_equal, local_spmm, transpose_csr

__all__ = [
    "DistMatrices",
    "DistOperand",
    "VARIANTS",
    "build_dist_matrices",
    "exchange_index_lists",
    "run_spmm",
    "serial_reference",
    "spmm_kernel",
    "validate_variant_grid",
]

VARIANTS = ("1d-oblivious", "1d-sparse", "15d-oblivious", "15d-sparse")


@dataclass
class DistOperand:
    """One sparse operand in halo layout.

    Block columns are split into column groups of s consecutive blocks,
    the s = p/c**2 stages of the grid (one group of all p blocks in 1D).
    local[(i, g)] holds the rows of block row i restricted to column group
    g, its columns compressed to the occupied columns of that range:
    cols(i, j) for each block column j of the group in turn.

    cols(i, j), the occupied-column index of block (i, j), lists the
    columns of block column j (local to it, ascending) that hold a stored
    entry in block row i, even a stored 0.0: the rows owner j ships to
    block row i. It is stored once, owner-major: `idx` holds cols(0, j),
    ..., cols(nb-1, j) for each j in turn, bounded by row j of the
    (nb, nb+1) offsets `ptr`. So idx[ptr[j, 0]:ptr[j, -1]], with run
    lengths np.diff(ptr[j]), is owner j's 1D send plan: one gather of it
    is the `all_to_allv` buffer for all ranks.
    """

    local: dict
    idx: np.ndarray
    ptr: np.ndarray

    def cols(self, i, j) -> np.ndarray:
        return self.idx[self.ptr[j, i]:self.ptr[j, i + 1]]


@dataclass
class DistMatrices:
    """Halo layout of the multiply operands on a process grid.

    `fwd` holds the transposed adjacency (the operand of the forward
    product); `bwd` holds the adjacency itself and aliases `fwd` when the
    matrix is symmetric. Process (i, j) multiplies with local[(i, j)] of
    either operand, so the c processes of grid row i hold the c column
    groups of block row i and sum their partial products.
    """

    grid: ProcessGrid
    boundaries: list
    fwd: DistOperand
    bwd: DistOperand

    @property
    def symmetric(self) -> bool:
        return self.bwd is self.fwd


def _extract_operand(mat: CsrMatrix, boundaries, stages) -> DistOperand:
    nb = len(boundaries)
    starts = np.array([s for s, _ in boundaries], dtype=np.int64)
    # block of every row and column index; a zero-width block owns none
    block_of = np.repeat(np.arange(nb), [e - s for s, e in boundaries])
    rows = mat.row_of_nnz()
    blk = block_of[mat.col_idx] * nb + block_of[rows]  # owner-major block id
    # one sorted pass over the (owner block, block row, column) keys
    key = blk * mat.n_cols + mat.col_idx
    order = np.argsort(key)
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    comp = np.empty(key.size, dtype=np.int64)
    comp[order] = np.cumsum(first) - 1
    idx = mat.col_idx[order[first]] - starts[blk[order[first]] // nb]
    ptr = np.searchsorted(key[first], (np.arange(nb)[:, None] * nb
                                       + np.arange(nb + 1)) * mat.n_cols)
    # halo column of an entry: its place in idx, moved from its run's
    # start there to the run's start within its column group of block row i
    runs = np.diff(ptr, axis=1).T.reshape(nb, nb // stages, stages)
    run_start = (np.cumsum(runs, axis=2) - runs).reshape(nb, nb)
    comp += (run_start.T - ptr[:, :nb]).ravel()[blk]
    local = {}
    for i, (r0, r1) in enumerate(boundaries):
        lo, hi = mat.row_ptr[r0], mat.row_ptr[r1]
        for g in range(nb // stages):
            sel = blk[lo:hi] // (nb * stages) == g
            counts = np.bincount(rows[lo:hi][sel] - r0, minlength=r1 - r0)
            row_ptr = np.zeros(r1 - r0 + 1, dtype=np.int64)
            np.cumsum(counts, out=row_ptr[1:])
            local[(i, g)] = CsrMatrix(r1 - r0, runs[i, g].sum(), row_ptr,
                                      comp[lo:hi][sel], mat.values[lo:hi][sel])
    return DistOperand(local, idx, ptr)


def build_dist_matrices(a: CsrMatrix, boundaries, grid: ProcessGrid) -> DistMatrices:
    """Split a (already permuted to match `boundaries`) into the halo
    layout for `grid`. Needs one block row per grid row."""
    bounds = list(getattr(boundaries, "boundaries", boundaries))
    if len(bounds) != grid.n_rows:
        raise ValueError(f"need {grid.n_rows} block rows for this grid, got {len(bounds)}")
    stages = grid.stage_count()
    at = transpose_csr(a)
    fwd = _extract_operand(at, bounds, stages)
    bwd = fwd if csr_equal(at, a) else _extract_operand(a, bounds, stages)
    return DistMatrices(grid, bounds, fwd, bwd)


def validate_variant_grid(variant, p, c):
    """Reject (variant, p, c) combinations that break the grid contract,
    naming the violated constraint."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if p < 1 or c < 1:
        raise ValueError(f"p and c must be at least 1 (p={p}, c={c})")
    if variant.startswith("1d") and c != 1:
        raise ValueError(f"variant {variant} requires c == 1 (got c={c})")
    if p % c != 0:
        raise ValueError(f"c must divide p (p={p}, c={c})")
    if variant.startswith("15d") and p % (c * c) != 0:
        raise ValueError(f"variant {variant} requires c*c to divide p (p={p}, c={c})")


def exchange_index_lists(comm: Comm, op: DistOperand, variant: str):
    """One-time exchange of the occupied-column lists the aware variants
    send rows from. Each receiver announces to every relevant owner which
    of its rows it needs; the traffic is charged as index payloads. The
    sparse pattern is fixed for a whole training run, so this runs once
    and its cost is amortized over every subsequent multiply. In 1D
    (c=1) every owner is a stage, so every rank announces to all others."""
    if variant.endswith("oblivious"):
        return
    grid = comm.grid
    i, j = comm.coords
    s = grid.stage_count()
    tag = ("idx", comm.next_phase())
    for q in range(j * s, (j + 1) * s):
        need = op.cols(i, q)
        if q != i and need.size:
            comm.isend(grid.rank_of(q, j), need, tag=tag)
    if j * s <= i < (j + 1) * s:
        # this process owns a stage's block row: hear from every reader
        for l in range(grid.n_rows):
            if l != i and op.cols(l, i).size:
                comm.recv(grid.rank_of(l, j), tag=tag)


def _kernel_1d_oblivious(comm: Comm, op: DistOperand, h_block):
    r = comm.rank
    halo = []
    for j in range(comm.p):
        hj = comm.broadcast(j, h_block if j == r else None)
        halo.append(np.take(hj, op.cols(r, j), axis=0))
    return local_spmm(op.local[(r, 0)], np.vstack(halo))


def _kernel_1d_sparse(comm: Comm, op: DistOperand, h_block):
    ptr = op.ptr[comm.rank]
    # received rows come in ascending source order, which is halo order
    halo = comm.all_to_allv(np.take(h_block, op.idx[ptr[0]:ptr[-1]], axis=0), np.diff(ptr))
    return local_spmm(op.local[(comm.rank, 0)], halo)


def _kernel_15d(comm: Comm, op: DistOperand, h_block, sparse):
    grid = comm.grid
    i, j = comm.coords
    s = grid.stage_count()
    tag = ("spmm", comm.next_phase())
    halo = []
    for k in range(s):
        q = j * s + k
        idx = op.cols(i, q)
        if q == i:
            # this process owns the stage's block row: serve its column
            for l in range(grid.n_rows):
                need = op.cols(l, i)
                if l != i and (need.size or not sparse):
                    comm.isend(grid.rank_of(l, j),
                               np.take(h_block, need, axis=0) if sparse else h_block,
                               tag=(tag, k))
            halo.append(np.take(h_block, idx, axis=0))
        elif not sparse:
            halo.append(np.take(comm.recv(grid.rank_of(q, j), tag=(tag, k)), idx, axis=0))
        elif idx.size:
            halo.append(comm.recv(grid.rank_of(q, j), tag=(tag, k)))
    halo = np.vstack(halo) if halo else h_block[:0]
    z = local_spmm(op.local[(i, j)], halo)
    # free the halo before parking at the all-reduce, where the rest of the
    # grid row may still be gathering its own
    del halo
    return comm.all_reduce_sum(z, group=grid.row_group(i))


def spmm_kernel(comm: Comm, op: DistOperand, h_block, variant: str):
    """Run one distributed multiply phase from inside a rank procedure.

    h_block is this process's block row of the dense operand (replicated
    across each grid row when c > 1); the return value is the matching
    block row of the product, replicated the same way. A 1.5D product is
    the row all-reduce's read-only sum, one array shared by the grid row,
    so a caller that wants to write to it must copy it first.
    """
    h_block = np.asarray(h_block, dtype=np.float64)
    if variant == "1d-oblivious":
        return _kernel_1d_oblivious(comm, op, h_block)
    if variant == "1d-sparse":
        return _kernel_1d_sparse(comm, op, h_block)
    if variant == "15d-oblivious":
        return _kernel_15d(comm, op, h_block, sparse=False)
    if variant == "15d-sparse":
        return _kernel_15d(comm, op, h_block, sparse=True)
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def serial_reference(a: CsrMatrix, h) -> np.ndarray:
    """Single-process product transpose(a) @ h, the result every
    distributed variant must reproduce."""
    return local_spmm(transpose_csr(a), h)


@dataclass
class SpmmRun:
    z: np.ndarray
    ledger: object
    dm: DistMatrices


def run_spmm(a: CsrMatrix, h, p, c, variant, partition=None) -> SpmmRun:
    """Drive one distributed multiply end to end.

    Permutes the inputs by `partition` (block partition by default),
    distributes them on the (p/c) x c grid, runs the chosen variant, and
    gathers the product back in the original row order. For the aware
    variants the one-time index exchange is included.
    """
    validate_variant_grid(variant, p, c)
    if a.n_rows != a.n_cols:
        raise ValueError("distributed multiply requires a square matrix")
    h = np.asarray(h, dtype=np.float64)
    grid = ProcessGrid(p, c)
    part = partition if partition is not None else block_partition(a.n_rows, grid.n_rows)
    if part.k != grid.n_rows:
        raise ValueError(f"partition has {part.k} parts but the grid needs {grid.n_rows}")
    a2, h2 = apply_partition(a, h, part)
    dm = build_dist_matrices(a2, part.boundaries, grid)

    def program(comm):
        i, _ = comm.coords
        r0, r1 = dm.boundaries[i]
        hb = h2[r0:r1]
        exchange_index_lists(comm, dm.fwd, variant)
        return spmm_kernel(comm, dm.fwd, hb, variant)

    run: RunResult = run_program(p, c, program)
    z2 = np.vstack([run.results[grid.rank_of(i, 0)] for i in range(grid.n_rows)])
    return SpmmRun(z2[part.perm], run.ledger, dm)
