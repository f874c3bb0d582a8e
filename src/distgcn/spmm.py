"""Distributed sparse-times-dense multiplication over the simulated runtime.

Four variants share one block-row layout: 1D (one block row per process)
and 1.5D (block rows replicated on c processes, with p/c**2 exchange
stages), each in a sparsity-oblivious form that ships whole block rows of
the dense operand and a sparsity-aware form that ships only the rows
matching occupied columns of the relevant sparse blocks.

Each process holds one local operand per phase: its block row restricted
to the block columns of its stages, with columns compressed to the
occupied global columns in ascending order (a halo layout). A phase
stacks the rows it holds or receives in ascending source order and makes
one local multiply, so every entry accumulates in ascending global
column. The oblivious and aware forms therefore produce bit-identical
outputs, and the 1D variants and the replicated schedule with c=1 both
reproduce `serial_reference` of the partitioned matrix bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import Partition, apply_partition, block_partition
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
    g, with its columns compressed to the occupied global columns of that
    range in ascending order. Those columns are, block by block,
    nnz_cols[(i, j)]: the occupied columns of block (i, j), local to block
    column j, in ascending order. A stored entry with value 0.0 still
    occupies its column. widths[j] is the row count of block row j.
    """

    local: dict
    nnz_cols: dict
    widths: list

    @property
    def n_blocks(self) -> int:
        return len(self.widths)


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
    n: int

    @property
    def symmetric(self) -> bool:
        return self.bwd is self.fwd


def _extract_operand(mat: CsrMatrix, boundaries, stages) -> DistOperand:
    nb = len(boundaries)
    widths = [e - s for s, e in boundaries]
    starts = np.array([s for s, _ in boundaries] + [mat.n_cols], dtype=np.int64)
    row_all = mat.row_of_nnz()
    local, cache = {}, {}
    for i, (r0, r1) in enumerate(boundaries):
        lo, hi = mat.row_ptr[r0], mat.row_ptr[r1]
        rows = row_all[lo:hi] - r0
        halo, comp = np.unique(mat.col_idx[lo:hi], return_inverse=True)
        # halo is ascending, so each block column owns one contiguous run
        cuts = np.searchsorted(halo, starts)
        for j in range(nb):
            cache[(i, j)] = halo[cuts[j]:cuts[j + 1]] - starts[j]
        for g in range(nb // stages):
            c0, c1 = cuts[g * stages], cuts[(g + 1) * stages]
            sel = (comp >= c0) & (comp < c1)
            counts = np.bincount(rows[sel], minlength=r1 - r0)
            row_ptr = np.zeros(r1 - r0 + 1, dtype=np.int64)
            np.cumsum(counts, out=row_ptr[1:])
            local[(i, g)] = CsrMatrix(r1 - r0, c1 - c0, row_ptr,
                                      comp[sel] - c0, mat.values[lo:hi][sel])
    return DistOperand(local, cache, widths)


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
    return DistMatrices(grid, bounds, fwd, bwd, a.n_rows)


def validate_variant_grid(variant, p, c):
    """Reject (variant, p, c) combinations that break the grid contract,
    naming the violated constraint."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
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
    and its cost is amortized over every subsequent multiply."""
    if variant.endswith("oblivious"):
        return
    grid = comm.grid
    i, j = comm.coords
    tag = ("idx", comm.next_phase())
    if variant == "1d-sparse":
        r = comm.rank
        for dst in range(comm.p):
            if dst != r and op.nnz_cols[(r, dst)].size:
                comm.isend(dst, op.nnz_cols[(r, dst)], tag=tag)
        for src in range(comm.p):
            if src != r and op.nnz_cols[(src, r)].size:
                comm.recv(src, tag=tag)
        return
    s = grid.stage_count()
    for k in range(s):
        q = j * s + k
        if q != i and op.nnz_cols[(i, q)].size:
            comm.isend(grid.rank_of(q, j), op.nnz_cols[(i, q)], tag=(tag, k))
    for k in range(s):
        q = j * s + k
        if q == i:
            for l in range(grid.n_rows):
                if l != i and op.nnz_cols[(l, q)].size:
                    comm.recv(grid.rank_of(l, j), tag=(tag, k))


def _kernel_1d_oblivious(comm: Comm, op: DistOperand, h_block):
    r = comm.rank
    halo = []
    for j in range(comm.p):
        hj = comm.broadcast(j, h_block if j == r else None)
        halo.append(hj[op.nnz_cols[(r, j)]])
    return local_spmm(op.local[(r, 0)], np.vstack(halo))


def _kernel_1d_sparse(comm: Comm, op: DistOperand, h_block):
    r = comm.rank
    # received rows come in ascending source order, which is halo order;
    # nothing but the stacked halo stays alive through the multiply
    halo = np.vstack(comm.all_to_allv([h_block[op.nnz_cols[(dst, r)]]
                                       for dst in range(comm.p)]))
    return local_spmm(op.local[(r, 0)], halo)


def _kernel_15d(comm: Comm, op: DistOperand, h_block, sparse):
    grid = comm.grid
    i, j = comm.coords
    s = grid.stage_count()
    tag = ("spmm", comm.next_phase())
    halo = []
    for k in range(s):
        q = j * s + k
        idx = op.nnz_cols[(i, q)]
        if q == i:
            # this process owns the stage's block row: serve its column
            for l in range(grid.n_rows):
                if l == i:
                    continue
                if sparse:
                    need = op.nnz_cols[(l, q)]
                    if need.size == 0:
                        continue
                    comm.isend(grid.rank_of(l, j), h_block[need], tag=(tag, k))
                else:
                    comm.isend(grid.rank_of(l, j), h_block, tag=(tag, k))
            halo.append(h_block[idx])
        elif not sparse:
            halo.append(comm.recv(grid.rank_of(q, j), tag=(tag, k))[idx])
        elif idx.size:
            halo.append(comm.recv(grid.rank_of(q, j), tag=(tag, k)))
    z = local_spmm(op.local[(i, j)], np.vstack(halo) if halo else h_block[:0])
    return comm.all_reduce_sum(z, group=grid.row_group(i))


def spmm_kernel(comm: Comm, op: DistOperand, h_block, variant: str):
    """Run one distributed multiply phase from inside a rank procedure.

    h_block is this process's block row of the dense operand (replicated
    across each grid row when c > 1); the return value is the matching
    block row of the product, replicated the same way.
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
    partition: Partition
    grid: ProcessGrid


def run_spmm(a: CsrMatrix, h, p, c, variant, partition=None,
             index_setup=True) -> SpmmRun:
    """Drive one distributed multiply end to end.

    Permutes the inputs by `partition` (block partition by default),
    distributes them on the (p/c) x c grid, runs the chosen variant, and
    gathers the product back in the original row order. For the aware
    variants the one-time index exchange is included unless disabled.
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
        if index_setup:
            exchange_index_lists(comm, dm.fwd, variant)
        return spmm_kernel(comm, dm.fwd, hb, variant)

    run: RunResult = run_program(p, c, program)
    z2 = np.vstack([run.results[grid.rank_of(i, 0)] for i in range(grid.n_rows)])
    return SpmmRun(z2[part.perm], run.ledger, dm, part, grid)
