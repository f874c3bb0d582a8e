"""Distributed sparse-times-dense multiplication over the simulated runtime.

Four variants share one block-row layout: 1D (one block row per process)
and 1.5D (block rows replicated on c processes, with p/c**2 exchange
stages), each in a sparsity-oblivious form that ships whole block rows of
the dense operand and a sparsity-aware form that ships only the rows
matching occupied columns of the relevant sparse blocks.

The four variants are one kernel: they differ only in c and in what a
stage owner sends. Every phase is one whole-grid `all_to_allv`, in which
each stage owner sends either whole block rows (oblivious) or just the
occupied rows (aware) to its column group, followed, when c > 1, by an
all-reduce over the grid row; 1D is the case c=1, in which every process
owns a stage. The aware variants' one-time index exchange is one
`all_to_allv` of index lists per operand.

Each process has one local operand: its block row restricted to the
block columns of its stages, with columns compressed to the occupied
global columns in ascending order (a halo layout), which one owner-major
index, `DistOperand.cols`, lists block by block. The operands of all
processes are stacked in rank order into one block-diagonal matrix,
`DistOperand.local`. A phase receives each process's rows in ascending
source order, which is halo order, and the exchange's completion makes
the local multiplies of the whole grid, one per group of consecutive
ranks, so every entry accumulates in ascending global column. The
oblivious and aware forms therefore produce bit-identical outputs, and
the 1D variants and the replicated schedule with c=1 both reproduce
`serial_reference` of the partitioned matrix bit for bit.

Since one rank's thread makes the whole grid's multiplies of a phase,
compute is no longer timed per rank: the time a rank spends in a phase
says nothing of its own local work, which only a model of it (flops
from its block's stored entries and the width) can give.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .partition import apply_partition, block_partition
from .runtime import Comm, ProcessGrid, RunResult, run_program
from .sparse import (CsrMatrix, _ranges, _row_ptr, _run_starts, csr_equal, local_spmm,
                     transpose_csr)

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

# Stored entries after which a run of ranks closes into one multiply of a
# phase (`DistOperand.groups`). One multiply per rank pays a fixed cost
# per call that dominates at small ranks; one multiply over the whole grid
# gathers the whole halo at once, which raised a p=32 1d-sparse training
# run's peak memory by a sixth, and its one level order spreads the
# gathers of a p=8, c=2 run over a halo too large for the cache, which
# made those f=128 multiplies 3-13% slower than per-rank ones. At 2**15
# the p=32 peak rose again.
_GROUP_NNZ = 1 << 14


@dataclass
class DistOperand:
    """One sparse operand in halo layout.

    Block columns are split into column groups of s consecutive blocks,
    the s = p/c**2 stages of the grid (one group of all p blocks in 1D).
    Process (i, g), rank i*c + g, multiplies with the rows of block row i
    restricted to column group g, its columns compressed to the occupied
    columns of that range: cols(i, j) for each block column j of the group
    in turn, its halo.

    `local` stacks those p operands in rank order into one block-diagonal
    matrix: rank r's operand is rows row_off[r]:row_off[r+1] and columns
    col_off[r]:col_off[r+1] of it, and no entry lies outside these blocks.
    `groups` covers the ranks with consecutive runs (lo, hi, a), where a
    is the row and column slice of `local` for ranks lo..hi-1; a run
    closes once it holds `_GROUP_NNZ` stored entries, so a rank whose
    operand alone holds that many is a run of its own.

    cols(i, j), the occupied-column index of block (i, j), lists the
    columns of block column j (local to it, ascending) that hold a stored
    entry in block row i, even a stored 0.0: the rows owner j ships to
    block row i. It is stored once, owner-major: `idx` holds cols(0, j),
    ..., cols(nb-1, j) for each j in turn, bounded by row j of the
    (nb, nb+1) offsets `ptr`. So idx[ptr[j, 0]:ptr[j, -1]], with run
    lengths np.diff(ptr[j]), is owner j's send plan: the rows it sends to
    block rows 0, ..., nb-1 in one `all_to_allv`. `starts[j]` is the first
    global row of block row j, where an oblivious receiver finds block j's
    rows in a stack of whole blocks.
    """

    local: CsrMatrix
    row_off: np.ndarray
    col_off: np.ndarray
    groups: list
    idx: np.ndarray
    ptr: np.ndarray
    starts: np.ndarray

    def cols(self, i, j) -> np.ndarray:
        return self.idx[self.ptr[j, i]:self.ptr[j, i + 1]]


@dataclass
class DistMatrices:
    """Halo layout of the multiply operands on a process grid.

    `fwd` holds the transposed adjacency (the operand of the forward
    product); `bwd` holds the adjacency itself and aliases `fwd` when the
    matrix is symmetric. Process (i, j) multiplies with its block of
    either operand's `local`, so the c processes of grid row i hold the c
    column groups of block row i and sum their partial products.
    """

    boundaries: list
    fwd: DistOperand
    bwd: DistOperand

    @property
    def symmetric(self) -> bool:
        return self.bwd is self.fwd


def _extract_operand(mat: CsrMatrix, boundaries, stages) -> DistOperand:
    nb = len(boundaries)
    c = nb // stages
    starts = np.array([s for s, _ in boundaries], dtype=np.int64)
    heights = np.array([e - s for s, e in boundaries], dtype=np.int64)
    # block of every row and column index; a zero-width block owns none
    block_of = np.repeat(np.arange(nb), heights)
    rows = mat.row_of_nnz()
    bi, bj = block_of[rows], block_of[mat.col_idx]
    blk = bj * nb + bi  # owner-major block id
    # one sorted pass over the (owner block, block row, column) keys
    key = blk * mat.n_cols + mat.col_idx
    order = np.argsort(key)
    key = key[order]
    first = _run_starts(key)
    comp = np.empty(key.size, dtype=np.int64)
    comp[order] = np.cumsum(first) - 1
    idx = mat.col_idx[order[first]] - starts[blk[order[first]] // nb]
    ptr = np.searchsorted(key[first], (np.arange(nb)[:, None] * nb
                                       + np.arange(nb + 1)) * mat.n_cols)
    # the halos of all ranks in rank order are the runs cols(i, j) taken
    # reader-major, i.e. by block row i, then block column j. An entry's
    # column of `local` is its place in idx, moved from its run's start
    # there to the run's start in that order.
    runs = np.diff(ptr, axis=1).T.ravel()
    run_start = (np.cumsum(runs) - runs).reshape(nb, nb)
    comp += (run_start.T - ptr[:, :nb]).ravel()[blk]
    col_off = np.zeros(nb * c + 1, dtype=np.int64)
    np.cumsum(runs.reshape(nb * c, stages).sum(axis=1), out=col_off[1:])
    row_off = np.zeros(nb * c + 1, dtype=np.int64)
    np.cumsum(np.repeat(heights, c), out=row_off[1:])
    # each entry's rank, and its row of `local`; within a rank the entries
    # keep their storage order, so a stable sort by rank is the stacking.
    # numpy sorts integers of up to 16 bits, p < 65536, in one radix pass.
    rank = (bi * c + bj // stages).astype(np.min_scalar_type(nb * c))
    at = np.argsort(rank, kind="stable")
    rank = rank[at]
    local_rows = row_off[rank] + rows[at] - starts[rank // c]
    local = CsrMatrix(row_off[-1], col_off[-1], _row_ptr(local_rows, row_off[-1]),
                      comp[at], mat.values[at])
    return DistOperand(local, row_off, col_off, _groups(local, row_off, col_off),
                       idx, ptr, starts)


def _groups(local: CsrMatrix, row_off, col_off) -> list:
    """`DistOperand.groups`: runs of consecutive ranks, each closed once it
    holds `_GROUP_NNZ` stored entries, with their slices of `local`."""
    entry_off = local.row_ptr[row_off]
    p = len(row_off) - 1
    groups, lo = [], 0
    for hi in range(1, p + 1):
        if hi < p and entry_off[hi] - entry_off[lo] < _GROUP_NNZ:
            continue
        r0, r1, c0 = row_off[lo], row_off[hi], col_off[lo]
        e0, e1 = entry_off[lo], entry_off[hi]
        groups.append((lo, hi, CsrMatrix(r1 - r0, col_off[hi] - c0,
                                         local.row_ptr[r0:r1 + 1] - e0,
                                         local.col_idx[e0:e1] - c0, local.values[e0:e1])))
        lo = hi
    return groups


def build_dist_matrices(a: CsrMatrix, boundaries, grid: ProcessGrid) -> DistMatrices:
    """Split a (already permuted to match `boundaries`) into the halo
    layout for `grid`. Needs one block row per grid row."""
    bounds = list(boundaries)
    if len(bounds) != grid.n_rows:
        raise ValueError(f"need {grid.n_rows} block rows for this grid, got {len(bounds)}")
    stages = grid.stage_count()
    at = transpose_csr(a)
    fwd = _extract_operand(at, bounds, stages)
    bwd = fwd if csr_equal(at, a) else _extract_operand(a, bounds, stages)
    return DistMatrices(bounds, fwd, bwd)


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


def _need(op: DistOperand, i, q0, q1):
    """What block row i reads from owners q0..q1-1: the places in op.idx
    of cols(i, q0), ..., cols(i, q1-1) in turn, and each one's length."""
    start = op.ptr[q0:q1, i]
    lens = op.ptr[q0:q1, i + 1] - start
    return _ranges(start, lens), lens


def exchange_index_lists(comm: Comm, op: DistOperand, variant: str):
    """One-time exchange of the occupied-column lists the aware variants
    send rows from: one `all_to_allv` in which each process sends its need
    lists to the stage owners of its column group, charged as index
    payloads. The sparse pattern is fixed for a whole training run, so
    this runs once and its cost is amortized over every subsequent
    multiply. In 1D (c=1) every owner is a stage, so every rank announces
    to all others."""
    if variant.endswith("oblivious"):
        return
    i, j = comm.coords
    s = comm.grid.stage_count()
    places, lens = _need(op, i, j * s, (j + 1) * s)
    counts = np.zeros(comm.p, dtype=np.int64)
    counts[j::comm.c][j * s:(j + 1) * s] = lens
    comm.all_to_allv(op.idx, counts, rows=places)


def spmm_kernel(comm: Comm, op: DistOperand, h_block, variant: str):
    """Run one distributed multiply phase from inside a rank procedure.

    h_block is this process's block row of the dense operand (replicated
    across each grid row when c > 1); the return value is the matching
    block row of the product, replicated the same way. A 1D product is a
    row slice of the product of its rank's group (`DistOperand.groups`),
    and a 1.5D product is the row all-reduce's read-only sum, one array
    shared by the grid row, so a caller that wants to write to it must
    copy it first.

    Every variant is one `all_to_allv` over the whole grid: the owner of
    a stage (j*s <= i < (j+1)*s) sends to the c-strided column group j,
    an aware owner its send plan and an oblivious one its whole block row
    to every member, and every other process sends nothing. The halo
    arrives in ascending source order, i.e. ascending stage; oblivious
    receivers take their occupied columns from the whole blocks. The
    local multiplies of all ranks run in the exchange's completion, one
    per group (`_multiply_phase`).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    h_block = np.asarray(h_block, dtype=np.float64)
    grid = comm.grid
    i, j = comm.coords
    s = grid.stage_count()
    aware = variant.endswith("sparse")
    counts = np.zeros(comm.p, dtype=np.int64)
    rows = op.idx[:0]
    if j * s <= i < (j + 1) * s:
        if aware:
            ptr = op.ptr[i]
            counts[j::comm.c] = np.diff(ptr)
            rows = op.idx[ptr[0]:ptr[-1]]
        else:
            counts[j::comm.c] = len(h_block)
            rows = np.tile(np.arange(len(h_block)), grid.n_rows)
    z = comm.all_to_allv(h_block, counts, rows=rows,
                         then=functools.partial(_multiply_phase, op, aware))
    if comm.c == 1:
        return z
    return comm.all_reduce_sum(z, group=grid.row_group(i))


def _multiply_phase(op: DistOperand, aware, stacked, gather, bounds) -> list:
    """Every rank's local product of one phase, as the `then` of its
    exchange: receiver r's rows are stacked[gather[bounds[r]:bounds[r+1]]].
    The ranks of each group gather their halos with one `np.take` and
    multiply once with the group's slice of `op.local`; each rank's
    product is its row slice of the group's. `local_spmm` sums each row in
    storage order whatever the other rows are, so the products are bit for
    bit the per-rank ones. An aware receiver's rows are its halo; an
    oblivious one's are the whole blocks of its column group, from which
    its halo columns are picked."""
    pick = None if aware else _whole_block_rows(op, bounds)
    out = []
    for lo, hi, a in op.groups:
        if pick is None:
            sel = gather[bounds[lo]:bounds[hi]]
        else:
            sel = gather[pick[op.col_off[lo]:op.col_off[hi]]]
        z = local_spmm(a, np.take(stacked, sel, axis=0))
        out += np.split(z, op.row_off[lo + 1:hi] - op.row_off[lo])
    return out


def _whole_block_rows(op: DistOperand, bounds) -> np.ndarray:
    """For every column of `op.local`, the place in an oblivious phase's
    gather index of the row that holds it: its rank's offset in `bounds`
    plus its row in the whole blocks of the rank's column group."""
    nb = op.ptr.shape[0]
    stages = nb // ((op.row_off.size - 1) // nb)  # p = nb * c
    # the runs cols(i, j) reader-major, as `local` takes them
    runs = np.diff(op.ptr, axis=1).T.ravel()
    block = np.tile(np.arange(nb), nb)
    block_at = op.starts[block] - op.starts[block // stages * stages]
    return (op.idx[_ranges(op.ptr[:, :nb].T.ravel(), runs)] + np.repeat(block_at, runs)
            + np.repeat(bounds[:-1], np.diff(op.col_off)))


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
    variants the one-time index exchange is included. The dense operand
    h must be finite.
    """
    validate_variant_grid(variant, p, c)
    if a.n_rows != a.n_cols:
        raise ValueError("distributed multiply requires a square matrix")
    h = np.asarray(h, dtype=np.float64)
    if not np.isfinite(h).all():
        raise ValueError("dense operand h must be finite (found NaN or inf)")
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
