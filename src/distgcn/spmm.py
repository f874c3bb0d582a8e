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
`all_to_allv` of index lists per operand, the aware phase transposed:
each process sends the stage owners of its column group its halo's
column list.

Each process has one local operand: its block row restricted to the
block columns of its stages, with columns compressed to the occupied
global columns in ascending order (a halo layout), which one owner-major
index, `DistOperand.cols`, lists block by block. The operands of all
processes are stacked in rank order into one block-diagonal matrix,
`DistOperand.local`.

The layout is built in linear passes, without sorting any key as long as
the entries. Its halo columns are the distinct (column, block row) pairs
of the operand's entries. The transpose stores each column as a row whose
entries ascend by row, so every pair is one run of the transpose's
storage order, and the transpose's permutation of the entries
(`sparse._transposed`) leads each entry to its pair. Only the pairs are
sorted, by a narrow block-pair key. In 1D `local` keeps the operand's own
row pointers; with c > 1 each of its rows is one run of an operand row.

The sparse pattern is fixed for a whole run, so `build_dist_matrices`
plans every exchange of an operand at set-up, in the run's variant's
form, and keeps it with the operand: its phase (`DistOperand.phase`),
aware or oblivious, and for the aware forms its index exchange
(`DistOperand.index`), each with its schedule inspected once
(`runtime.plan_all_to_allv`). A phase's plan also holds `local` with
every column renumbered to the row of the exchange's stacked block rows
that holds it. A phase then runs the exchange through its schedule, and
its completion makes the local multiplies of the whole grid as one
`local_spmm` straight from the stacked rows: no halo is gathered first,
and no count matrix or gather index is built again. A rank's halo
columns ascend in global column, and so do the stacked rows they map
to, so every entry still accumulates in ascending global column. The
oblivious and aware forms therefore produce bit-identical outputs, and
the 1D variants and the replicated schedule with c=1 both reproduce
`serial_reference` of the partitioned matrix bit for bit.

Since one rank's thread makes the whole grid's multiply of a phase,
compute is no longer timed per rank: the time a rank spends in a phase
says nothing of its own local work, which only a model of it (flops
from its block's stored entries and the width) can give.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .partition import _check_permutable, apply_partition, block_partition
from .runtime import Comm, ExchangeSchedule, ProcessGrid, RunResult, plan_all_to_allv, run_program
from .sparse import (CsrMatrix, _ranges, _stable_order, _transposed, csr_equal, local_spmm,
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
    `phase` is the plan of the operand's multiply phase in the run's
    variant's form, and `index` that of its index exchange: its schedule,
    and halos[r], what rank r sends (`_plan_index`), or None in an
    oblivious form. Both are made at set-up (`build_dist_matrices`).

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
    idx: np.ndarray
    ptr: np.ndarray
    starts: np.ndarray
    phase: _Phase = None
    index: tuple = None

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


def _extract_operand(mat: CsrMatrix, tr: CsrMatrix, to_tr, boundaries, stages,
                     aware) -> DistOperand:
    """mat's halo layout with its exchanges planned. `tr` is mat's
    transpose, and mat's entry e is tr's entry to_tr[e]."""
    op, glob, halo = _halo_layout(mat, tr, to_tr, boundaries, stages)
    op.phase = _plan_phase(op, aware, glob)
    if aware:
        op.index = _plan_index(op, halo)
    return op


def _halo_layout(mat: CsrMatrix, tr: CsrMatrix, to_tr, boundaries, stages) -> tuple:
    """mat's `DistOperand`, unplanned, and the column of mat and of its
    block that each column of its `local` holds. The nnz-sized
    temporaries die when this returns, before any plan is made: plans
    allocated beside them left heap holes that raised the peak RSS of a
    p=32 training run on a 4000-vertex graph by about 1.5 MB."""
    nb = len(boundaries)
    c = nb // stages
    starts = np.array([s for s, _ in boundaries], dtype=np.int64)
    heights = np.array([e - s for s, e in boundaries], dtype=np.int64)
    # block of every row and column index; a zero-width block owns none
    block_of = np.repeat(np.arange(nb), heights)
    # The halo columns are the distinct (column v, block row i) pairs of
    # mat's entries. tr stores column v as its row v, whose entries ascend
    # in mat's row and so in block row, so every pair is one run of tr's
    # storage order: a run starts where a row of tr starts or the block
    # row changes. No nnz-length key is sorted. Only the pairs are, stably
    # by their owner-major block pair (owner block j = block of v, block
    # row i), so v ascends within each block pair as cols(i, j) lists it;
    # and each entry of mat finds its pair through to_tr.
    bi = block_of[tr.col_idx]
    first = np.zeros(tr.nnz + 1, dtype=bool)
    first[tr.row_ptr] = True
    first = first[:-1]
    first[1:] |= bi[1:] != bi[:-1]
    pair = np.cumsum(first) - 1  # the pair of each entry of tr
    v = tr.row_of_nnz()[first]
    blk = block_of[v] * nb + bi[first]  # owner-major block pair
    order = _stable_order(blk, nb * nb)
    v_local = v - starts[blk // nb]  # v in its block column
    idx = v_local[order]
    ptr = np.zeros(nb * nb + 1, dtype=np.int64)
    np.cumsum(np.bincount(blk, minlength=nb * nb), out=ptr[1:])
    ptr = ptr[np.arange(nb)[:, None] * nb + np.arange(nb + 1)]
    # the halos of all ranks in rank order are the runs cols(i, j) taken
    # reader-major, i.e. by block row i, then block column j. A pair's
    # column of `local` is its place in idx, moved from its run's start
    # there to the run's start in that order.
    runs = np.diff(ptr, axis=1).T.ravel()
    run_start = (np.cumsum(runs) - runs).reshape(nb, nb)
    col_of_pair = np.empty(blk.size, dtype=np.int64)
    col_of_pair[order] = np.arange(blk.size)
    col_of_pair += (run_start.T - ptr[:, :nb]).ravel()[blk]
    comp = col_of_pair[pair[to_tr]]
    col_off = np.zeros(nb * c + 1, dtype=np.int64)
    np.cumsum(runs.reshape(nb * c, stages).sum(axis=1), out=col_off[1:])
    row_off = np.zeros(nb * c + 1, dtype=np.int64)
    np.cumsum(np.repeat(heights, c), out=row_off[1:])
    # Every row keeps its entries in order and `comp` ascends with the
    # column within a rank, so `local` is canonical and built unchecked.
    # In 1D a rank holds whole rows of its block row, so `local` has mat's
    # rows, row pointers and values.
    if c == 1:
        local = CsrMatrix._derived(mat.n_rows, int(col_off[-1]), mat.row_ptr, comp,
                                   mat.values)
    else:
        # a row's entries ascend by column, so by column group: the entries
        # of row r in group g are one run of mat's storage, and they fill
        # row r - starts[i] of rank i*c + g's rows, i the block of r
        n = mat.n_rows
        lens = np.bincount(mat.row_of_nnz() * c + block_of[mat.col_idx] // stages,
                           minlength=n * c)
        local_row = (row_off[(block_of * c)[:, None] + np.arange(c)]
                     + (np.arange(n) - starts[block_of])[:, None])
        run_of = np.empty(n * c, dtype=np.int64)  # the run each row of `local` holds
        run_of[local_row.ravel()] = np.arange(n * c)
        at = _ranges((np.cumsum(lens) - lens)[run_of], lens[run_of])
        row_ptr = np.zeros(n * c + 1, dtype=np.int64)
        np.cumsum(lens[run_of], out=row_ptr[1:])
        local = CsrMatrix._derived(n * c, int(col_off[-1]), row_ptr, comp[at], mat.values[at])
    # the halo: the pair of each column of `local`, as the column v of mat
    # (global) and of its block (local)
    glob = np.empty(v.size, dtype=np.int64)
    glob[col_of_pair] = v
    halo = np.empty(v.size, dtype=np.int64)
    halo[col_of_pair] = v_local
    return DistOperand(local, row_off, col_off, idx, ptr, starts), glob, halo


def build_dist_matrices(a: CsrMatrix, boundaries, grid: ProcessGrid, variant) -> DistMatrices:
    """Split a (already permuted to match `boundaries`) into the halo
    layout for `grid`, with every exchange planned in `variant`'s form.
    Needs one block row per grid row, and a variant that fits the grid
    (`validate_variant_grid`), checked here and nowhere later."""
    validate_variant_grid(variant, grid.p, grid.c)
    bounds = list(boundaries)
    if len(bounds) != grid.n_rows:
        raise ValueError(f"need {grid.n_rows} block rows for this grid, got {len(bounds)}")
    stages = grid.stage_count()
    aware = variant.endswith("sparse")
    # at's entry e is a's entry order[e]
    at, order = _transposed(a)
    fwd = _extract_operand(at, a, order, bounds, stages, aware)
    if csr_equal(at, a):
        return DistMatrices(bounds, fwd, fwd)
    to_at = np.empty_like(order)
    to_at[order] = np.arange(order.size)
    return DistMatrices(bounds, fwd, _extract_operand(a, at, to_at, bounds, stages, aware))


def validate_variant_grid(variant, p, c):
    """Reject (variant, p, c) combinations that break the grid contract,
    naming the violated constraint. `ProcessGrid` checks the grid itself:
    p and c at least 1, and c dividing p."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant.startswith("1d") and c != 1:
        raise ValueError(f"variant {variant} requires c == 1 (got c={c})")
    ProcessGrid(p, c)
    if variant.startswith("15d") and p % (c * c) != 0:
        raise ValueError(f"variant {variant} requires c*c to divide p (p={p}, c={c})")


def _check_matrix(a: CsrMatrix):
    """The trust boundary's check of a graph matrix: square, and every
    stored value finite. A NaN or inf entry would otherwise reach every
    product row that reads its column, without an error."""
    if a.n_rows != a.n_cols:
        raise ValueError(f"the matrix must be square, got {a.n_rows}x{a.n_cols}")
    bad = ~np.isfinite(a.values)
    if bad.any():
        e = int(bad.argmax())
        row = int(np.searchsorted(a.row_ptr, e, side="right")) - 1
        raise ValueError(f"the matrix must be finite, but entry ({row}, {a.col_idx[e]}) "
                         f"is {a.values[e]}")


def exchange_index_lists(comm: Comm, op: DistOperand):
    """One-time exchange of the occupied-column lists the aware variants
    send rows from: one `all_to_allv`, through the operand's planned
    schedule (`DistOperand.index`), in which each process sends its need
    lists to the stage owners of its column group, charged as index
    payloads. The sparse pattern is fixed for a whole training run, so
    this runs once and its cost is amortized over every subsequent
    multiply. In 1D (c=1) every owner is a stage, so every rank announces
    to all others. Returns what this rank received: on block q's stage
    owner cols(0, q), cols(1, q), ... in turn, on any other rank none;
    None for an operand planned in an oblivious form, which exchanges
    nothing."""
    if op.index is None:
        return None
    schedule, halos = op.index
    return comm.all_to_allv(halos[comm.rank], schedule)


def spmm_kernel(comm: Comm, op: DistOperand, h_block, held=None):
    """Run one distributed multiply phase from inside a rank procedure.

    h_block is this process's block row of the dense operand (replicated
    across each grid row when c > 1); the return value is the matching
    block row of the product, replicated the same way. A 1D product is a
    row slice of one product for the whole grid, and a 1.5D product is
    the row all-reduce's read-only sum, one array shared by the grid row,
    so a caller that wants to write to it must copy it first.

    The variant is the one the operand was planned for at set-up
    (`build_dist_matrices`). Every variant is one `all_to_allv` over the
    whole grid, run through the operand's planned schedule
    (`DistOperand.phase`): the owner of a stage (j*s <= i < (j+1)*s)
    sends to the c-strided column group j, an aware owner its send plan
    and an oblivious one its whole block row to every member, and every
    other process sends nothing. The local multiplies of all ranks run in
    the exchange's completion, as one `local_spmm` of the planned operand
    with the stacked block rows (`_Phase.multiply`).

    `held` serves a phase whose dense operand is the same in every call,
    as layer 0's forward operand is in one training call: a list, empty
    before the first call, that every rank passes. The first call's
    multiply fills it with every rank's product, made read-only, and each
    later call's completion returns those instead of multiplying, and so
    stacks no row. Every call still runs the exchange and, when c > 1,
    the row all-reduce, so the ledger and the collective calls are those
    of a multiplying phase.
    """
    h_block = np.asarray(h_block, dtype=np.float64)
    phase = op.phase
    then = phase.multiply if held is None else functools.partial(_hold, held, phase.multiply)
    z = comm.all_to_allv(h_block, phase.schedule, then=then)
    if comm.c == 1:
        return z
    return comm.all_reduce_sum(z, group=comm.grid.row_group(comm.coords[0]))


@dataclass(frozen=True, eq=False)
class _Phase:
    """One operand's multiply phase, planned once: the exchange's
    schedule, and `operand`, the operand's `local` with every column
    renumbered to the row of the exchange's stacked block rows that holds
    it, so the multiply reads the rows where they arrived."""

    schedule: ExchangeSchedule
    operand: CsrMatrix
    row_off: np.ndarray

    def multiply(self, bufs) -> list:
        """Every rank's local product of one phase, as the `then` of its
        exchange: one multiply for the whole grid of the stacked senders'
        block rows, of which each rank's product is its row slice.
        `local_spmm` sums each row in storage order whatever the other
        rows are, and the renumbering keeps each row's storage order, so
        the products are bit for bit the per-rank ones."""
        return np.split(local_spmm(self.operand, np.concatenate(bufs)), self.row_off[1:-1])


def _hold(held: list, multiply, bufs) -> list:
    """A held phase's `then`: the products `held` keeps, which the first
    call makes with `multiply` and makes read-only."""
    if not held:
        held.extend(multiply(bufs))
        for z in held:
            z.setflags(write=False)
    return held


def _owner_counts(op: DistOperand, sent) -> tuple:
    """The count matrix of a phase in which block b's stage owner, rank
    b*c + b//s, sends sent[b, i] rows to block row i's member of its
    column group g, rank i*c + g; and the owners."""
    nb = op.ptr.shape[0]
    p = op.row_off.size - 1
    c = p // nb
    group = np.arange(nb) // (nb // c)
    owners = np.arange(nb) * c + group
    counts = np.zeros((p, p), dtype=np.int64)
    counts[owners[:, None], group[:, None] + c * np.arange(nb)] = sent
    return counts, owners


def _plan_phase(op: DistOperand, aware, glob) -> _Phase:
    """The schedule of op's exchange and its renumbered operand; glob[x]
    is the global column that column x of `local` holds. Block b's stage
    owner sends to every member of its column group its send plan (aware)
    or its whole block row (oblivious)."""
    nb = op.ptr.shape[0]
    heights = np.diff(op.row_off)
    rows = [op.idx[:0]] * heights.size
    if aware:
        counts, owners = _owner_counts(op, np.diff(op.ptr, axis=1))
        for b, r in enumerate(owners.tolist()):
            rows[r] = op.idx[op.ptr[b, 0]:op.ptr[b, -1]]
    else:
        # every member of grid row b has block b's height
        counts, owners = _owner_counts(op, heights.reshape(nb, -1)[:, :1])
        for r in owners.tolist():
            rows[r] = np.tile(np.arange(heights[r]), nb)
    schedule = plan_all_to_allv(counts, rows, heights)
    # an aware receiver's rows are its halo, in the stacked rows' order.
    # The oblivious owners stack their whole blocks once each, in block
    # order, so global column v is stacked row v.
    at = schedule.gather if aware else glob
    # `at` ascends within each rank's columns, so every row keeps its
    # strictly increasing columns and `local`'s canonical form carries over
    loc = op.local
    operand = CsrMatrix._derived(loc.n_rows, int(heights[schedule.stacked].sum()),
                                 loc.row_ptr, at[loc.col_idx], loc.values)
    return _Phase(schedule, operand, op.row_off)


def _plan_index(op: DistOperand, halo) -> tuple:
    """The index exchange is the aware phase transposed: rank r sends each
    stage owner the runs cols(i, q) of its halo's column list, halos[r],
    that its aware phase receives from that owner. `halo` holds every
    rank's list in rank order."""
    counts, _ = _owner_counts(op, np.diff(op.ptr, axis=1))
    halos = np.split(halo, op.col_off[1:-1])
    return plan_all_to_allv(counts.T, [None] * len(halos), np.diff(op.col_off)), halos


def _layout_partition(a: CsrMatrix, h, grid: ProcessGrid, partition) -> tuple:
    """The partition that lays out a and the dense rows h on `grid` (a
    block partition of its block rows by default), checked against the
    grid and as `apply_partition` checks it; h as a float64 array; and
    whether the partition moves any vertex. Under the identity permutation
    the caller keeps a and h as they are, uncopied. The permutation and
    the layout (`build_dist_matrices`) stay with the caller, which calls
    them by its own names, the ones benchmark tracing wraps."""
    part = partition if partition is not None else block_partition(a.n_rows, grid.n_rows)
    if part.k != grid.n_rows:
        raise ValueError(f"partition has {part.k} parts but the grid needs {grid.n_rows}")
    h = _check_permutable(a, h, part)
    return part, h, not np.array_equal(part.perm, np.arange(part.n))


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
    variants the one-time index exchange is included. The matrix must be
    square (`_check_matrix`), and it and the dense operand h finite.
    """
    validate_variant_grid(variant, p, c)
    _check_matrix(a)
    h = np.asarray(h, dtype=np.float64)
    if not np.isfinite(h).all():
        raise ValueError("dense operand h must be finite (found NaN or inf)")
    grid = ProcessGrid(p, c)
    part, h, moves = _layout_partition(a, h, grid, partition)
    a2, h2 = apply_partition(a, h, part) if moves else (a, h)
    dm = build_dist_matrices(a2, part.boundaries, grid, variant)

    def program(comm):
        i, _ = comm.coords
        r0, r1 = dm.boundaries[i]
        hb = h2[r0:r1]
        exchange_index_lists(comm, dm.fwd)
        return spmm_kernel(comm, dm.fwd, hb)

    run: RunResult = run_program(p, c, program)
    z2 = np.vstack([run.results[grid.rank_of(i, 0)] for i in range(grid.n_rows)])
    return SpmmRun(z2[part.perm], run.ledger, dm)
