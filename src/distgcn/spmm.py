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
column list, and each owner receives its send plan, a read-only slice of
the operand's one occupied-column index (`DistOperand.index_lists`).

Each sparse operand has one form, `DistOperand.matrix`: one whole-grid
`CsrMatrix` in the global columns of the dense operand, in which each
process owns the rows of its block row restricted to its column group.
In 1D it is the (permuted) matrix itself; with c > 1 each of its rows is
the run of a matrix row that lies in one column group.

What an operand communicates is its occupied-column index,
`DistOperand.cols`, stored once, owner-major: each stage owner's send
plan and each process's index list are slices of it. Its entries are the
distinct (column, block row) pairs of the operand's entries. The
transpose stores each column as a row whose entries ascend by row, so
every pair is one run of the transpose's storage order, and only the
pairs are sorted, by a narrow block-pair key: no key as long as the
entries is sorted.

The sparse pattern is fixed for a whole run, so `build_dist_matrices`
plans every exchange of an operand at set-up, in the run's variant's
form, and keeps it with the operand: its phase (`DistOperand.schedule`),
aware or oblivious, and for the aware forms its index exchange
(`DistOperand.index`), each inspected once (`runtime.plan_all_to_allv`)
from its count matrix alone. A phase's schedule says how many rows each
stage owner sends each reader, which the ledger charges; which rows they
are lives once, in `DistOperand.cols` (aware) or in the owner's whole
block row (oblivious). A phase's completion makes the local multiplies
of the whole grid as one `local_spmm` of `matrix` with the stage owners'
blocks, which in block order are the dense operand in global row order.
A rank's rows read only rows that its stage owners send it: in the
aware forms exactly those, in the oblivious forms some of them, as
`test_every_rank_reads_only_rows_its_phase_delivers` checks against
sends made by loops. Every row sums in storage order, ascending global
column, so the oblivious and aware forms produce bit-identical outputs,
and the 1D variants and the replicated schedule with c=1 both reproduce
`serial_reference` of the partitioned matrix bit for bit.

Every byte a phase or an index exchange charges is fixed by its plan, so
the ledger of a `run_spmm` call is a function of the `DistMatrices`, the
grid and the dense operand's width: `derive_spmm_ledger` makes it without
a run, through the runtime's own charges (`ExchangeSchedule.charge`,
`runtime.charge_all_reduce`), and its `to_dict()` is the run's, byte for
byte.

Since one rank's thread makes the whole grid's multiply of a phase,
compute is no longer timed per rank: the time a rank spends in a phase
says nothing of its own local work, which only a model of it (flops
from its block's stored entries and the width) can give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import _check_permutable, apply_partition, block_partition
from .runtime import (Comm, CommLedger, ExchangeSchedule, ProcessGrid, RunResult, _communicators,
                      charge_all_reduce, plan_all_to_allv, run_program)
from .sparse import CsrMatrix, _ranges, _stable_order, csr_equal, local_spmm, transpose_csr

__all__ = [
    "DistMatrices",
    "DistOperand",
    "VARIANTS",
    "build_dist_matrices",
    "derive_spmm_ledger",
    "exchange_index_lists",
    "run_spmm",
    "serial_reference",
    "spmm_kernel",
    "validate_variant_grid",
]

VARIANTS = ("1d-oblivious", "1d-sparse", "15d-oblivious", "15d-sparse")


@dataclass(frozen=True, eq=False)
class DistOperand:
    """One sparse operand on a process grid, planned for one variant.

    Block columns are split into column groups of s consecutive blocks,
    the s = p/c**2 stages of the grid (one group of all p blocks in 1D).
    Process (i, g), rank r = i*c + g, multiplies with the rows of block
    row i restricted to column group g: rows row_off[r]:row_off[r+1] of
    `matrix`, in global columns. Block b's stage owner is rank
    owners[b] = b*c + b//s, and the owners' block rows of the dense
    operand, in block order, are that operand in global row order.

    cols(i, j), the occupied-column index of block (i, j), lists the
    columns of block column j (local to it, ascending) that hold a stored
    entry in block row i, even a stored 0.0: the rows owner j ships to
    block row i. It is stored once, owner-major: `idx` holds cols(0, j),
    ..., cols(nb-1, j) for each j in turn, bounded by row j of the
    (nb, nb+1) offsets `ptr`. So idx[ptr[j, 0]:ptr[j, -1]], with run
    lengths np.diff(ptr[j]), is owner j's send plan: the rows it sends to
    block rows 0, ..., nb-1 in one `all_to_allv`.

    `schedule` is the plan of the operand's multiply phase in the run's
    variant's form, made of its count matrix alone: the rows it stands
    for are the send plans above (aware) or the owners' whole block rows
    (oblivious). `index` is the plan of its index exchange: its schedule,
    and halos[r], what rank r sends (`_plan_index`), or None in an
    oblivious form. Everything is made once, at set-up
    (`build_dist_matrices`), and never changed.
    """

    matrix: CsrMatrix
    row_off: np.ndarray
    owners: list
    idx: np.ndarray
    ptr: np.ndarray
    schedule: ExchangeSchedule
    index: tuple

    def cols(self, i, j) -> np.ndarray:
        return self.idx[self.ptr[j, i]:self.ptr[j, i + 1]]

    def product(self, h) -> list:
        """Every rank's local product with the dense operand h, given in
        global row order, which is the stage owners' block rows in block
        order: one multiply of `matrix` for the whole grid, of which each
        rank's product is its row slice. `local_spmm` sums each row in
        storage order whatever the other rows are, so the products are
        bit for bit the per-rank ones."""
        return np.split(local_spmm(self.matrix, h), self.row_off[1:-1])

    def multiply(self, bufs) -> list:
        """Every rank's local product of one phase, as the `then` of its
        exchange, from every rank's buffer: the `product` of the stage
        owners' block rows, stacked."""
        return self.product(np.concatenate([bufs[r] for r in self.owners]))

    def index_lists(self, bufs) -> list:
        """Every rank's received lists of the index exchange, as its
        `then`, each read-only: on block j's stage owner its send plan
        idx[ptr[j, 0]:ptr[j, -1]], which is cols(0, j), cols(1, j), ...
        as its readers send them in ascending rank order, and on every
        other rank an empty list. What each reader sends is a run of this
        same index, so the lists are views of it and no buffer is read."""
        lists = [np.zeros(0, dtype=np.int64)] * len(bufs)
        for j, owner in enumerate(self.owners):
            lists[owner] = self.idx[self.ptr[j, 0]:self.ptr[j, -1]]
        for got in lists:
            got.setflags(write=False)
        return lists


@dataclass
class DistMatrices:
    """The multiply operands on a process grid.

    `fwd` holds the transposed adjacency (the operand of the forward
    product); `bwd` holds the adjacency itself and aliases `fwd` when the
    matrix is symmetric. Process (i, j) multiplies with its rows of either
    operand's `matrix`, so the c processes of grid row i hold the c column
    groups of block row i and sum their partial products.
    """

    boundaries: list
    fwd: DistOperand
    bwd: DistOperand

    @property
    def symmetric(self) -> bool:
        return self.bwd is self.fwd


def _operand(mat: CsrMatrix, tr: CsrMatrix, boundaries, stages, aware) -> DistOperand:
    """mat's `DistOperand` with its exchanges planned; `tr` is mat's
    transpose."""
    matrix, row_off, idx, ptr = _layout(mat, tr, boundaries, stages)
    nb = len(boundaries)
    c = nb // stages
    owners = (np.arange(nb) * c + np.arange(nb) // stages).tolist()
    schedule = _plan_phase(ptr, np.diff(row_off), aware)
    index = _plan_index(idx, ptr, c) if aware else None
    return DistOperand(matrix, row_off, owners, idx, ptr, schedule, index)


def _layout(mat: CsrMatrix, tr: CsrMatrix, boundaries, stages) -> tuple:
    """mat's whole-grid operand, its row offsets, and its occupied-column
    index (idx, ptr). The nnz-sized temporaries die when this returns,
    before any plan is made: plans allocated beside them left heap holes
    that raised the peak RSS of a p=32 training run on a 4000-vertex
    graph by about 1.5 MB."""
    nb = len(boundaries)
    c = nb // stages
    starts = np.array([s for s, _ in boundaries], dtype=np.int64)
    heights = np.array([e - s for s, e in boundaries], dtype=np.int64)
    # block of every row and column index; a zero-width block owns none
    block_of = np.repeat(np.arange(nb), heights)
    # The index lists the distinct (column v, block row i) pairs of mat's
    # entries. tr stores column v as its row v, whose entries ascend in
    # mat's row and so in block row, so every pair is one run of tr's
    # storage order: a run starts where a row of tr starts or the block
    # row changes. No nnz-length key is sorted. Only the pairs are, stably
    # by their owner-major block pair (owner block j = block of v, block
    # row i), so v ascends within each block pair as cols(i, j) lists it.
    bi = block_of[tr.col_idx]
    first = np.zeros(tr.nnz + 1, dtype=bool)
    first[tr.row_ptr] = True
    first = first[:-1]
    first[1:] |= bi[1:] != bi[:-1]
    v = tr.row_of_nnz()[first]
    blk = block_of[v] * nb + bi[first]  # owner-major block pair
    idx = (v - starts[blk // nb])[_stable_order(blk, nb * nb)]  # v in its block column
    ptr = np.zeros(nb * nb + 1, dtype=np.int64)
    np.cumsum(np.bincount(blk, minlength=nb * nb), out=ptr[1:])
    ptr = ptr[np.arange(nb)[:, None] * nb + np.arange(nb + 1)]
    row_off = np.zeros(nb * c + 1, dtype=np.int64)
    np.cumsum(np.repeat(heights, c), out=row_off[1:])
    # in 1D a rank holds whole rows of its block row: the operand is mat
    if c == 1:
        return mat, row_off, idx, ptr
    # a row's entries ascend by column, so by column group: the entries of
    # row r in group g are one run of mat's storage, and they fill row
    # r - starts[i] of rank i*c + g's rows, i the block of r. Every row
    # keeps its entries in order, so the operand is canonical and built
    # unchecked.
    n = mat.n_rows
    lens = np.bincount(mat.row_of_nnz() * c + block_of[mat.col_idx] // stages,
                       minlength=n * c)
    op_row = (row_off[(block_of * c)[:, None] + np.arange(c)]
              + (np.arange(n) - starts[block_of])[:, None])
    run_of = np.empty(n * c, dtype=np.int64)  # the run each row of the operand holds
    run_of[op_row.ravel()] = np.arange(n * c)
    at = _ranges((np.cumsum(lens) - lens)[run_of], lens[run_of])
    row_ptr = np.zeros(n * c + 1, dtype=np.int64)
    np.cumsum(lens[run_of], out=row_ptr[1:])
    matrix = CsrMatrix._derived(n * c, mat.n_cols, row_ptr, mat.col_idx[at], mat.values[at])
    return matrix, row_off, idx, ptr


def build_dist_matrices(a: CsrMatrix, boundaries, grid: ProcessGrid, variant) -> DistMatrices:
    """The operands of a (already permuted to match `boundaries`) and of
    its transpose on `grid`, with every exchange planned in `variant`'s
    form. Needs one block row per grid row, and a variant that fits the
    grid (`validate_variant_grid`), checked here and nowhere later."""
    validate_variant_grid(variant, grid.p, grid.c)
    bounds = list(boundaries)
    if len(bounds) != grid.n_rows:
        raise ValueError(f"need {grid.n_rows} block rows for this grid, got {len(bounds)}")
    stages = grid.stage_count()
    aware = variant.endswith("sparse")
    at = transpose_csr(a)
    fwd = _operand(at, a, bounds, stages, aware)
    if csr_equal(at, a):
        return DistMatrices(bounds, fwd, fwd)
    return DistMatrices(bounds, fwd, _operand(a, at, bounds, stages, aware))


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
    to all others. Returns what this rank received, read-only
    (`DistOperand.index_lists`): on block q's stage owner cols(0, q),
    cols(1, q), ... in turn, on any other rank none; None for an operand
    planned in an oblivious form, which exchanges nothing."""
    if op.index is None:
        return None
    schedule, halos = op.index
    return comm.all_to_allv(halos[comm.rank], schedule, op.index_lists)


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
    (`DistOperand.schedule`): the owner of a stage (j*s <= i < (j+1)*s)
    sends to the c-strided column group j, an aware owner its send plan
    and an oblivious one its whole block row to every member, and every
    other process sends nothing. The local multiplies of all ranks run in
    the exchange's completion, as one `local_spmm` of the operand's
    matrix with the stage owners' block rows (`DistOperand.multiply`).

    `held` serves a phase whose dense operand is fixed, as layer 0's
    forward operand is in one training call: every rank's product, made
    before the run (`DistOperand.product`), which every rank passes.
    The completion then hands these back, reading no row, so a caller
    should make them read-only. Every call still runs the exchange and,
    when c > 1, the row all-reduce, so the ledger and the collective calls
    are those of a multiplying phase.
    """
    h_block = np.asarray(h_block, dtype=np.float64)
    then = op.multiply if held is None else lambda bufs: held
    z = comm.all_to_allv(h_block, op.schedule, then=then)
    if comm.c == 1:
        return z
    return comm.all_reduce_sum(z, group=comm.row)


def _derive(dm: DistMatrices, grid: ProcessGrid, ops) -> tuple:
    """A fresh ledger of `grid` charged with the index exchanges of the
    operands `ops` (`exchange_index_lists`, in rows of one int64), and a
    function phase(op, width) that charges it one `spmm_kernel` phase of
    op with a dense operand of `width` columns: op's exchange and, when
    c > 1, every grid row's all-reduce of its block row's product. Both
    charge through the runtime's own charges (`ExchangeSchedule.charge`,
    `runtime.charge_all_reduce`), so the ledger is the one a run charges."""
    ledger = CommLedger(grid.p)
    for op in ops:
        if op.index is not None:
            op.index[0].charge(ledger, 1, "index")
    rows = _communicators(grid)[1] if grid.c > 1 else []
    heights = [e - s for s, e in dm.boundaries]

    def phase(op, width):
        op.schedule.charge(ledger, width, "data")
        for row, height in zip(rows, heights):
            charge_all_reduce(ledger, row, height * width, "data")

    return ledger, phase


def derive_spmm_ledger(dm: DistMatrices, grid: ProcessGrid, width) -> CommLedger:
    """The ledger `run_spmm` charges when it multiplies through `dm` on
    `grid` a dense operand of `width` columns, derived from the plans
    alone, without a run: the forward operand's index exchange, if it has
    one, then its phase. Every ledger field is a sum of whole bytes or a
    maximum, so the order of the charges moves no byte of `to_dict()`."""
    ledger, phase = _derive(dm, grid, (dm.fwd,))
    phase(dm.fwd, width)
    return ledger


def _owner_counts(sent, c) -> np.ndarray:
    """The count matrix of a phase in which block b's stage owner, rank
    b*c + b//s, sends sent[b, i] rows to block row i's member of its
    column group g, rank i*c + g."""
    nb = sent.shape[0]
    group = np.arange(nb) // (nb // c)
    counts = np.zeros((nb * c, nb * c), dtype=np.int64)
    counts[(np.arange(nb) * c + group)[:, None], group[:, None] + c * np.arange(nb)] = sent
    return counts


def _plan_phase(ptr, heights, aware) -> ExchangeSchedule:
    """The schedule of an operand's phase, whose ranks' buffers have
    heights[r] rows: block b's stage owner sends to every member of its
    column group the rows of its send plan (aware) or its whole block row
    (oblivious), which `DistOperand.multiply` reads in place."""
    nb = ptr.shape[0]
    c = heights.size // nb
    # every member of grid row b has block b's height
    sent = np.diff(ptr, axis=1) if aware else heights.reshape(nb, c)[:, :1]
    return plan_all_to_allv(_owner_counts(sent, c), heights)


def _plan_index(idx, ptr, c) -> tuple:
    """The index exchange is the aware phase transposed: rank r, process
    (i, g), sends each stage owner q of its column group the run cols(i, q)
    of its halo's column list, halos[r], the runs cols(i, j) of the
    group's blocks j in turn."""
    nb = ptr.shape[0]
    runs = np.diff(ptr, axis=1)  # runs[j, i] is the length of cols(i, j)
    # every rank's list in rank order: the runs taken by block row, then
    # block column
    halo = idx[_ranges(ptr[:, :-1].T.ravel(), runs.T.ravel())]
    sizes = runs.T.reshape(nb * c, nb // c).sum(axis=1)
    halos = np.split(halo, np.cumsum(sizes)[:-1])
    return plan_all_to_allv(_owner_counts(runs, c).T, sizes), halos


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
