"""K-way vertex partitions and their communication-volume metrics.

Provides the block and random baselines, a BFS-grown partitioner refined
for total edgecut, and a move-based refiner that additionally drives down
the bottleneck part's send volume. Send volume is counted in dense-matrix
rows; multiply by the feature width and 8 to get bytes.

Both refiners keep one vertex-by-part table of neighbor counts, built by
`_part_counts`, and score all of a vertex's target parts with array
operations on it; `comm_metrics` applies the same foreign-part rule to the
distinct (vertex, neighbor part) pairs of the matrix.

The BFS partitioner grows its parts along a level-synchronous BFS (one
array step per level, in the order a queue would visit). Its edgecut
passes visit only flagged vertices, those with some other part holding
strictly more of their neighbors than their own: no other vertex can gain
from a move, and a move changes only the flags of the moved vertex and its
neighbors, so the moves are exactly those of scanning every vertex.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass

import numpy as np

from .sparse import CsrMatrix, transpose_csr

__all__ = [
    "CommMetrics",
    "Partition",
    "apply_partition",
    "block_partition",
    "comm_metrics",
    "edgecut",
    "greedy_tv_partition",
    "imbalance_pct",
    "random_partition",
    "volume_balanced_refine",
]

log = logging.getLogger(__name__)


@dataclass
class Partition:
    """A k-way vertex partition with its row layout.

    `assignment` maps each vertex to a part, `perm` maps old vertex ids to
    new ids, and after renumbering the vertices of part i occupy the
    contiguous row range `boundaries[i]`. Part sizes may differ.
    """

    n: int
    k: int
    assignment: np.ndarray
    perm: np.ndarray
    boundaries: list

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        self.perm = np.asarray(self.perm, dtype=np.int64)
        self.validate()

    @classmethod
    def from_assignment(cls, assignment, k) -> "Partition":
        """Partition with the canonical layout: parts in ascending order,
        original vertex order preserved inside each part."""
        assignment = np.asarray(assignment, dtype=np.int64)
        n = assignment.size
        order = np.argsort(assignment, kind="stable")
        perm = np.empty(n, dtype=np.int64)
        perm[order] = np.arange(n)
        sizes = np.bincount(assignment, minlength=k)
        return cls(n, k, assignment, perm, _boundaries_from_sizes(sizes))

    def validate(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.assignment.shape != (self.n,):
            raise ValueError("assignment must have one entry per vertex")
        if self.assignment.size and (self.assignment.min() < 0 or self.assignment.max() >= self.k):
            raise ValueError("part ids must lie in [0, k)")
        if not np.array_equal(np.sort(self.perm), np.arange(self.n)):
            raise ValueError("perm must be a bijection on [0, n)")
        if len(self.boundaries) != self.k:
            raise ValueError("need one boundary range per part")
        pos = 0
        for i, (s, e) in enumerate(self.boundaries):
            if s != pos or e < s:
                raise ValueError("boundaries must be consecutive and cover [0, n)")
            pos = e
        if pos != self.n:
            raise ValueError("boundaries must cover [0, n)")
        sizes = np.bincount(self.assignment, minlength=self.k)
        widths = np.array([e - s for s, e in self.boundaries])
        if not np.array_equal(sizes, widths):
            raise ValueError("boundary widths must match part sizes")
        # each part must be a contiguous new-id range
        new_to_part = self.assignment[self.inv_perm]
        if self.n and np.any(np.diff(new_to_part) < 0):
            raise ValueError("parts must occupy contiguous ascending new-id ranges")

    @property
    def inv_perm(self) -> np.ndarray:
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.perm] = np.arange(self.n)
        return inv

    @property
    def part_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)


@dataclass
class CommMetrics:
    """Send-volume statistics of one partition, in dense rows.

    per_part_send_rows[j] counts, over all vertices of part j, the foreign
    parts that hold at least one out-neighbor; that is exactly the number
    of dense rows part j ships in one sparsity-aware multiply. cut_p is the
    largest single block-pair row count, an upper bound on any pairwise
    message.
    """

    per_part_send_rows: np.ndarray
    total_rows: int
    max_rows: float
    avg_rows: float
    imbalance_pct: float
    cut_p: int
    f: int = 1

    def to_dict(self) -> dict:
        return {
            "per_part_send_rows": [int(x) for x in self.per_part_send_rows],
            "total_rows": int(self.total_rows),
            "max_rows": float(self.max_rows),
            "avg_rows": float(self.avg_rows),
            "imbalance_pct": float(self.imbalance_pct),
            "cut_p": int(self.cut_p),
            "f": int(self.f),
            "total_bytes": float(self.total_rows * self.f * 8),
            "max_bytes": float(self.max_rows * self.f * 8),
        }


def _boundaries_from_sizes(sizes):
    bounds = []
    pos = 0
    for s in sizes:
        bounds.append((pos, pos + int(s)))
        pos += int(s)
    return bounds


def imbalance_pct(avg, mx) -> float:
    """Percentage by which the maximum exceeds the average; 0 when avg is 0."""
    if avg <= 0:
        return 0.0
    return 100.0 * (mx - avg) / avg


def block_partition(n, k) -> Partition:
    """Contiguous blocks under the identity permutation; sizes differ by at
    most one (the first n mod k parts take the extra vertex)."""
    _check_kn(n, k)
    base, rem = divmod(n, k)
    sizes = [base + 1] * rem + [base] * (k - rem)
    assignment = np.repeat(np.arange(k, dtype=np.int64), sizes)
    return Partition.from_assignment(assignment, k)


def random_partition(n, k, seed) -> Partition:
    """Uniformly random relabeling followed by an even block split."""
    _check_kn(n, k)
    perm = np.random.default_rng(seed).permutation(n).astype(np.int64)
    base, rem = divmod(n, k)
    sizes = [base + 1] * rem + [base] * (k - rem)
    part_of_new = np.repeat(np.arange(k, dtype=np.int64), sizes)
    return Partition(n, k, part_of_new[perm], perm, _boundaries_from_sizes(sizes))


def _check_kn(n, k):
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise ValueError(f"cannot split {n} vertices into {k} parts")


def _sym_pattern(a: CsrMatrix) -> CsrMatrix:
    """Undirected pattern of a (union with its transpose), diagonal removed."""
    n = a.n_rows
    rows, cols = a.row_of_nnz(), a.col_idx
    off = rows != cols
    rows, cols = rows[off], cols[off]
    # each (row, col) pair as one key below n**2; sorted, distinct keys are
    # the canonical CSR order (np.sort and a mask beat np.unique here)
    keys = np.sort(np.concatenate([rows * n + cols, cols * n + rows]))
    distinct = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    rows, cols = np.divmod(keys[distinct], n)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_ptr[1:])
    return CsrMatrix(n, n, row_ptr, cols, np.ones(cols.size))


def edgecut(a: CsrMatrix, part: Partition) -> int:
    """Number of undirected edges whose endpoints lie in different parts."""
    if a.n_rows != a.n_cols or a.n_rows != part.n:
        raise ValueError("partition does not match the matrix")
    pat = _sym_pattern(a)
    rows, cols = pat.row_of_nnz(), pat.col_idx
    upper = rows < cols
    return int(np.count_nonzero(
        part.assignment[rows[upper]] != part.assignment[cols[upper]]))


def comm_metrics(a: CsrMatrix, part: Partition, f=1) -> CommMetrics:
    """Exact per-part send volumes for one sparsity-aware multiply.

    A vertex contributes one row for every foreign part that holds an
    out-neighbor; the block-pair counts feeding cut_p come from the same
    distinct (vertex, neighbor part) pairs.
    """
    if a.n_rows != a.n_cols or a.n_rows != part.n:
        raise ValueError("partition does not match the matrix")
    k = part.k
    assign = part.assignment
    v, t = np.divmod(np.unique(a.row_of_nnz() * k + assign[a.col_idx]), k)
    own = assign[v]
    foreign = t != own
    send = np.bincount(own[foreign], minlength=k)
    pair_rows = np.bincount(t[foreign] * k + own[foreign])
    total = int(send.sum())
    mx = float(send.max())
    avg = total / k
    cut_p = int(pair_rows.max()) if pair_rows.size else 0
    return CommMetrics(send, total, mx, avg, imbalance_pct(avg, mx), cut_p, f)


def apply_partition(a: CsrMatrix, h, part: Partition):
    """Symmetric permutation of a and matching row permutation of h.

    Returns (P a Pᵀ, permuted h); h may be None. Entry values are moved,
    never recomputed, so a round trip is exact.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("symmetric permutation requires a square matrix")
    if a.n_rows != part.n:
        raise ValueError("partition does not match the matrix")
    if h is not None:
        h = np.asarray(h, dtype=np.float64)
        if h.ndim != 2:
            raise ValueError(f"dense operand h must be 2-D, got shape {h.shape}")
        if h.shape[0] != a.n_rows:
            raise ValueError("row count of h must match the matrix")
    perm = part.perm
    new_rows = perm[a.row_of_nnz()]
    new_cols = perm[a.col_idx]
    # (row, col) order by one distinct key below n**2, which int64 holds
    # for n < 3.03e9
    order = np.argsort(new_rows * a.n_cols + new_cols)
    counts = np.bincount(new_rows, minlength=a.n_rows) if a.nnz else np.zeros(a.n_rows, np.int64)
    row_ptr = np.zeros(a.n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    a2 = CsrMatrix(a.n_rows, a.n_cols, row_ptr, new_cols[order], a.values[order])
    h2 = None if h is None else h[part.inv_perm]
    return a2, h2


def greedy_tv_partition(a: CsrMatrix, k, epsilon=0.10, max_passes=10) -> Partition:
    """BFS-grown parts refined by greedy edgecut-reducing vertex moves.

    Parts are grown along a BFS order until they hold roughly nnz/k
    nonzeros (cap (1+epsilon) times that), then single-vertex moves that
    strictly reduce the edgecut are applied while the cap is respected.
    The input pattern is treated as undirected. Deterministic.

    The BFS runs one level at a time. Each refinement pass visits, in
    ascending id, only the vertices flagged as having some other part hold
    strictly more of their neighbors than their own part does; no other
    vertex can gain from a move. A visit moves the vertex to the part under
    the cap that holds the most of its neighbors, the lowest part id on
    ties, so the moves are those of scanning every vertex.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("partitioning requires a square matrix")
    n = a.n_rows
    _check_kn(n, k)
    _check_refine_params(epsilon, max_passes)
    pat = _sym_pattern(a)
    weight = np.maximum(np.diff(pat.row_ptr), 1)
    cap = (1.0 + epsilon) * weight.sum() / k
    if weight.max() > cap:
        log.warning("a single vertex carries %d nonzeros, above the balance cap %.1f; "
                    "relaxing the constraint to row granularity", int(weight.max()), cap)
        cap = float(weight.max())

    order = _bfs_order(pat)
    part_in_order = []
    cur, cur_w = 0, 0
    for idx, w in enumerate(weight[order].tolist()):
        must_leave = n - idx == k - cur - 1
        if cur < k - 1 and cur_w > 0 and (cur_w + w > cap or must_leave):
            cur += 1
            cur_w = 0
        part_in_order.append(cur)
        cur_w += w
    assignment = np.empty(n, dtype=np.int64)
    assignment[order] = part_in_order

    _refine_edgecut(pat, assignment, k, weight, cap, max_passes)
    return Partition.from_assignment(assignment, k)


def _check_refine_params(epsilon, max_passes, lambda_max=None):
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon}")
    if max_passes < 0:
        raise ValueError(f"max_passes must be non-negative, got {max_passes}")
    if lambda_max is not None and not (np.isfinite(lambda_max) and lambda_max >= 0):
        raise ValueError(f"lambda_max must be finite and non-negative, got {lambda_max}")


def _bfs_order(pat: CsrMatrix) -> np.ndarray:
    """Breadth-first vertex order, one level per step.

    Each component starts at the smallest unvisited vertex. The next level
    is the first occurrence of every unvisited vertex in the neighbor lists
    of the current level, concatenated in level order: the order in which a
    queue would discover them.
    """
    n = pat.n_rows
    row_ptr, col_idx = pat.row_ptr, pat.col_idx
    order = np.empty(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    pos = 0
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        if row_ptr[start] == row_ptr[start + 1]:  # isolated: a whole component
            order[pos] = start
            pos += 1
            continue
        frontier = np.array([start])
        while frontier.size:
            order[pos:pos + frontier.size] = frontier
            pos += frontier.size
            lo, hi = row_ptr[frontier], row_ptr[frontier + 1]
            lens = hi - lo
            # positions lo[i] .. hi[i]-1 of every frontier vertex, in order
            shift = np.repeat(lo - (np.cumsum(lens) - lens), lens)
            nbrs = col_idx[np.arange(shift.size) + shift]
            nbrs = nbrs[~seen[nbrs]]
            uniq, first = np.unique(nbrs, return_index=True)
            frontier = uniq[np.argsort(first)]
            seen[frontier] = True
    return order


def _part_counts(m: CsrMatrix, assignment, k) -> np.ndarray:
    """counts[v, t]: off-diagonal entries of row v whose column lies in part t."""
    rows, cols = m.row_of_nnz(), m.col_idx
    off = rows != cols
    keys = rows[off] * k + assignment[cols[off]]
    return np.bincount(keys, minlength=m.n_rows * k).reshape(m.n_rows, k)


def _can_gain(nbr_cnt, assignment, vs):
    """Whether some other part holds strictly more neighbors of each vertex
    of vs than its own part does, which any edgecut-reducing move needs."""
    return nbr_cnt[vs].max(axis=1) > nbr_cnt[vs, assignment[vs]]


def _refine_edgecut(pat, assignment, k, weight, cap, max_passes):
    """Greedy edgecut-reducing moves over the flagged vertices.

    A vertex's flag (`_can_gain`) reads only its row of the count table and
    its own part, and the pattern is symmetric without a diagonal, so a
    move of v changes only the flags of v and its neighbors. Those are
    recomputed after each move; a neighbor above v that becomes flagged
    joins the current pass, which visits flagged vertices in ascending id.
    """
    n = pat.n_rows
    row_ptr, col_idx = pat.row_ptr.tolist(), pat.col_idx
    weights = weight.tolist()
    nbr_cnt = _part_counts(pat, assignment, k)
    part_w = np.bincount(assignment, weights=weight, minlength=k)
    flag = _can_gain(nbr_cnt, assignment, np.arange(n))
    for _ in range(max_passes):
        heap = np.flatnonzero(flag).tolist()  # ascending, hence a heap
        queued = flag.copy()  # keeps a vertex from entering the heap twice
        moved = 0
        while heap:
            v = heapq.heappop(heap)
            if not flag[v]:
                continue
            s, w, row = assignment[v], weights[v], nbr_cnt[v]
            # parts under the cap score their neighbor count, the rest -1;
            # argmax breaks ties toward the lowest part id
            score = np.where(part_w + w <= cap, row, -1)
            t = score.argmax()
            if score[t] <= row[s]:
                continue
            assignment[v] = t
            part_w[s] -= w
            part_w[t] += w
            nbrs = col_idx[row_ptr[v]:row_ptr[v + 1]]
            nbr_cnt[nbrs, s] -= 1
            nbr_cnt[nbrs, t] += 1
            moved += 1
            touched = np.concatenate((nbrs, [v]))
            flag[touched] = _can_gain(nbr_cnt, assignment, touched)
            new = nbrs[(nbrs > v) & flag[nbrs] & ~queued[nbrs]]
            queued[new] = True
            for u in new.tolist():
                heapq.heappush(heap, u)
        if moved == 0:
            break


def volume_balanced_refine(a: CsrMatrix, part: Partition, lambda_max=None,
                           epsilon=0.10, max_passes=10) -> Partition:
    """Boundary-vertex refinement of both total and bottleneck send volume.

    Candidate moves are scored by (change in total send rows) plus
    lambda_max times (change in the maximum per-part send rows); only
    strictly improving, balance-respecting moves are applied, scanning
    vertices in ascending id and breaking score ties toward the lowest
    target part. The score is monotone non-increasing across passes and
    the input is returned unchanged when no move helps.

    The state is the vertex-by-part table of out-neighbor counts, self-loops
    ignored; a vertex sends one row per foreign part with a nonzero count.
    Moving v from s to t changes the send rows of v and of its in-neighbors
    u only: u stops sending to s when v was its last out-neighbor there and
    starts sending to t when it had none there. All targets of v are
    scored at once as a (targets x k) array of per-part send-row changes.
    """
    if a.n_rows != a.n_cols or a.n_rows != part.n:
        raise ValueError("partition does not match the matrix")
    _check_refine_params(epsilon, max_passes, lambda_max)
    n, k = part.n, part.k
    if lambda_max is None:
        lambda_max = float(k)
    assignment = part.assignment.copy()
    at = transpose_csr(a)
    pat = _sym_pattern(a)
    weight = np.maximum(np.diff(pat.row_ptr), 1)
    cap = max((1.0 + epsilon) * weight.sum() / k, float(weight.max()))
    part_w = np.bincount(assignment, weights=weight, minlength=k)

    out_cnt = _part_counts(a, assignment, k)
    contrib = np.count_nonzero(out_cnt, axis=1) - (out_cnt[np.arange(n), assignment] > 0)
    part_send = np.zeros(k, dtype=np.int64)
    np.add.at(part_send, assignment, contrib)

    for _ in range(max_passes):
        moved = 0
        for v in range(n):
            s = int(assignment[v])
            in_nbrs = at.row(v)[0]
            in_nbrs = in_nbrs[in_nbrs != v]
            own = assignment[in_nbrs]
            cand = out_cnt[v] > 0
            cand[own] = True
            cand[s] = False
            cand &= part_w + weight[v] <= cap
            targets = np.flatnonzero(cand)
            if targets.size == 0:
                continue
            # send[i, q]: change of part q's send rows if v moves to targets[i]
            v_contrib = np.count_nonzero(out_cnt[v]) - (out_cnt[v, targets] > 0)
            stops = (own != s) & (out_cnt[in_nbrs, s] == 1)
            starts = (own[:, None] != targets) & (out_cnt[in_nbrs[:, None], targets] == 0)
            u_idx, t_idx = np.nonzero(starts)
            send = np.bincount(t_idx * k + own[u_idx],
                               minlength=targets.size * k).reshape(targets.size, k)
            send -= np.bincount(own[stops], minlength=k)
            send[:, s] -= contrib[v]
            send[np.arange(targets.size), targets] += v_contrib
            cost = send.sum(axis=1) + lambda_max * (
                (part_send + send).max(axis=1) - part_send.max())
            best = int(np.argmin(cost))
            if cost[best] >= 0:
                continue
            t = int(targets[best])
            contrib[v] = v_contrib[best]
            contrib[in_nbrs] += starts[:, best].astype(np.int64) - stops
            out_cnt[in_nbrs, s] -= 1
            out_cnt[in_nbrs, t] += 1
            part_send += send[best]
            part_w[s] -= weight[v]
            part_w[t] += weight[v]
            assignment[v] = t
            moved += 1
        if moved == 0:
            break
    return Partition.from_assignment(assignment, k)
