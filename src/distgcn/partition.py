"""K-way vertex partitions and their communication-volume metrics.

Provides the block and random baselines, a BFS-grown partitioner refined
for total edgecut, and a move-based refiner that additionally drives down
the bottleneck part's send volume. Send volume is counted in dense-matrix
rows; multiply by the feature width and 8 to get bytes.

Both refiners keep one vertex-by-part table of neighbor counts, built by
`_part_counts`, and score all of a vertex's target parts with array
operations on it; `comm_metrics` applies the same foreign-part rule to the
distinct (vertex, neighbor part) pairs of the matrix.

Both refiners run the same first-improvement scan (`_scan_passes`): each
pass visits the vertices in ascending id and applies every strict
improvement as it is found, and passes stop after one without moves. A
pass scores a window of consecutive vertices at once against the current
state and applies only the first improving move in it: up to that vertex
nothing has moved, so the moves are exactly those of visiting every
vertex in turn. The next window starts just after the mover.

The BFS partitioner grows its parts along a level-synchronous BFS (one
array step per level, in the order a queue would visit).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .sparse import CsrMatrix, _ranges, _relabeled, _row_ptr, _run_starts, transpose_csr

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

# Bound on the scoring elements one window of `_scan_passes` may hold:
# (vertex, part) cells for the edgecut refiner, (vertex, target) x
# in-neighbor and (vertex, target) x part elements for volume balancing.
_SCAN_WINDOW_ELEMS = 1 << 17


@dataclass
class Partition:
    """A k-way vertex partition with its row layout.

    `assignment` maps each vertex to a part, `perm` maps old vertex ids to
    new ids, and after renumbering the vertices of part i occupy the
    contiguous row range `boundaries[i]`, which the part sizes fix. Part
    sizes may differ.
    """

    n: int
    k: int
    assignment: np.ndarray
    perm: np.ndarray

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        self.perm = np.asarray(self.perm, dtype=np.int64)
        self.validate()

    @classmethod
    def from_assignment(cls, assignment, k) -> "Partition":
        """Partition with the canonical layout: parts in ascending order,
        original vertex order preserved inside each part."""
        assignment = np.asarray(assignment, dtype=np.int64)
        _check_part_ids(assignment, k)
        n = assignment.size
        order = np.argsort(assignment, kind="stable")
        perm = np.empty(n, dtype=np.int64)
        perm[order] = np.arange(n)
        return cls(n, k, assignment, perm)

    def validate(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.assignment.shape != (self.n,):
            raise ValueError("assignment must have one entry per vertex")
        _check_part_ids(self.assignment, self.k)
        if not np.array_equal(np.sort(self.perm), np.arange(self.n)):
            raise ValueError("perm must be a bijection on [0, n)")
        # each part must be a contiguous new-id range
        new_to_part = self.assignment[self.inv_perm]
        if self.n and np.any(np.diff(new_to_part) < 0):
            raise ValueError("parts must occupy contiguous ascending new-id ranges")

    @property
    def boundaries(self) -> list:
        """The (start, end) new-id range of each part: part i takes new ids
        ptr[i]:ptr[i + 1], as if each part were a CSR row."""
        ptr = _row_ptr(self.assignment, self.k).tolist()
        return list(zip(ptr[:-1], ptr[1:]))

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


def _check_part_ids(assignment, k):
    if assignment.size and (assignment.min() < 0 or assignment.max() >= k):
        raise ValueError("part ids must lie in [0, k)")


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
    """`block_partition`'s layout under a uniformly random relabeling:
    vertex v takes new id perm[v] and the part of that id's block."""
    block = block_partition(n, k)
    perm = np.random.default_rng(seed).permutation(n).astype(np.int64)
    return Partition(n, k, block.assignment[perm], perm)


def _check_kn(n, k):
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise ValueError(f"cannot split {n} vertices into {k} parts")


def _sorted_distinct(keys) -> np.ndarray:
    """Distinct values, ascending (np.sort and a mask beat np.unique here)."""
    keys = np.sort(keys)
    return keys[_run_starts(keys)]


def _sym_pattern(a: CsrMatrix) -> CsrMatrix:
    """Undirected pattern of a (union with its transpose), diagonal removed."""
    n = a.n_rows
    rows, cols = a.row_of_nnz(), a.col_idx
    off = rows != cols
    rows, cols = rows[off], cols[off]
    # each (row, col) pair as one key below n**2; sorted, distinct keys are
    # the canonical CSR order
    rows, cols = np.divmod(_sorted_distinct(np.concatenate([rows * n + cols,
                                                            cols * n + rows])), n)
    return CsrMatrix(n, n, _row_ptr(rows, n), cols, np.ones(cols.size))


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
    v, t = np.divmod(_sorted_distinct(a.row_of_nnz() * k + assign[a.col_idx]), k)
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
    never recomputed, so a round trip is exact, and the results share no
    memory with the inputs, even under the identity permutation.
    """
    h = _check_permutable(a, h, part)
    perm = part.perm
    # rows and cols stay held while h is permuted: letting the permuted h
    # reuse their memory raised the peak RSS of a later p=16 training run
    # on a 4000-vertex hub graph by about 1 MB
    rows, cols = perm[a.row_of_nnz()], perm[a.col_idx]
    a2 = _relabeled(a.n_rows, a.n_cols, rows, cols, a.values)
    return a2, None if h is None else h[part.inv_perm]


def _check_permutable(a: CsrMatrix, h, part: Partition):
    """The checks of `apply_partition`: a square matrix of part.n rows,
    and h None or 2-D with as many rows; returns h as a float64 array."""
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
    return h


def greedy_tv_partition(a: CsrMatrix, k, epsilon=0.10, max_passes=10) -> Partition:
    """BFS-grown parts refined by greedy edgecut-reducing vertex moves.

    Parts are grown along a BFS order until they hold roughly nnz/k
    nonzeros (cap (1+epsilon) times that), then single-vertex moves that
    strictly reduce the edgecut are applied while the cap is respected.
    The input pattern is treated as undirected. Deterministic.

    The BFS runs one level at a time. Refinement is the module's
    first-improvement scan (`_scan_passes`): a vertex moves to the part
    under the cap that holds the most of its neighbors, the lowest part id
    on ties, when that part holds strictly more of them than its own part
    does. A window is scored as one masked argmax over its rows of the
    neighbor-count table, k elements per vertex.

    The cap bounds a part from above only. Growth leaves every part at
    least one vertex, but refinement may move a part's last vertices
    away, and the rank of an empty part holds no rows: on the seeded
    `sbm(4000, blocks=4)` graphs of the benchmark at k=32, 2 of the 32
    parts end empty.
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

    nbr_cnt = _part_counts(pat, assignment, k)
    part_w = np.bincount(assignment, weights=weight, minlength=k)
    _scan_passes(np.arange(n + 1, dtype=np.int64) * k, max_passes,
                 lambda v0, v1: _edgecut_first_mover(v0, v1, pat, assignment, nbr_cnt,
                                                     part_w, weight, cap))
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
            lo = row_ptr[frontier]
            # the neighbor lists of the frontier vertices, in order
            nbrs = col_idx[_ranges(lo, row_ptr[frontier + 1] - lo)]
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


def _edgecut_first_mover(v0, v1, pat, assignment, nbr_cnt, part_w, weight, cap):
    """Apply the move of the first vertex of [v0, v1) whose best part
    under the cap holds strictly more of its neighbors than its own part
    does, and return that vertex, or -1 when no vertex of the window moves."""
    rows = nbr_cnt[v0:v1]
    # parts under the cap score their neighbor count, the rest -1
    score = np.where(part_w + weight[v0:v1, None] <= cap, rows, -1)
    gain = score.max(axis=1) > rows[np.arange(v1 - v0), assignment[v0:v1]]
    first = int(gain.argmax())
    if not gain[first]:
        return -1
    v = v0 + first
    # argmax breaks ties toward the lowest part id
    s, t, w = assignment[v], int(score[first].argmax()), weight[v]
    nbrs = pat.col_idx[pat.row_ptr[v]:pat.row_ptr[v + 1]]
    nbr_cnt[nbrs, s] -= 1
    nbr_cnt[nbrs, t] += 1
    part_w[s] -= w
    part_w[t] += w
    assignment[v] = t
    return v


def _scan_passes(reach, max_passes, first_mover):
    """The first-improvement scan both refiners run.

    Each pass walks the vertices in windows [v0, v1): `first_mover(v0,
    v1)` scores the window against the current state, applies the move of
    its first improving vertex and returns that vertex, or -1 when none
    improves. The next window starts just after the mover, or after the
    window when nothing moved. Passes stop after one without moves or
    after max_passes.

    reach[v] bounds the scoring elements of the vertices [0, v), and a
    window holds at most `_SCAN_WINDOW_ELEMS` of them, but always one
    vertex. The window doubles while nothing moves; after a move it
    becomes the mean of its last size and twice the mover's distance from
    the window start, so it follows the spacing of recent moves.
    """
    n = reach.size - 1
    size = 1
    for _ in range(max_passes):
        moved = 0
        v0 = 0
        while v0 < n:
            fits = int(np.searchsorted(reach, reach[v0] + _SCAN_WINDOW_ELEMS, "right")) - 1
            v1 = min(v0 + size, max(fits, v0 + 1))
            v = first_mover(v0, v1)
            if v < 0:
                size = 2 * (v1 - v0)
                v0 = v1
            else:
                size = (size + 2 * (v + 1 - v0)) // 2
                v0 = v + 1
                moved += 1
        if moved == 0:
            break


def volume_balanced_refine(a: CsrMatrix, part: Partition, lambda_max=None,
                           epsilon=0.10, max_passes=10) -> Partition:
    """Move-based refinement of both total and bottleneck send volume.

    Each pass considers every vertex in ascending id. A vertex's targets
    are the parts other than its own that hold one of its out- or
    in-neighbors and stay under the balance cap; each target is scored by
    (change in total send rows) plus lambda_max times (change in the
    maximum per-part send rows), and the vertex moves to the lowest-cost
    target, the lowest part id on ties, when that cost is negative, so the
    score never rises. Passes stop after one without moves or after
    max_passes. The assignment is returned unchanged when no move helps;
    the layout is always the canonical one of `Partition.from_assignment`,
    so the perm of, say, a `random_partition` input changes.

    The state is the vertex-by-part table of out-neighbor counts, self-loops
    ignored; a vertex sends one row per foreign part with a nonzero count.
    Moving v from s to t changes the send rows of v and of its in-neighbors
    u only: u stops sending to s when v was its last out-neighbor there and
    starts sending to t when it had none there.

    The passes are the module's first-improvement scan (`_scan_passes`).
    A window scores every (vertex, target) pair of its vertices at once
    (`_volume_first_mover`), as a (k x pairs) array of per-part send-row
    changes, and applies the first vertex's move with a negative cost.

    The cap bounds a part from above only, so a part may end empty, and
    its rank then holds no rows. A move may take a part's last vertex,
    and an empty part never gains one, since a target must hold a
    neighbor: on the seeded `star_augmented(4000)` graphs of the benchmark
    at k=16, greedy-tv leaves 1 of the 16 parts empty and refinement keeps
    it empty.
    """
    if a.n_rows != a.n_cols or a.n_rows != part.n:
        raise ValueError("partition does not match the matrix")
    _check_refine_params(epsilon, max_passes, lambda_max)
    n, k = part.n, part.k
    if lambda_max is None:
        lambda_max = float(k)
    assignment = part.assignment.copy()
    # in-neighbor lists, diagonal dropped, as one CSR
    at = transpose_csr(a)
    at_rows = at.row_of_nnz()
    off = at.col_idx != at_rows
    in_nbr = at.col_idx[off]
    in_row = at_rows[off]
    in_ptr = _row_ptr(in_row, n)
    pat = _sym_pattern(a)
    weight = np.maximum(np.diff(pat.row_ptr), 1)
    cap = max((1.0 + epsilon) * weight.sum() / k, float(weight.max()))
    part_w = np.bincount(assignment, weights=weight, minlength=k)

    out_cnt = _part_counts(a, assignment, k)
    contrib = np.count_nonzero(out_cnt, axis=1) - (out_cnt[np.arange(n), assignment] > 0)
    part_send = np.zeros(k, dtype=np.int64)
    np.add.at(part_send, assignment, contrib)
    state = (in_ptr, in_nbr, in_row, assignment, out_cnt, contrib, part_send, part_w, weight, cap,
             lambda_max)

    # reach[v]: the element bound of the vertices [0, v). A vertex has at
    # most min(k - 1, weight) targets, each meeting its in-neighbors and
    # the k parts.
    reach = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.minimum(k - 1, weight) * (np.diff(in_ptr) + k), out=reach[1:])
    _scan_passes(reach, max_passes, lambda v0, v1: _volume_first_mover(v0, v1, *state))
    return Partition.from_assignment(assignment, k)


def _volume_first_mover(v0, v1, in_ptr, in_nbr, in_row, assignment, out_cnt, contrib,
                        part_send, part_w, weight, cap, lambda_max):
    """Score every (vertex, target) pair of [v0, v1) against the current
    state, apply the move of the first vertex with a negative cost and
    return that vertex, or -1 when no vertex of the window moves."""
    k = out_cnt.shape[1]
    nv = v1 - v0
    lo, hi = in_ptr[v0], in_ptr[v1]
    nbr = in_nbr[lo:hi]
    ent_v = in_row[lo:hi] - v0  # window vertex of each in-neighbor entry
    own = assignment[nbr]
    s = assignment[v0:v1]
    occ = out_cnt[v0:v1] > 0
    cand = occ.copy()
    cand[ent_v, own] = True
    cand[np.arange(nv), s] = False
    cand &= part_w + weight[v0:v1, None] <= cap
    cells = cand.ravel().nonzero()[0]  # (vertex, target) pairs, by vertex, then target
    pv, pt = np.divmod(cells, k)
    n_pairs = pv.size
    if n_pairs == 0:
        return -1
    cnt_flat = out_cnt.ravel()
    nbr_k = nbr * k
    s_ent = s[ent_v]
    stops = (own != s_ent) & (cnt_flat[nbr_k + s_ent] == 1)
    # pair i meets the in-neighbor entries of its vertex at e[pair == i]
    pv_global = v0 + pv
    pfirst = in_ptr[pv_global]
    pdeg = in_ptr[pv_global + 1] - pfirst
    pend = np.cumsum(pdeg)
    pair = np.repeat(np.arange(n_pairs), pdeg)
    e = _ranges(pfirst - lo, pdeg)
    t_e = pt[pair]
    own_e = own[e]
    starts = (own_e != t_e) & (cnt_flat[nbr_k[e] + t_e] == 0)
    # send[q, i]: change of part q's send rows if pair i's move is made;
    # the integer weights sum exactly in float64
    pair_ar = np.arange(n_pairs)
    v_contrib = occ.sum(axis=1)[pv] - occ.ravel()[cells]
    send = np.bincount(
        np.concatenate((own_e * n_pairs + pair, s[pv] * n_pairs + pair_ar, pt * n_pairs + pair_ar)),
        np.concatenate((starts.view(np.int8) - stops[e].view(np.int8), -contrib[pv_global], v_contrib)),
        k * n_pairs).astype(np.int64).reshape(k, n_pairs)
    cost = send.sum(axis=0) + lambda_max * (
        (part_send[:, None] + send).max(axis=0) - part_send.max())
    neg = cost < 0
    first = int(neg.argmax())
    if not neg[first]:
        return -1
    w = pv[first]
    best = first + int(np.argmin(cost[first:np.searchsorted(pv, w, "right")]))
    v, t, s_v = v0 + int(w), int(pt[best]), int(s[w])
    ents = slice(in_ptr[v] - lo, in_ptr[v + 1] - lo)
    nbrs = nbr[ents]
    contrib[v] = v_contrib[best]
    contrib[nbrs] += starts[pend[best] - pdeg[best]:pend[best]].astype(np.int64) - stops[ents]
    out_cnt[nbrs, s_v] -= 1
    out_cnt[nbrs, t] += 1
    part_send += send[:, best]
    part_w[s_v] -= weight[v]
    part_w[t] += weight[v]
    assignment[v] = t
    return v
