"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive (dense accumulation, triple loops,
sequential exchanges, the full scans and sorts that faster library code
replaced) and shares no code path with the implementations it verifies.
"""

from collections import deque

import numpy as np

from distgcn.sparse import CsrMatrix


def dense_from_edges(edges, n, symmetrize=False):
    """Accumulate edges into a dense n-by-n array."""
    acc = np.zeros((n, n))
    for u, v, w in edges:
        acc[int(u), int(v)] += w
        if symmetrize and u != v:
            acc[int(v), int(u)] += w
    return acc


def matmul_triple_loop(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for k in range(a.shape[1]):
            for j in range(b.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


def spmm_storage_order(a, h):
    """a @ h for a CSR matrix, adding each row's terms one stored entry at a
    time from 0.0 in storage order (vectorized over columns of h only)."""
    out = np.zeros((a.n_rows, h.shape[1]))
    for i in range(a.n_rows):
        acc = out[i]
        for k in range(a.row_ptr[i], a.row_ptr[i + 1]):
            acc += h[a.col_idx[k]] * a.values[k]
    return out


def csr_from_coo_lexsort(n_rows, n_cols, rows, cols, vals):
    """Canonical CSR by one three-key (row, col, value) lexsort of the
    triplets, duplicates summed with `np.add.reduceat`, zero sums dropped."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
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


def gcn_normalize_via_coo(a):
    """Self-loop symmetric normalization that rebuilds the matrix plus the
    unit diagonal through `csr_from_coo_lexsort`."""
    n = a.n_rows
    diag = np.arange(n, dtype=np.int64)
    with_loops = csr_from_coo_lexsort(n, n, np.concatenate([a.row_of_nnz(), diag]),
                                      np.concatenate([a.col_idx, diag]),
                                      np.concatenate([a.values, np.ones(n)]))
    rows = with_loops.row_of_nnz()
    deg = np.bincount(rows, weights=with_loops.values, minlength=n)
    dinv = deg ** -0.5
    scaled = with_loops.values * (dinv[rows] * dinv[with_loops.col_idx])
    return CsrMatrix(n, n, with_loops.row_ptr, with_loops.col_idx, scaled)


def normalize_dense(a_dense):
    """Dense evaluation of the self-loop symmetric normalization."""
    n = a_dense.shape[0]
    atil = a_dense + np.eye(n)
    d = atil.sum(axis=1)
    dinv = np.diag(d ** -0.5)
    return dinv @ atil @ dinv


def nnz_cols_dense_scan(a_dense, bounds, i, j):
    """Occupied local columns of block (i, j) by scanning a dense copy."""
    r0, r1 = bounds[i]
    c0, c1 = bounds[j]
    block = a_dense[r0:r1, c0:c1]
    return sorted(int(c) for c in range(block.shape[1]) if np.any(block[:, c] != 0))


def send_rows_brute_force(a_dense, assignment, k):
    """Per-part send rows: for every vertex, one row per foreign part that
    holds an out-neighbor."""
    n = a_dense.shape[0]
    send = [0] * k
    total = 0
    for v in range(n):
        foreign = set()
        for u in range(n):
            if a_dense[v, u] != 0 and assignment[u] != assignment[v]:
                foreign.add(int(assignment[u]))
        send[int(assignment[v])] += len(foreign)
        total += len(foreign)
    return send, total


def cut_p_brute_force(a_dense, bounds):
    """Largest occupied-column count over off-diagonal transposed blocks."""
    at = a_dense.T
    best = 0
    k = len(bounds)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            best = max(best, len(nnz_cols_dense_scan(at, bounds, i, j)))
    return best


def edgecut_brute_force(a_dense, assignment):
    """Undirected edges crossing parts, counted once per edge."""
    n = a_dense.shape[0]
    cut = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (a_dense[u, v] != 0 or a_dense[v, u] != 0) \
                    and assignment[u] != assignment[v]:
                cut += 1
    return cut


def alltoallv_reference(bufs, counts):
    """Sequential personalized exchange in (buf, counts) form: rank d
    receives, in sender order, the counts[s][d] rows of bufs[s] that come
    after its first counts[s][0] + ... + counts[s][d-1] rows."""
    p = len(bufs)
    recv = []
    for d in range(p):
        parts = []
        for s in range(p):
            lo = sum(counts[s][:d])
            parts.append(np.asarray(bufs[s])[lo:lo + counts[s][d]])
        recv.append(np.concatenate(parts))
    return recv


def allreduce_by_steps(payloads):
    """Run one all-reduce of the g rows of `payloads`, the members in
    ascending rank order, by moving real segments between g simulated
    members one step at a time: recursive halving then recursive doubling
    when g is a power of two, the ring over np.array_split's chunks
    otherwise. Returns every member's final buffer and, per member, the
    elements and messages sent and received, a message being a send of
    at least one element."""
    bufs = [np.array(row, dtype=np.float64) for row in payloads]
    g, n = len(bufs), len(bufs[0])
    counts = {name: [0] * g for name in ("sent", "msgs", "received", "received_msgs")}

    def step(sends, combine):
        # every send of a step leaves before any arrives
        moved = [(src, dst, lo, bufs[src][lo:hi].copy()) for src, dst, lo, hi in sends]
        for src, dst, lo, seg in moved:
            if seg.size:
                counts["sent"][src] += seg.size
                counts["msgs"][src] += 1
                counts["received"][dst] += seg.size
                counts["received_msgs"][dst] += 1
            if combine:
                bufs[dst][lo:lo + seg.size] += seg
            else:
                bufs[dst][lo:lo + seg.size] = seg

    if g & (g - 1) == 0:
        seg = [(0, n)] * g
        d = g // 2
        while d >= 1:
            sends, kept = [], []
            for i in range(g):
                lo, hi = seg[i]
                mid = lo + (hi - lo) // 2
                if i & d:
                    sends.append((i, i ^ d, lo, mid))
                    kept.append((mid, hi))
                else:
                    sends.append((i, i ^ d, mid, hi))
                    kept.append((lo, mid))
            step(sends, combine=True)
            seg = kept
            d //= 2
        d = 1
        while d < g:
            step([(i, i ^ d, *seg[i]) for i in range(g)], combine=False)
            seg = [(min(seg[i][0], seg[i ^ d][0]), max(seg[i][1], seg[i ^ d][1]))
                   for i in range(g)]
            d *= 2
    else:
        edges = np.cumsum([0] + [len(c) for c in np.array_split(np.arange(n), g)])
        chunk = [(int(edges[k]), int(edges[k + 1])) for k in range(g)]
        for k in range(g - 1):
            step([(i, (i + 1) % g, *chunk[(i - k) % g]) for i in range(g)], combine=True)
        for k in range(g - 1):
            step([(i, (i + 1) % g, *chunk[(i + 1 - k) % g]) for i in range(g)],
                 combine=False)
    return bufs, counts


def numeric_gradient(loss_fn, weights, step=1e-5):
    """Central finite differences of loss_fn with respect to each weight
    matrix in `weights` (a list of arrays loss_fn consumes)."""
    grads = []
    for li, w in enumerate(weights):
        g = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            orig = w[idx]
            w[idx] = orig + step
            up = loss_fn(weights)
            w[idx] = orig - step
            down = loss_fn(weights)
            w[idx] = orig
            g[idx] = (up - down) / (2 * step)
        grads.append(g)
    return grads


def random_csr_dense(rng, n, density=0.15, square=True, n_cols=None):
    """Random dense matrix with the given nonzero density (values avoid
    exact zeros so pattern and values coincide)."""
    cols = n if square else (n_cols if n_cols is not None else n)
    mask = rng.random((n, cols)) < density
    vals = rng.normal(size=(n, cols))
    vals[vals == 0.0] = 1.0
    return np.where(mask, vals, 0.0)


def bfs_order_deque(pat):
    """Queue-driven BFS over a CSR pattern: each component starts at the
    smallest unvisited vertex, neighbors are enqueued in storage order."""
    n = pat.n_rows
    order = np.empty(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    pos = 0
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            order[pos] = v
            pos += 1
            for u in pat.row(v)[0]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return order


def refine_edgecut_full_scan(pat, assignment, k, weight, cap, max_passes):
    """Greedy edgecut refinement that scores every vertex on every pass:
    in ascending id, move each vertex to the allowed part holding the most
    of its neighbors (lowest id on ties) when that strictly cuts fewer
    edges; stop after a pass without moves. Updates `assignment` in place."""
    nbr_cnt = np.zeros((pat.n_rows, k), dtype=np.int64)
    for v in range(pat.n_rows):
        for u in pat.row(v)[0]:
            nbr_cnt[v, assignment[u]] += 1
    part_w = np.bincount(assignment, weights=weight, minlength=k)
    for _ in range(max_passes):
        moved = 0
        for v in range(pat.n_rows):
            s = assignment[v]
            allowed = part_w + weight[v] <= cap
            allowed[s] = False
            delta = np.where(allowed, nbr_cnt[v, s] - nbr_cnt[v], 0)
            t = int(np.argmin(delta))
            if delta[t] < 0:
                assignment[v] = t
                part_w[s] -= weight[v]
                part_w[t] += weight[v]
                nbrs = pat.row(v)[0]
                nbr_cnt[nbrs, s] -= 1
                nbr_cnt[nbrs, t] += 1
                moved += 1
        if moved == 0:
            break


def greedy_tv_reference(pat, k, epsilon=0.10, max_passes=10):
    """Greedy-tv assignment on an undirected, diagonal-free pattern, built
    from the queue BFS and the full-scan refiner: parts are grown along the
    BFS order up to the balance cap (leaving at least one vertex for every
    later part), then refined."""
    n = pat.n_rows
    weight = np.maximum(np.diff(pat.row_ptr), 1)
    cap = max((1.0 + epsilon) * weight.sum() / k, float(weight.max()))
    assignment = np.empty(n, dtype=np.int64)
    cur, cur_w = 0, 0
    for idx, v in enumerate(bfs_order_deque(pat)):
        must_leave = n - idx == k - cur - 1
        if cur < k - 1 and cur_w > 0 and (cur_w + weight[v] > cap or must_leave):
            cur += 1
            cur_w = 0
        assignment[v] = cur
        cur_w += int(weight[v])
    refine_edgecut_full_scan(pat, assignment, k, weight, cap, max_passes)
    return assignment


def volume_balanced_refine_full_scan(a, assignment, k, lambda_max=None, epsilon=0.10,
                                     max_passes=10):
    """Volume-balancing refinement that scores one vertex at a time: in
    ascending id, move each vertex to the allowed target part with the
    lowest cost (change in total send rows plus lambda_max times the change
    in the largest part's send rows; lowest id on ties) when that cost is
    negative; stop after a pass without moves. Targets are the parts other
    than its own that hold an out-neighbor or an in-neighbor and stay under
    the cap. Returns the new assignment and its canonical perm."""
    n = a.n_rows
    if lambda_max is None:
        lambda_max = float(k)
    assignment = np.array(assignment, dtype=np.int64)
    rows, cols = a.row_of_nnz(), a.col_idx
    off = rows != cols
    rows, cols = rows[off], cols[off]
    # vertex weight: undirected off-diagonal degree, at least 1
    und = np.unique(np.concatenate([rows * n + cols, cols * n + rows]))
    weight = np.maximum(np.bincount(und // n, minlength=n), 1)
    cap = max((1.0 + epsilon) * weight.sum() / k, float(weight.max()))
    part_w = np.bincount(assignment, weights=weight, minlength=k)
    in_lists = [[] for _ in range(n)]
    out_cnt = np.zeros((n, k), dtype=np.int64)
    for u, v in zip(rows.tolist(), cols.tolist()):
        in_lists[v].append(u)
        out_cnt[u, assignment[v]] += 1
    contrib = np.count_nonzero(out_cnt, axis=1) - (out_cnt[np.arange(n), assignment] > 0)
    part_send = np.zeros(k, dtype=np.int64)
    np.add.at(part_send, assignment, contrib)

    for _ in range(max_passes):
        moved = 0
        for v in range(n):
            s = int(assignment[v])
            in_nbrs = np.array(sorted(in_lists[v]), dtype=np.int64)
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
    perm = np.empty(n, dtype=np.int64)
    perm[np.argsort(assignment, kind="stable")] = np.arange(n)
    return assignment, perm


def halo_layout_by_sort(mat, boundaries, stages):
    """The operand of `mat` on block rows `boundaries` with `stages`
    blocks per column group, as `spmm.DistOperand` holds it: (matrix,
    row_off, idx, ptr). The distinct (owner block, block row, column) keys
    of all entries come from one comparison sort of the int64 key
    (owner-major block) * n_cols + column, and `matrix` stacks the
    entries, in their global columns, by one stable sort of their ranks:
    at c=1 that is `mat` itself."""
    nb = len(boundaries)
    c = nb // stages
    starts = np.array([s for s, _ in boundaries], dtype=np.int64)
    heights = np.array([e - s for s, e in boundaries], dtype=np.int64)
    block_of = np.repeat(np.arange(nb), heights)
    rows = mat.row_of_nnz()
    bi, bj = block_of[rows], block_of[mat.col_idx]
    blk = bj * nb + bi
    key = blk * mat.n_cols + mat.col_idx
    order = np.argsort(key)
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    idx = mat.col_idx[order[first]] - starts[blk[order[first]] // nb]
    ptr = np.searchsorted(key[first], (np.arange(nb)[:, None] * nb
                                       + np.arange(nb + 1)) * mat.n_cols)
    row_off = np.zeros(nb * c + 1, dtype=np.int64)
    np.cumsum(np.repeat(heights, c), out=row_off[1:])
    rank = bi * c + bj // stages
    at = np.argsort(rank, kind="stable")
    rank = rank[at]
    local_rows = row_off[rank] + rows[at] - starts[rank // c]
    n_rows = int(row_off[-1])
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(local_rows, minlength=n_rows), out=row_ptr[1:])
    matrix = CsrMatrix(n_rows, mat.n_cols, row_ptr, mat.col_idx[at], mat.values[at])
    return matrix, row_off, idx, ptr


def halo_exchange_by_loop(idx, ptr, heights, c, aware):
    """The multiply phase and index lists an operand's occupied-column
    index plans, by loops over ranks and blocks. Block b's stage owner,
    rank b*c + b//s, sends block row i's member of its column group the
    rows cols(i, b) (aware) or its whole block (oblivious). Returns the
    rows of its block each owner sends each reader, as
    {(owner, reader): rows}, and every rank's halo, the column lists
    cols(i, j) of its column group in turn."""
    nb = ptr.shape[0]
    s, p = nb // c, nb * c

    def cols(i, j):
        return idx[ptr[j, i]:ptr[j, i + 1]]

    sends = {}
    for b in range(nb):
        owner = b * c + b // s
        for i in range(nb):
            sends[owner, i * c + b // s] = cols(i, b) if aware else np.arange(heights[b])
    halos = []
    for r in range(p):
        i, g = divmod(r, c)
        halos.append(np.concatenate([cols(i, j) for j in range(g * s, (g + 1) * s)]))
    return sends, halos


def alltoallv_charges_by_loop(counts):
    """The ledger charges, in rows, of an all_to_allv of the p x p count
    matrix `counts`, by a loop over rank pairs: the rows and messages each
    rank sends and receives between distinct ranks, as four lists, and
    the rows of each message, as {(src, dst): rows}."""
    p = len(counts)
    sent_rows, sent_msgs, received_rows, received_msgs = ([0] * p for _ in range(4))
    wire = {}
    for src in range(p):
        for dst in range(p):
            rows = int(counts[src][dst])
            if src != dst and rows:
                sent_rows[src] += rows
                sent_msgs[src] += 1
                received_rows[dst] += rows
                received_msgs[dst] += 1
                wire[src, dst] = rows
    return sent_rows, sent_msgs, received_rows, received_msgs, wire
