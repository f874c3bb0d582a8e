"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive (dense accumulation, triple loops,
sequential exchanges) and shares no code path with the implementations it
verifies.
"""

import numpy as np


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
