"""Seeded synthetic graph generators used by the CLI and the test suite.

All generators return symmetric unit-weight adjacency matrices (no
self-loops); the block-model generator also returns features and labels.
Everything is a pure function of its arguments, including the seed.

The random generators are block models: pair (i, j) with i < j is an edge
when its uniform draw falls below the pair's probability. The draws come
in row slices of an n-by-n uniform matrix, so memory is O(n * slice)
rather than O(n^2). PCG64 fills arrays in C order from one stream, so the
slices are exactly one `rng.random((n, n))` call: the graphs, and every
later draw from the same generator, do not depend on the slice size.
Draw time is still O(n^2).
"""

from __future__ import annotations

import numpy as np

from .sparse import CsrMatrix, csr_from_coo

__all__ = ["clique_blocks", "gaussian_features", "grid2d", "sbm", "star",
           "star_augmented"]


# Uniform draws one sampler slice holds (1 MiB of float64, plus the same
# again for the probabilities): the dense n x n draw, probabilities and
# masks took 1.2 GB at n=8000, and slices of 8 MiB still set the
# generators' allocation peak (17.5 MB for sbm(4000), against 5.0 MB).
_SAMPLE_STEP_ELEMS = 1 << 17


def _symmetric_from_upper(n, rows, cols) -> CsrMatrix:
    u = np.concatenate([rows, cols])
    v = np.concatenate([cols, rows])
    a = csr_from_coo(n, n, u, v, np.ones(u.size))
    a.values[:] = 1.0  # collapse duplicate pairs to unit weight
    return a


def _sample_upper(rng, labels, p_in, p_out):
    """Edges (i < j) of a block model, as (rows, cols) in row-major order.

    The pair's probability is p_in[labels[i]] inside a block and p_out
    across blocks.
    """
    n = labels.size
    step = max(1, _SAMPLE_STEP_ELEMS // max(n, 1))
    rows, cols = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for lo in range(0, n, step):
        block = labels[lo:lo + step, None]
        prob = np.where(block == labels, p_in[block], p_out)
        r, c = np.nonzero(rng.random(prob.shape) < prob)
        r += lo
        upper = c > r
        rows.append(r[upper])
        cols.append(c[upper])
    return np.concatenate(rows), np.concatenate(cols)


def sbm(n, blocks=2, p_in=0.2, p_out=0.01, seed=0, feature_dim=16):
    """Stochastic block model with label-informative Gaussian features.

    Vertices split into `blocks` near-equal communities; an edge appears
    with probability p_in inside a community and p_out across. The label
    of a vertex is its community; its feature vector is the community mean
    (a seeded Gaussian draw scaled by 2) plus unit Gaussian noise.

    Returns (adjacency, features, labels).
    """
    rng = np.random.default_rng(seed)
    base, rem = divmod(n, blocks)
    sizes = [base + 1] * rem + [base] * (blocks - rem)
    labels = np.repeat(np.arange(blocks, dtype=np.int64), sizes)
    rows, cols = _sample_upper(rng, labels, np.full(blocks, p_in), p_out)
    a = _symmetric_from_upper(n, rows, cols)
    means = rng.normal(size=(blocks, feature_dim)) * 2.0
    features = means[labels] + rng.normal(size=(n, feature_dim))
    return a, features, labels


def grid2d(rows, cols) -> CsrMatrix:
    """4-neighbor lattice with rows*cols vertices, row-major numbering."""
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    return _symmetric_from_upper(rows * cols, u, v)


def star(leaves) -> CsrMatrix:
    """Vertex 0 connected to `leaves` leaf vertices."""
    u = np.zeros(leaves, dtype=np.int64)
    v = np.arange(1, leaves + 1, dtype=np.int64)
    return _symmetric_from_upper(leaves + 1, u, v)


def clique_blocks(num_cliques, size) -> CsrMatrix:
    """Disjoint cliques: a block-diagonal pattern with zero coupling."""
    i, j = np.triu_indices(size, k=1)
    off = np.arange(num_cliques, dtype=np.int64)[:, None] * size
    return _symmetric_from_upper(num_cliques * size, (off + i).ravel(), (off + j).ravel())


def star_augmented(n, seed=0) -> CsrMatrix:
    """Irregular benchmark graph: unequal communities plus global hubs.

    Five communities of 35/25/20/12/8% of the vertices get internal
    expected degree 8 and sparse cross links with probability 0.002; then
    the first vertex of each of the 3 largest communities is wired to a
    random 15% of all vertices. The hubs concentrate boundary structure in
    a few parts, which makes send volumes uneven under partitioners that
    only minimize totals.
    """
    rng = np.random.default_rng(seed)
    sizes = [max(2, int(round(f * n))) for f in (0.35, 0.25, 0.2, 0.12, 0.08)]
    sizes[-1] = n - sum(sizes[:-1])
    if sizes[-1] < 2:
        raise ValueError("n too small for the community layout")
    labels = np.repeat(np.arange(len(sizes)), sizes)
    p_in = np.minimum(8.0 / np.maximum(np.array(sizes) - 1, 1), 1.0)
    rows, cols = _sample_upper(rng, labels, p_in, 0.002)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    hub_rows, hub_cols = [], []
    for hub in starts[:3].tolist():
        targets = rng.choice(n, size=max(1, int(0.15 * n)), replace=False)
        targets = targets[targets != hub]
        hub_rows.append(np.full(targets.size, hub, dtype=np.int64))
        hub_cols.append(targets.astype(np.int64))
    rows = np.concatenate([rows] + hub_rows)
    cols = np.concatenate([cols] + hub_cols)
    return _symmetric_from_upper(n, rows, cols)


def gaussian_features(n, dim, seed=0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, dim))
