import hashlib
import tracemalloc

import numpy as np
import pytest

from distgcn.graphgen import clique_blocks, grid2d, sbm, star, star_augmented
from distgcn.sparse import csr_equal, csr_from_edges


def digest(*arrays):
    h = hashlib.sha256()
    for x in arrays:
        h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


def csr_digest(a):
    return digest(a.row_ptr, a.col_idx, a.values)


# sha256 of the generated arrays: a rewrite of the generators must keep
# every graph, feature and label bit for bit. n=2000 spans several row
# slices of the sampler, n=301 one.
@pytest.mark.parametrize("n,seed,expected", [
    (301, 0, "31e4a29d6af09d272abc6d17edf29d08cd438518e1a9c68f3ba27b11a4cea48b"),
    (301, 5, "ef7e2a796728af106131bb3a0cd3f6e9a88b486be6e790ce949ec5d787b350e7"),
    (2000, 0, "f04a0851863dcac0fcd34b3c5a54ffae665988ca43742521c0be054c5e2694e0"),
    (2000, 5, "e0e25fdc3366523ca367bdbbed326f70d07773b69ea9514e4b52d9b13e3aeee5"),
])
def test_sbm_pinned(n, seed, expected):
    a, x, y = sbm(n, blocks=4, p_in=0.05, p_out=0.005, seed=seed, feature_dim=8)
    assert digest(a.row_ptr, a.col_idx, a.values, x, y) == expected


@pytest.mark.parametrize("n,seed,expected", [
    (301, 0, "88c9033551c91945dd05428668cd2b2bf53f66dbbbba7be6c109b1a2b5c1defb"),
    (301, 5, "1c239dad594de387b76090cbee76810673ec7c732b8ea3fc06ce830ffbc9719e"),
    (2000, 0, "0205cf2aef4da1c88a80de925e18d7995f53e481e2760b84dbe8e95585286669"),
    (2000, 5, "2a86217cead11806bb3c3a289e662cd3a08ba3c930f2fa382d01931d81e871af"),
])
def test_star_augmented_pinned(n, seed, expected):
    assert csr_digest(star_augmented(n, seed=seed)) == expected


@pytest.mark.parametrize("make,expected", [
    (lambda: grid2d(3, 4), "99ebb7f071f1591a2e6afe8746ee92ea4da0f8f8837acb0b4540d931515f463f"),
    (lambda: grid2d(7, 5), "1eec616a2ae310c722b8d40ae84fab92a972c4a9941ff4db8bb7d43eb6dd275d"),
    (lambda: star(5), "449dc583c825bb1db5dd2c7fcc45e559b96c857ac0b109dd7e54995f5cac83ed"),
    (lambda: star(40), "323aa45598be6f6496429f0ec1afc26954b8e3dd8ff4cdcdaffe0f101cdc1d55"),
    (lambda: clique_blocks(3, 4), "a338f00850fdfe1b515d50cc0aae107299e4990cb0a915122a9e921b2218a0b5"),
    (lambda: clique_blocks(5, 6), "3f5edc2bbffd86d4866d06d2bd4201418a365df62c7a9f9c165f183595a40bcc"),
], ids=["grid3x4", "grid7x5", "star5", "star40", "clique3x4", "clique5x6"])
def test_deterministic_generators_pinned(make, expected):
    assert csr_digest(make()) == expected


def test_lattices_match_edge_lists():
    # the degenerate sizes (0 or 1 along an axis) included
    for rows in range(5):
        for cols in range(5):
            edges = [(r * cols + c, r * cols + c + 1, 1.0)
                     for r in range(rows) for c in range(cols - 1)]
            edges += [(r * cols + c, (r + 1) * cols + c, 1.0)
                      for r in range(rows - 1) for c in range(cols)]
            want = csr_from_edges(edges, rows * cols, symmetrize=True)
            assert csr_equal(grid2d(rows, cols), want)
    for num in range(4):
        for size in range(5):
            edges = [(b * size + i, b * size + j, 1.0) for b in range(num)
                     for i in range(size) for j in range(i + 1, size)]
            want = csr_from_edges(edges, num * size, symmetrize=True)
            assert csr_equal(clique_blocks(num, size), want)


@pytest.mark.parametrize("generate", [
    lambda: sbm(4000, blocks=4, p_in=0.01, p_out=0.0005, feature_dim=64),
    lambda: star_augmented(4000),
], ids=["sbm", "star_augmented"])
def test_generator_memory_is_subquadratic(generate):
    # one dense 4000x4000 float64 draw alone is 128 MB
    tracemalloc.start()
    try:
        generate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20
