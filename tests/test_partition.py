import hashlib

import numpy as np
import pytest

from distgcn.graphgen import clique_blocks, grid2d, sbm, star, star_augmented
import distgcn.partition
from distgcn.partition import (Partition, _bfs_order, _sym_pattern, apply_partition,
                               block_partition, comm_metrics, edgecut,
                               greedy_tv_partition, imbalance_pct, random_partition,
                               volume_balanced_refine)
from distgcn.sparse import (csr_equal, csr_from_coo, csr_from_dense, csr_from_edges,
                            gcn_normalize)

from oracles import (bfs_order_deque, cut_p_brute_force, edgecut_brute_force,
                     greedy_tv_reference, random_csr_dense, send_rows_brute_force,
                     volume_balanced_refine_full_scan)


def path_graph(n):
    return csr_from_edges([(i, i + 1, 1.0) for i in range(n - 1)], n, symmetrize=True)


# ---- baselines -----------------------------------------------------------

def test_block_partition_even():
    part = block_partition(8, 4)
    assert part.boundaries == [(0, 2), (2, 4), (4, 6), (6, 8)]
    assert np.array_equal(part.perm, np.arange(8))


def test_block_partition_remainder():
    part = block_partition(7, 4)
    assert sorted(part.part_sizes.tolist()) == [1, 2, 2, 2]
    assert part.part_sizes.tolist() == [2, 2, 2, 1]


def test_block_partition_single_part():
    part = block_partition(100, 1)
    assert part.boundaries == [(0, 100)]
    assert np.array_equal(part.perm, np.arange(100))


def test_block_partition_rejects_k_gt_n():
    with pytest.raises(ValueError):
        block_partition(3, 4)


def test_random_partition_deterministic_per_seed():
    a = random_partition(100, 4, seed=9)
    b = random_partition(100, 4, seed=9)
    assert np.array_equal(a.perm, b.perm)
    assert np.array_equal(a.assignment, b.assignment)


def test_random_partition_even_sizes():
    part = random_partition(8, 4, seed=0)
    assert part.part_sizes.tolist() == [2, 2, 2, 2]


def test_random_partition_seeds_differ():
    a = random_partition(1000, 8, seed=1)
    b = random_partition(1000, 8, seed=2)
    assert not np.array_equal(a.perm, b.perm)


@pytest.mark.parametrize("n, k, seed, expected", [
    (30, 4, 3, "b7af3f3955f7d86ed3ccac45c89bee53a152b101dea467b151b89f55e0ff00c2"),
    (17, 5, 0, "f24c06b2a5b1de7ad812b46ffb88d0a64eef1efec8b63fbb4b0c440a3b70c89c"),
    (1000, 7, 2, "1c749ba4fb8daa5651987eadc495c51c9e9b71df384d94a689d8aba121c9b628"),
    (6, 1, 9, "bc93a9b173d90e7fc2d5e6445649ce0792f31e22e9b416aa7cf4062157252e57"),
])
def test_random_partition_pinned(n, k, seed, expected):
    # sha256 of the assignment, perm and boundary bytes, uneven splits included
    part = random_partition(n, k, seed)
    bounds = np.array(part.boundaries, dtype=np.int64)
    got = hashlib.sha256(part.assignment.tobytes() + part.perm.tobytes() + bounds.tobytes())
    assert got.hexdigest() == expected


def test_partition_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition(3, 2, [0, 0, 2], [0, 1, 2])
    with pytest.raises(ValueError):
        Partition(3, 2, [0, 0, 1], [0, 0, 2])


# ---- apply_partition -----------------------------------------------------

def test_apply_identity_is_exact():
    rng = np.random.default_rng(2)
    a = csr_from_dense(random_csr_dense(rng, 9, density=0.3))
    h = rng.normal(size=(9, 3))
    part = block_partition(9, 3)
    a2, h2 = apply_partition(a, h, part)
    assert csr_equal(a2, a)
    assert np.array_equal(h2, h)


def test_apply_reversal_moves_corner():
    a = csr_from_dense([[5.0, 0, 0], [0, 0, 0], [0, 0, 1.0]])
    part = Partition(3, 1, [0, 0, 0], [2, 1, 0])
    a2, _ = apply_partition(a, None, part)
    dense = a2.to_dense()
    assert dense[2, 2] == 5.0 and dense[0, 0] == 1.0


def test_apply_round_trip_recovers_exactly():
    rng = np.random.default_rng(13)
    a = csr_from_dense(random_csr_dense(rng, 20, density=0.2))
    h = rng.normal(size=(20, 4))
    part = random_partition(20, 4, seed=5)
    a2, h2 = apply_partition(a, h, part)
    back = Partition(20, 1, np.zeros(20, np.int64), part.inv_perm)
    a3, h3 = apply_partition(a2, h2, back)
    assert csr_equal(a3, a)
    assert np.array_equal(h3, h)


def test_apply_preserves_symmetry():
    rng = np.random.default_rng(4)
    d = random_csr_dense(rng, 12, density=0.3)
    a = csr_from_dense(d + d.T)
    a2, _ = apply_partition(a, None, random_partition(12, 3, seed=1))
    dense = a2.to_dense()
    assert np.array_equal(dense, dense.T)


# ---- metrics -------------------------------------------------------------

def test_imbalance_pct_table_values():
    assert abs(imbalance_pct(199.6, 333.5) - 67.1) < 0.1
    assert abs(imbalance_pct(32.6, 86.4) - 165.0) < 0.5


def test_metrics_block_diagonal_zero():
    a = clique_blocks(3, 4)
    part = block_partition(12, 3)
    m = comm_metrics(a, part, f=8)
    assert m.total_rows == 0 and m.cut_p == 0 and m.imbalance_pct == 0.0


def test_metrics_single_part_all_zero():
    a = grid2d(4, 4)
    m = comm_metrics(a, block_partition(16, 1))
    assert m.total_rows == 0 and m.max_rows == 0 and m.cut_p == 0


def test_metrics_match_brute_force():
    rng = np.random.default_rng(77)
    block_dense = random_csr_dense(rng, 24, density=0.12)
    looped = random_csr_dense(rng, 30, density=0.15)  # directed
    np.fill_diagonal(looped, 1.0)
    for dense, part in [(block_dense, block_partition(24, 3)),
                        (looped, random_partition(30, 4, seed=6))]:
        a = csr_from_dense(dense)
        k = part.k
        m = comm_metrics(a, part, f=4)
        send, total = send_rows_brute_force(dense, part.assignment, k)
        assert m.per_part_send_rows.tolist() == send
        assert m.total_rows == total
        assert m.max_rows == max(send)
        assert m.avg_rows == total / k
        # cut_p is taken over the blocks of the renumbered matrix
        inv = part.inv_perm
        assert m.cut_p == cut_p_brute_force(dense[np.ix_(inv, inv)], part.boundaries)


def test_metrics_total_equals_connectivity_sum():
    rng = np.random.default_rng(31)
    dense = random_csr_dense(rng, 40, density=0.1)
    a = csr_from_dense(dense)
    part = random_partition(40, 5, seed=2)
    m = comm_metrics(a, part)
    _, total = send_rows_brute_force(dense, part.assignment, 5)
    assert m.total_rows == total


def test_cut_p_bounded_by_max_part_width():
    rng = np.random.default_rng(8)
    a = csr_from_dense(random_csr_dense(rng, 30, density=0.3))
    part = block_partition(30, 4)
    m = comm_metrics(a, part)
    assert m.cut_p <= max(e - s for s, e in part.boundaries)


# ---- greedy total-volume partitioner --------------------------------------

def test_greedy_tv_two_cliques_optimal():
    a = clique_blocks(2, 8)
    part = greedy_tv_partition(a, 2)
    assert edgecut(a, part) == 0
    first = part.assignment[:8]
    assert len(set(first.tolist())) == 1
    assert set(part.assignment.tolist()) == {0, 1}


def test_greedy_tv_path_cut_one():
    part = greedy_tv_partition(path_graph(10), 2, epsilon=0.1)
    assert edgecut(path_graph(10), part) == 1


def test_greedy_tv_single_part():
    a = grid2d(5, 5)
    part = greedy_tv_partition(a, 1)
    assert edgecut(a, part) == 0


def test_greedy_tv_relaxes_on_heavy_vertex(caplog):
    a = star(12)  # center degree 12 exceeds nnz/k for k=4
    with caplog.at_level("WARNING"):
        part = greedy_tv_partition(a, 4, epsilon=0.05)
    assert part.k == 4
    assert len(set(part.assignment.tolist())) == 4


def test_edgecut_matches_brute_force():
    rng = np.random.default_rng(55)
    dense = random_csr_dense(rng, 25, density=0.15)
    a = csr_from_dense(dense)
    for k, seed in [(3, 0), (5, 1)]:
        part = random_partition(25, k, seed=seed)
        assert edgecut(a, part) == edgecut_brute_force(dense, part.assignment)


def test_edgecut_rejects_mismatched_matrix():
    with pytest.raises(ValueError, match="does not match"):
        edgecut(csr_from_dense(np.ones((4, 6))), block_partition(4, 2))
    with pytest.raises(ValueError, match="does not match"):
        edgecut(grid2d(3, 3), block_partition(8, 2))


def test_greedy_tv_respects_balance():
    a = grid2d(8, 8)
    eps = 0.1
    part = greedy_tv_partition(a, 4, epsilon=eps)
    w = np.diff(a.row_ptr)
    loads = np.bincount(part.assignment, weights=np.maximum(w, 1), minlength=4)
    assert loads.max() <= (1 + eps) * np.maximum(w, 1).sum() / 4 + 1e-9


# ---- volume-balanced refinement -------------------------------------------

def test_refine_leaves_aligned_blocks_alone():
    a = clique_blocks(4, 5)
    part = block_partition(20, 4)
    refined = volume_balanced_refine(a, part)
    assert np.array_equal(refined.assignment, part.assignment)


@pytest.mark.parametrize("assignment", [[0, -1, 1], [0, 2, 1]], ids=["negative", "k-or-above"])
def test_from_assignment_rejects_part_ids_outside_range(assignment):
    with pytest.raises(ValueError, match=r"part ids must lie in \[0, k\)"):
        Partition.from_assignment(assignment, 2)


def test_refine_star_does_not_worsen_max():
    a = star(12)
    assignment = np.array([0] + [i % 4 for i in range(12)], dtype=np.int64)
    part = Partition.from_assignment(assignment, 4)
    before = comm_metrics(a, part)
    refined = volume_balanced_refine(a, part)
    after = comm_metrics(a, refined)
    assert after.max_rows <= before.max_rows
    assert after.total_rows <= before.total_rows


def test_refine_improves_random_grid():
    a = grid2d(16, 16)
    part = random_partition(256, 4, seed=1)
    before = comm_metrics(a, part)
    refined = volume_balanced_refine(a, part, max_passes=10)
    after = comm_metrics(a, refined)
    assert after.max_rows <= before.max_rows
    assert after.total_rows <= before.total_rows
    assert after.total_rows < before.total_rows  # plenty of slack on a grid


def test_refine_objective_matches_recomputed_metrics():
    # the incremental bookkeeping must agree with a fresh evaluation
    a = star_augmented(80, seed=3)
    part = greedy_tv_partition(a, 4)
    refined = volume_balanced_refine(a, part, lambda_max=4.0)
    m = comm_metrics(a, refined)
    send, total = send_rows_brute_force(a.to_dense(), refined.assignment, 4)
    assert m.per_part_send_rows.tolist() == send
    assert m.total_rows == total


def test_refine_respects_balance_cap():
    a = grid2d(10, 10)
    eps = 0.1
    part = greedy_tv_partition(a, 4, epsilon=eps)
    refined = volume_balanced_refine(a, part, epsilon=eps)
    w = np.maximum(np.diff(a.row_ptr), 1)
    cap = max((1 + eps) * w.sum() / 4, w.max())
    loads = np.bincount(refined.assignment, weights=w, minlength=4)
    assert loads.max() <= cap + 1e-9


def test_refine_deterministic():
    a = star_augmented(60, seed=1)
    part = random_partition(60, 4, seed=3)
    r1 = volume_balanced_refine(a, part)
    r2 = volume_balanced_refine(a, part)
    assert np.array_equal(r1.assignment, r2.assignment)
    assert np.array_equal(r1.perm, r2.perm)


def _directed_with_self_loops():
    dense = random_csr_dense(np.random.default_rng(2024), 90, density=0.06)
    np.fill_diagonal(dense, 1.0)
    return csr_from_dense(dense)


def _cliques_with_isolated(num_cliques=6, size=8, isolated=10):
    a = clique_blocks(num_cliques, size)
    n = a.n_rows + isolated
    return csr_from_coo(n, n, a.row_of_nnz(), a.col_idx, a.values)


@pytest.mark.parametrize("graph, k, greedy_digest, refined_digest", [
    (lambda: star_augmented(300, seed=0), 8,
     "551fbcf0c45be09487d9d538a7d86ed213ee2e6376d8ec5392d3681e2dcf8f88",
     "c17820d5b1d49b7cd73f32dc1b3b5d427e61ea9fb794e45d2e649645b63fccb6"),
    (_directed_with_self_loops, 5,
     "33285bbf8cdcacb3f91d6f4fad9cf5eecdad2e31979ea7314e22941e33e19143",
     "5e66023e135dfba857b15f8b13dd5ae76ce0c8549a990ed12f007d2bda5c794d"),
    (lambda: grid2d(32, 32), 32,
     "78c432c921d57cc1f7649cee45c7d5daccaf75defa2d98b8782e22a6d932c1e2",
     "908679352767d17d69c7de07a0cc0f8ead95c3d7470a20396ce0774f59a9ee0c"),
    (lambda: gcn_normalize(sbm(1000, blocks=4, seed=3)[0]), 32,
     "abc96168e1a46d7e2d0db2c1c7ef9b27549d050ca725a4f47236ea4760d591da",
     "711923977b22dc819173eec3ecd789d68a5fd942fe85bb94761b1c9978caed7b"),
    (_cliques_with_isolated, 4,
     "44d1371e4e7b4d5a3a875f4e6ead6cb0e8a3c88d5b68ec010952213a66df3d5e",
     "f0b40214f68fa99192ac0d493060c3e65f045c9f28bf9cc25d7d5acb401658b9"),
    (lambda: gcn_normalize(star_augmented(1000, seed=1)), 16,
     "afb759fb70ef190eb0f752f61146f4aae5317d0872bd0193fb8a3b2d5ed3f256",
     "4bcde04cd6dd290008a58348745c8a1cf4344724d9ca7b3f199d68f2a3c710ea"),
], ids=["star-augmented-k8", "directed-self-loops-k5", "grid32-k32",
        "sbm1000-normalized-k32", "cliques-isolated-k4", "star1000-normalized-k16"])
def test_partitions_pinned(graph, k, greedy_digest, refined_digest):
    # sha256 of assignment and perm bytes: a rewrite of the partitioners
    # must keep every partition, down to tie-breaking between equal moves
    def digest(part):
        return hashlib.sha256(part.assignment.tobytes() + part.perm.tobytes()).hexdigest()

    a = graph()
    greedy = greedy_tv_partition(a, k)
    assert digest(greedy) == greedy_digest
    assert digest(volume_balanced_refine(a, greedy)) == refined_digest


# ---- greedy-tv against the queue BFS and the full-scan refiner ---------------

def _random_directed(seed, n, density):
    dense = random_csr_dense(np.random.default_rng(seed), n, density=density)
    np.fill_diagonal(dense, 1.0)
    return csr_from_dense(dense)


def _sparse_components(seed, n):
    # few enough edges that isolated vertices and several components appear
    rng = np.random.default_rng(seed)
    u, v = rng.integers(0, n, size=(2, n))
    return csr_from_coo(n, n, np.concatenate([u, v]), np.concatenate([v, u]),
                        np.ones(u.size * 2))


EQUIVALENCE_CASES = (
    [(f"directed-loops-s{s}-k{k}", lambda s=s: _random_directed(s, 60 + 7 * s, 0.08), k)
     for s, k in [(0, 3), (1, 5), (2, 7), (3, 4), (4, 6), (5, 9)]]
    + [(f"components-s{s}-k{k}", lambda s=s: _sparse_components(s, 80 + 10 * s), k)
       for s, k in [(0, 3), (1, 5), (2, 8), (3, 4)]]
    + [("cliques-isolated-k4", _cliques_with_isolated, 4),
       ("cliques-isolated-k7", lambda: _cliques_with_isolated(5, 7, 12), 7)]
    + [(f"grid{r}x{c}-k32", lambda r=r, c=c: grid2d(r, c), 32)
       for r, c in [(16, 16), (20, 24), (32, 32)]]
    + [("star200-k4", lambda: star(200), 4), ("star200-k16", lambda: star(200), 16),
       ("sbm300-normalized-k8",
        lambda: gcn_normalize(sbm(300, blocks=4, p_in=0.05, p_out=0.005, seed=5)[0]), 8),
       ("grid6x6-k1", lambda: grid2d(6, 6), 1),
       ("grid5x5-k25", lambda: grid2d(5, 5), 25),
       ("directed-loops-k-n", lambda: _random_directed(9, 14, 0.2), 14),
       ("components-k-n", lambda: _sparse_components(9, 20), 20)]
)


@pytest.mark.parametrize("graph, k", [c[1:] for c in EQUIVALENCE_CASES],
                         ids=[c[0] for c in EQUIVALENCE_CASES])
def test_greedy_tv_matches_reference(graph, k):
    a = graph()
    pat = _sym_pattern(a)
    assert np.array_equal(_bfs_order(pat), bfs_order_deque(pat))
    part = greedy_tv_partition(a, k)
    assert np.array_equal(part.assignment, greedy_tv_reference(pat, k))


@pytest.mark.parametrize("epsilon, max_passes", [(0.0, 10), (0.3, 2), (0.1, 0)])
def test_greedy_tv_matches_reference_across_parameters(epsilon, max_passes):
    a = _random_directed(11, 120, 0.05)
    part = greedy_tv_partition(a, 6, epsilon=epsilon, max_passes=max_passes)
    expected = greedy_tv_reference(_sym_pattern(a), 6, epsilon, max_passes)
    assert np.array_equal(part.assignment, expected)


GREEDY_WINDOW_GRAPHS = [
    ("directed-loops-k4", lambda: _random_directed(3, 80, 0.08), 4),
    ("star150-normalized-k12", lambda: gcn_normalize(star_augmented(150, seed=2)), 12)]


@pytest.mark.parametrize("budget", [1, 3, 40, 300])
@pytest.mark.parametrize("graph, k", [g[1:] for g in GREEDY_WINDOW_GRAPHS],
                         ids=[g[0] for g in GREEDY_WINDOW_GRAPHS])
def test_greedy_tv_matches_reference_in_small_windows(monkeypatch, graph, k, budget):
    # the edgecut scan scores k cells per vertex: budgets 1 and 3 score one
    # vertex per window, 40 and 300 a few, so every pass runs through many
    monkeypatch.setattr(distgcn.partition, "_SCAN_WINDOW_ELEMS", budget)
    a = graph()
    part = greedy_tv_partition(a, k)
    assert part.assignment.tobytes() == greedy_tv_reference(_sym_pattern(a), k).tobytes()


# ---- volume-balanced refinement against the one-vertex-at-a-time scan -------

def _hub_above_cap(n, k, seed):
    # a star_augmented graph whose hubs carry more weight than the balance cap
    a = star_augmented(n, seed=seed)
    weight = np.maximum(np.diff(_sym_pattern(a).row_ptr), 1)
    assert weight.max() > 1.1 * weight.sum() / k
    return a


def _greedy(k, epsilon=0.10):
    return lambda a: greedy_tv_partition(a, k, epsilon=epsilon)


def _random(k, seed=1):
    return lambda a: random_partition(a.n_rows, k, seed=seed)


# (id, graph, starting partition, refiner keyword arguments)
GVB_CASES = (
    [(f"directed-loops-s{s}-k{k}-{kind}", lambda s=s: _random_directed(s, 50 + 10 * s, 0.08),
      start(k), {})
     for s, k in [(0, 3), (1, 5), (2, 7), (3, 4)]
     for kind, start in [("greedy", _greedy), ("random", _random)]]
    + [(f"star{n}-hubs-above-cap-k{k}", lambda n=n, k=k: _hub_above_cap(n, k, 2), start, {})
       for n, k, start in [(150, 48, _greedy(48)), (200, 60, _random(60, 4))]]
    + [("star120-normalized-k8-greedy", lambda: gcn_normalize(star_augmented(120, seed=5)),
        _greedy(8), {})]
    + [(f"grid{r}x{c}-tight-cap-k{k}", lambda r=r, c=c: grid2d(r, c), _random(k, seed),
        {"epsilon": eps})
       for r, c, k, seed, eps in [(10, 10, 4, 3, 0.02), (12, 9, 6, 2, 0.0)]]
    + [("cliques-isolated-k4-random", _cliques_with_isolated, _random(4, 3), {}),
       ("components-k5-greedy", lambda: _sparse_components(4, 90), _greedy(5), {}),
       ("components-k3-random", lambda: _sparse_components(5, 70), _random(3, 5), {})]
    + [("grid6x6-k1", lambda: grid2d(6, 6), _greedy(1), {}),
       ("directed-loops-k-n", lambda: _random_directed(9, 14, 0.2), _random(14), {}),
       ("components-k-n", lambda: _sparse_components(9, 20), _greedy(20), {})]
    + [(f"sbm150-lambda{lam}-passes{passes}",
        lambda: gcn_normalize(sbm(150, blocks=3, p_in=0.08, p_out=0.01, seed=7)[0]),
        _random(6, 7), {"lambda_max": lam, "max_passes": passes})
       for lam, passes in [(0.0, 10), (1.0, 10), (6.0, 1), (1.0, 0), (0.0, 1)]]
)


@pytest.mark.parametrize("graph, start, kwargs", [c[1:] for c in GVB_CASES],
                         ids=[c[0] for c in GVB_CASES])
def test_gvb_matches_reference(graph, start, kwargs):
    a = graph()
    part = start(a)
    refined = volume_balanced_refine(a, part, **kwargs)
    assignment, perm = volume_balanced_refine_full_scan(a, part.assignment, part.k, **kwargs)
    assert refined.assignment.tobytes() == assignment.tobytes()
    assert refined.perm.tobytes() == perm.tobytes()


@pytest.mark.parametrize("budget", [1, 300])
def test_gvb_matches_reference_in_small_windows(monkeypatch, budget):
    # budget 1 scores one vertex per window; 300 allows a few vertices, so
    # every pass runs through many windows
    monkeypatch.setattr(distgcn.partition, "_SCAN_WINDOW_ELEMS", budget)
    a = _random_directed(3, 80, 0.08)
    part = greedy_tv_partition(a, 4)
    refined = volume_balanced_refine(a, part)
    assignment, perm = volume_balanced_refine_full_scan(a, part.assignment, 4)
    assert refined.assignment.tobytes() == assignment.tobytes()
    assert refined.perm.tobytes() == perm.tobytes()


# ---- parameter validation ----------------------------------------------------

BAD_PARAMETERS = [({"epsilon": -0.5}, "epsilon"), ({"epsilon": float("nan")}, "epsilon"),
                  ({"epsilon": float("inf")}, "epsilon"), ({"max_passes": -3}, "max_passes")]


@pytest.mark.parametrize("kwargs, name", BAD_PARAMETERS)
def test_greedy_tv_rejects_bad_parameters(kwargs, name):
    with pytest.raises(ValueError, match=name):
        greedy_tv_partition(grid2d(8, 8), 4, **kwargs)


@pytest.mark.parametrize("kwargs, name", BAD_PARAMETERS + [
    ({"lambda_max": -1.0}, "lambda_max"), ({"lambda_max": float("nan")}, "lambda_max"),
    ({"lambda_max": float("inf")}, "lambda_max")])
def test_refine_rejects_bad_parameters(kwargs, name):
    with pytest.raises(ValueError, match=name):
        volume_balanced_refine(grid2d(8, 8), block_partition(64, 4), **kwargs)


def test_partitioners_accept_boundary_parameters():
    a = grid2d(8, 8)
    part = greedy_tv_partition(a, 4, epsilon=0.0, max_passes=0)
    refined = volume_balanced_refine(a, part, lambda_max=0.0, epsilon=0.0, max_passes=0)
    assert np.array_equal(refined.assignment, part.assignment)
    assert volume_balanced_refine(a, part, lambda_max=None).k == 4
