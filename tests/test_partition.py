import hashlib

import numpy as np
import pytest

from distgcn.graphgen import clique_blocks, grid2d, star, star_augmented
from distgcn.partition import (Partition, apply_partition, block_partition,
                               comm_metrics, edgecut, greedy_tv_partition,
                               imbalance_pct, random_partition,
                               volume_balanced_refine)
from distgcn.sparse import csr_from_dense, csr_from_edges, csr_equal

from oracles import (cut_p_brute_force, edgecut_brute_force, random_csr_dense,
                     send_rows_brute_force)


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


def test_partition_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition(3, 2, [0, 0, 2], [0, 1, 2], [(0, 2), (2, 3)])
    with pytest.raises(ValueError):
        Partition(3, 2, [0, 0, 1], [0, 0, 2], [(0, 2), (2, 3)])


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
    part = Partition(3, 1, [0, 0, 0], [2, 1, 0], [(0, 3)])
    a2, _ = apply_partition(a, None, part)
    dense = a2.to_dense()
    assert dense[2, 2] == 5.0 and dense[0, 0] == 1.0


def test_apply_round_trip_recovers_exactly():
    rng = np.random.default_rng(13)
    a = csr_from_dense(random_csr_dense(rng, 20, density=0.2))
    h = rng.normal(size=(20, 4))
    part = random_partition(20, 4, seed=5)
    a2, h2 = apply_partition(a, h, part)
    back = Partition(20, 1, np.zeros(20, np.int64), part.inv_perm, [(0, 20)])
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


@pytest.mark.parametrize("graph, k, greedy_digest, refined_digest", [
    (lambda: star_augmented(300, seed=0), 8,
     "551fbcf0c45be09487d9d538a7d86ed213ee2e6376d8ec5392d3681e2dcf8f88",
     "c17820d5b1d49b7cd73f32dc1b3b5d427e61ea9fb794e45d2e649645b63fccb6"),
    (_directed_with_self_loops, 5,
     "33285bbf8cdcacb3f91d6f4fad9cf5eecdad2e31979ea7314e22941e33e19143",
     "5e66023e135dfba857b15f8b13dd5ae76ce0c8549a990ed12f007d2bda5c794d"),
], ids=["star-augmented-k8", "directed-self-loops-k5"])
def test_partitions_pinned(graph, k, greedy_digest, refined_digest):
    # sha256 of assignment and perm bytes: a rewrite of the partitioners
    # must keep every partition, down to tie-breaking between equal moves
    def digest(part):
        return hashlib.sha256(part.assignment.tobytes() + part.perm.tobytes()).hexdigest()

    a = graph()
    greedy = greedy_tv_partition(a, k)
    assert digest(greedy) == greedy_digest
    assert digest(volume_balanced_refine(a, greedy)) == refined_digest
