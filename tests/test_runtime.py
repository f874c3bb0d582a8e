import numpy as np
import pytest

from distgcn.runtime import (CommLedger, DeadlockError, ProcessGrid,
                             SimulationError, run_program)

from oracles import alltoallv_reference


def test_grid_layout_and_groups():
    g = ProcessGrid(8, 2)
    assert g.n_rows == 4
    assert g.coords(5) == (2, 1)
    assert g.rank_of(2, 1) == 5
    assert g.row_group(1) == (2, 3)
    assert g.col_group(0) == (0, 2, 4, 6)
    assert g.stage_count() == 2


def test_grid_rejects_bad_shapes():
    with pytest.raises(ValueError, match="divide"):
        ProcessGrid(6, 4)
    with pytest.raises(ValueError, match=r"c\*c"):
        ProcessGrid(6, 2).stage_count()


def test_single_rank_program():
    run = run_program(1, 1, lambda comm: comm.rank)
    assert run.results == [0]
    assert run.ledger.total_bytes_sent() == 0.0


def test_ring_send_bytes():
    def program(comm):
        comm.isend((comm.rank + 1) % comm.p, np.array([float(comm.rank)]))
        return comm.recv((comm.rank - 1) % comm.p)[0]

    run = run_program(4, 1, program)
    assert run.results == [3.0, 0.0, 1.0, 2.0]
    for r in range(4):
        assert run.ledger.counters["p2p"]["bytes_sent"][r] == 8.0
        assert run.ledger.counters["p2p"]["bytes_received"][r] == 8.0
    assert run.ledger.conservation_ok()


def test_self_send_costs_nothing():
    def program(comm):
        comm.isend(comm.rank, np.array([1.0, 2.0]), tag=7)
        return comm.recv(comm.rank, tag=7).tolist()

    run = run_program(2, 1, program)
    assert run.results == [[1.0, 2.0], [1.0, 2.0]]
    assert run.ledger.total_bytes_sent() == 0.0


def test_zero_length_payload_delivered_free():
    def program(comm):
        if comm.rank == 0:
            comm.isend(1, np.zeros(0))
            return None
        return comm.recv(0).size

    run = run_program(2, 1, program)
    assert run.results[1] == 0
    assert run.ledger.counters["p2p"]["bytes_sent"][0] == 0.0
    assert run.ledger.counters["p2p"]["msgs_sent"][0] == 1


def test_tagged_fifo_ordering():
    def program(comm):
        if comm.rank == 0:
            for i in range(5):
                comm.isend(1, np.array([float(i)]), tag="a")
                comm.isend(1, np.array([float(10 + i)]), tag="b")
            return None
        got_a = [comm.recv(0, tag="a")[0] for _ in range(5)]
        got_b = [comm.recv(0, tag="b")[0] for _ in range(5)]
        return got_a, got_b

    run = run_program(2, 1, program)
    assert run.results[1] == ([0, 1, 2, 3, 4], [10, 11, 12, 13, 14])


def test_many_interleaved_messages_bookkeeping():
    rng = np.random.default_rng(3)
    sizes = rng.integers(0, 9, size=(4, 4, 6))  # src, dst, round

    def program(comm):
        r = comm.rank
        for rnd in range(6):
            for dst in range(comm.p):
                comm.isend(dst, np.arange(float(sizes[r, dst, rnd])), tag=rnd)
        total = 0
        for rnd in range(6):
            for src in range(comm.p):
                total += comm.recv(src, tag=rnd).size
        return total

    run = run_program(4, 1, program)
    for r in range(4):
        assert run.results[r] == int(sizes[:, r, :].sum())
        expect_sent = 8 * int(sizes[r].sum() - sizes[r, r].sum())
        assert run.ledger.counters["p2p"]["bytes_sent"][r] == expect_sent
    assert run.ledger.conservation_ok()


def test_alltoallv_empty():
    def program(comm):
        out = comm.all_to_allv([np.zeros(0) for _ in range(comm.p)])
        return [b.size for b in out]

    run = run_program(3, 1, program)
    assert run.results == [[0, 0, 0]] * 3
    assert run.ledger.total_bytes_sent() == 0.0


def test_alltoallv_two_ranks():
    def program(comm):
        bufs = [np.full(3, float(comm.rank)) for _ in range(comm.p)]
        return comm.all_to_allv(bufs)

    run = run_program(2, 1, program)
    assert run.results[0][1].tolist() == [1.0, 1.0, 1.0]
    assert run.results[1][0].tolist() == [0.0, 0.0, 0.0]
    for r in range(2):
        assert run.ledger.counters["alltoallv"]["bytes_sent"][r] == 24.0


def test_alltoallv_matches_sequential_reference():
    rng = np.random.default_rng(9)
    p = 4
    payloads = [[rng.normal(size=rng.integers(0, 7)) for _ in range(p)] for _ in range(p)]

    def program(comm):
        return comm.all_to_allv(payloads[comm.rank])

    run = run_program(p, 1, program)
    expected = alltoallv_reference(payloads)
    for d in range(p):
        for s in range(p):
            np.testing.assert_array_equal(run.results[d][s], expected[d][s])


def test_broadcast_single_rank():
    run = run_program(1, 1, lambda comm: comm.broadcast(0, np.array([4.0]))[0])
    assert run.results == [4.0]
    assert run.ledger.total_bytes_sent() == 0.0


def test_broadcast_charges_root_linearly():
    def program(comm):
        return comm.broadcast(0, np.arange(10.0) if comm.rank == 0 else None)

    run = run_program(4, 1, program)
    assert run.ledger.counters["broadcast"]["bytes_sent"][0] == 240.0
    assert run.ledger.counters["broadcast"]["msgs_sent"][0] == 3
    for r in range(1, 4):
        np.testing.assert_array_equal(run.results[r], np.arange(10.0))
    assert run.ledger.conservation_ok()


def test_broadcast_payload_bit_identical_everywhere():
    rng = np.random.default_rng(1)
    payload = rng.normal(size=17)

    def program(comm):
        return comm.broadcast(5, payload if comm.rank == 5 else None)

    run = run_program(8, 1, program)
    for r in range(8):
        assert np.array_equal(run.results[r], payload)


def test_broadcast_rejects_bad_root():
    with pytest.raises(ValueError, match="root"):
        run_program(2, 1, lambda comm: comm.broadcast(5, np.ones(1)))


def test_allreduce_group_of_one():
    def program(comm):
        return comm.all_reduce_sum(np.array([1.5]), group=(comm.rank,))

    run = run_program(2, 1, program)
    assert run.results[0][0] == 1.5
    assert run.ledger.total_bytes_sent() == 0.0


def test_allreduce_pair():
    def program(comm):
        buf = np.array([1.0, 2.0]) if comm.rank == 0 else np.array([3.0, 4.0])
        return comm.all_reduce_sum(buf)

    run = run_program(2, 1, program)
    assert run.results[0].tolist() == [4.0, 6.0]
    assert run.results[1].tolist() == [4.0, 6.0]
    # ring accounting: 2 * (1/2) * 16 bytes per member
    assert run.ledger.counters["allreduce"]["bytes_sent"][0] == 16.0


def test_allreduce_matches_sequential_sum_bit_exact():
    rng = np.random.default_rng(12)
    payloads = rng.normal(size=(4, 16))

    def program(comm):
        return comm.all_reduce_sum(payloads[comm.rank])

    run = run_program(4, 1, program)
    expected = payloads[0].copy()
    for r in range(1, 4):
        expected = expected + payloads[r]
    for r in range(4):
        assert np.array_equal(run.results[r], expected)


def test_allreduce_rejects_shape_mismatch():
    def program(comm):
        return comm.all_reduce_sum(np.ones(comm.rank + 1))

    with pytest.raises(ValueError, match="shapes differ"):
        run_program(2, 1, program)


def test_subgroup_allreduce_independent():
    def program(comm):
        i, j = comm.coords
        group = comm.grid.row_group(i)
        return comm.all_reduce_sum(np.array([float(comm.rank)]), group=group)[0]

    run = run_program(4, 2, program)
    assert run.results == [1.0, 1.0, 5.0, 5.0]


def test_deadlock_unmatched_recv_reported():
    def program(comm):
        if comm.rank == 0:
            return comm.recv(1, tag=42)  # never sent
        return None

    with pytest.raises(DeadlockError) as err:
        run_program(2, 1, program)
    assert 0 in err.value.blocked
    assert err.value.blocked[0] == ("recv", 1, 0, 42)


def test_deadlock_mismatched_collective():
    def program(comm):
        if comm.rank == 0:
            comm.ledger_mark("never matched")
        else:
            comm.recv(0, tag=1)

    with pytest.raises(DeadlockError):
        run_program(2, 1, program)


def test_leftover_messages_rejected():
    def program(comm):
        if comm.rank == 0:
            comm.isend(1, np.ones(2), tag=9)

    with pytest.raises(SimulationError, match="never received"):
        run_program(2, 1, program)


def test_program_exception_propagates():
    def program(comm):
        if comm.rank == 1:
            raise RuntimeError("boom on rank 1")
        comm.ledger_mark("after boom")

    with pytest.raises(RuntimeError, match="boom"):
        run_program(2, 1, program)


def test_payload_type_rejected():
    def program(comm):
        comm.isend(0, np.ones(3, dtype=np.float32))

    with pytest.raises(TypeError, match="float64 or int64"):
        run_program(1, 1, program)


def test_index_payloads_tracked_separately():
    def program(comm):
        if comm.rank == 0:
            comm.isend(1, np.arange(4, dtype=np.int64))
            comm.isend(1, np.arange(3, dtype=np.float64))
            return None
        comm.recv(0)
        comm.recv(0)

    run = run_program(2, 1, program)
    assert run.ledger.counters["p2p"]["index_bytes_sent"][0] == 32.0
    assert run.ledger.counters["p2p"]["data_bytes_sent"][0] == 24.0


def test_pair_max_records_largest_message():
    def program(comm):
        if comm.rank == 0:
            comm.isend(1, np.ones(2))
            comm.isend(1, np.ones(5))
            comm.isend(1, np.ones(1))
            return None
        for _ in range(3):
            comm.recv(0)

    run = run_program(2, 1, program)
    assert run.ledger.pair_max_bytes[(0, 1)] == 40.0
    assert run.ledger.max_pair_data_bytes() == 40.0


def test_ledger_marks_snapshot_totals():
    def program(comm):
        comm.all_reduce_sum(np.ones(4))
        comm.ledger_mark("after-first")
        comm.all_reduce_sum(np.ones(4))
        comm.ledger_mark("after-second")

    run = run_program(2, 1, program)
    first = run.ledger.marks["after-first"]["allreduce"]["bytes_sent"]
    second = run.ledger.marks["after-second"]["allreduce"]["bytes_sent"]
    assert second == 2 * first > 0


def _mixed_program(comm):
    rng = np.random.default_rng(comm.rank)
    out = comm.all_to_allv([rng.normal(size=3) for _ in range(comm.p)])
    red = comm.all_reduce_sum(np.concatenate(out))
    if comm.rank == 0:
        comm.isend(comm.p - 1, red, tag=0)
        return red.sum()
    if comm.rank == comm.p - 1:
        return comm.recv(0, tag=0).sum()
    return red.sum()


def test_determinism_results_and_ledger():
    runs = [run_program(4, 1, _mixed_program) for _ in range(2)]
    assert runs[0].results == runs[1].results
    d0, d1 = runs[0].ledger.to_dict(), runs[1].ledger.to_dict()
    assert d0 == d1


def test_conservation_after_mixed_program():
    run = run_program(4, 1, _mixed_program)
    assert run.ledger.conservation_ok()
