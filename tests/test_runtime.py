import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distgcn.runtime
from distgcn.runtime import (CommLedger, DeadlockError, ProcessGrid,
                             SimulationError, plan_all_to_allv, run_program)

from oracles import (allreduce_by_steps, alltoallv_charges_by_loop, alltoallv_reference,
                     alltoallv_stack_and_gather)


def _packed(counts):
    """The schedule of the exchange in which rank s sends the whole of its
    buffer, of sum(counts[s]) rows, in segments of counts[s][d] rows, and
    the reference `then` that delivers every receiver its rows
    (`alltoallv_stack_and_gather`)."""
    return (plan_all_to_allv(counts, [int(np.sum(c)) for c in counts]),
            alltoallv_stack_and_gather(counts))


def _each_own(bufs):
    """A `then` that hands every rank its own buffer back."""
    return bufs


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
    # a self-addressed call is still a call: one for isend, one for recv
    assert run.ledger.counters["p2p"]["calls"].tolist() == [2, 2]


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
    schedule, then = _packed([[0] * 3] * 3)

    def program(comm):
        return comm.all_to_allv(np.zeros(0), schedule, then).size

    run = run_program(3, 1, program)
    assert run.results == [0] * 3
    assert run.ledger.total_bytes_sent() == 0.0
    assert run.ledger.counters["alltoallv"]["msgs_sent"].sum() == 0


def test_alltoallv_two_ranks():
    schedule, then = _packed([[3, 3]] * 2)

    def program(comm):
        return comm.all_to_allv(np.full(3 * comm.p, float(comm.rank)), schedule, then)

    run = run_program(2, 1, program)
    assert run.results[0][3:].tolist() == [1.0, 1.0, 1.0]
    assert run.results[1][:3].tolist() == [0.0, 0.0, 0.0]
    for r in range(2):
        assert run.ledger.counters["alltoallv"]["bytes_sent"][r] == 24.0


def test_alltoallv_matches_sequential_reference():
    rng = np.random.default_rng(9)
    p = 4
    payloads = [[rng.normal(size=rng.integers(0, 7)) for _ in range(p)] for _ in range(p)]
    bufs = [np.concatenate(row) for row in payloads]
    counts = [[b.size for b in row] for row in payloads]
    schedule, then = _packed(counts)

    def program(comm):
        return comm.all_to_allv(bufs[comm.rank], schedule, then)

    run = run_program(p, 1, program)
    expected = alltoallv_reference(bufs, counts)
    for d in range(p):
        np.testing.assert_array_equal(run.results[d], expected[d])
    sizes = np.array(counts)
    np.fill_diagonal(sizes, 0)
    c = run.ledger.counters["alltoallv"]
    assert c["bytes_sent"].tolist() == (8.0 * sizes.sum(axis=1)).tolist()
    assert c["bytes_received"].tolist() == (8.0 * sizes.sum(axis=0)).tolist()
    assert c["msgs_sent"].tolist() == (sizes > 0).sum(axis=1).tolist()


def test_alltoallv_moves_rows_of_2d_buffer():
    schedule, then = _packed([[2, 3], [4, 1]])

    def program(comm):
        buf = np.arange(10.0).reshape(5, 2) + 10 * comm.rank
        return comm.all_to_allv(buf, schedule, then)

    run = run_program(2, 1, program)
    assert run.results[0].tolist() == [[0.0, 1.0], [2.0, 3.0],
                                       [10.0, 11.0], [12.0, 13.0], [14.0, 15.0], [16.0, 17.0]]
    assert run.results[1].tolist() == [[4.0, 5.0], [6.0, 7.0], [8.0, 9.0], [18.0, 19.0]]
    assert run.ledger.counters["alltoallv"]["bytes_sent"].tolist() == [48.0, 64.0]
    assert run.ledger.pair_max_data_bytes.tolist() == [[0, 48], [64, 0]]
    # pair maxima serialize as integers, as every other primitive records them
    pairs = run.ledger.to_dict()["pair_max_bytes"]
    assert pairs == {"0->1": 48, "1->0": 64}
    assert all(type(v) is int for v in pairs.values())


def test_alltoallv_receiver_of_no_rows_gets_typed_empty():
    # 2-D int64 rows; every rank sends only to its right neighbour, except
    # rank 7, so rank 0 receives nothing
    p = 8
    counts = np.eye(p, k=1, dtype=np.int64) * 2
    schedule, then = _packed(counts)

    def program(comm):
        buf = np.full((int(counts[comm.rank].sum()), 3), comm.rank, dtype=np.int64)
        return comm.all_to_allv(buf, schedule, then)

    run = run_program(p, 1, program)
    assert run.results[0].shape == (0, 3)
    assert run.results[0].dtype == np.int64
    for d in range(1, p):
        assert run.results[d].tolist() == [[d - 1] * 3] * 2
    assert run.ledger.counters["alltoallv"]["msgs_received"].tolist() == [0] + [1] * (p - 1)


@pytest.mark.parametrize("counts,match", [
    ([2], "2 integer counts"),
    ([1, 1, 0], "2 integer counts"),
    ([1.0, 1.0], "2 integer counts"),
    ([3, -1], "non-negative"),
], ids=["too-few", "too-many", "float", "negative"])
def test_alltoallv_rejects_bad_counts(counts, match):
    with pytest.raises(ValueError, match=match):
        plan_all_to_allv([counts, counts], [2, 2])


def test_alltoallv_rejects_mixed_row_types():
    schedule, then = _packed([[1, 1]] * 2)

    def program(comm):
        dtype = np.int64 if comm.rank == 1 else np.float64
        comm.all_to_allv(np.ones(2, dtype=dtype), schedule, then)

    with pytest.raises(ValueError, match="differ in dtype or row shape"):
        run_program(2, 1, program)


def _random_exchange(rng, p, row_shape, dtype, whole=True):
    """Per-rank buffers and counts, empty buffers and segments included:
    counts that split every buffer's rows, or, not `whole`, counts of any
    sum, which stand for rows that only a `then` knows."""
    bufs, counts = [], []
    for _ in range(p):
        n = int(rng.integers(0, 9))
        bufs.append((rng.normal(size=(n, *row_shape)) * 100).astype(dtype))
        m = n if whole else int(rng.integers(0, 9))
        cuts = np.sort(rng.integers(0, m + 1, size=p - 1))
        counts.append(np.diff(np.concatenate([[0], cuts, [m]])))
    return bufs, counts


def _ledger_json(run):
    return json.dumps(run.ledger.to_dict(), sort_keys=True)


def _assert_charged_count_by_count(ledger, counts, row_shape, dtype, calls):
    """The ledger's all_to_allv counters and pair maxima are those of
    `calls` exchanges of `counts` rows of `row_shape` and `dtype`, charged
    count by count (`alltoallv_charges_by_loop`)."""
    p = len(counts)
    width = 8 * math.prod(row_shape)
    kind, other = ("data", "index") if dtype == np.float64 else ("index", "data")
    sent_rows, sent_msgs, received_rows, received_msgs, wire = alltoallv_charges_by_loop(counts)
    c = ledger.counters["alltoallv"]
    for direction, rows, msgs in (("sent", sent_rows, sent_msgs),
                                  ("received", received_rows, received_msgs)):
        for prefix in ("", f"{kind}_"):
            assert c[f"{prefix}bytes_{direction}"].tolist() == [calls * width * r for r in rows]
            assert c[f"{prefix}msgs_{direction}"].tolist() == [calls * m * (width > 0)
                                                               for m in msgs]
        assert not c[f"{other}_bytes_{direction}"].any()
        assert not c[f"{other}_msgs_{direction}"].any()
    assert c["calls"].tolist() == [calls] * p
    pairs = np.zeros((p, p), dtype=np.int64)
    for (src, dst), rows in wire.items():
        pairs[src, dst] = width * rows
    assert ledger.pair_max_bytes.tolist() == pairs.tolist()
    assert ledger.pair_max_data_bytes.tolist() == (pairs * (kind == "data")).tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.integers(min_value=1, max_value=6),
       st.sampled_from([(), (0,), (3,)]), st.sampled_from([np.float64, np.int64]))
def test_whole_buffer_sends_match_reference(seed, p, row_shape, dtype):
    rng = np.random.default_rng(seed)
    bufs, counts = _random_exchange(rng, p, row_shape, dtype)
    expected = alltoallv_reference(bufs, counts)
    schedule, then = _packed(counts)

    def exchange(comm):
        buf = bufs[comm.rank].copy()
        got = comm.all_to_allv(buf, schedule, then)
        buf[...] = -7  # a sender may reuse its buffer once the call returns
        return got

    run = run_program(p, 1, exchange)
    for d in range(p):
        assert run.results[d].dtype == expected[d].dtype
        assert run.results[d].shape == expected[d].shape
        assert run.results[d].tobytes() == expected[d].tobytes()
    _assert_charged_count_by_count(run.ledger, counts, row_shape, dtype, calls=1)


def test_isend_copies_its_payload():
    def program(comm):
        if comm.rank == 0:
            buf = np.arange(3.0)
            comm.isend(1, buf)
            buf[...] = -7  # a sender may reuse its buffer once the call returns
            return None
        return comm.recv(0).tolist()

    assert run_program(2, 1, program).results[1] == [0.0, 1.0, 2.0]


def test_exchanges_of_one_run_reuse_staging_safely():
    # exchanges of growing and shrinking size, float and int rows, in one
    # run, each staging its arrivals in a collective slot of its own: each
    # `then` must get its own exchange's buffers
    p = 4
    sizes = [1, 5, 2, 9, 0, 3]
    schedules = [_packed([[m] * p] * p) for m in sizes]

    def program(comm):
        out = []
        for k, m in enumerate(sizes):
            dtype = np.int64 if k % 2 else np.float64
            buf = (np.arange(m * p * 2).reshape(m * p, 2) + 1000 * comm.rank + k).astype(dtype)
            out.append(comm.all_to_allv(buf, *schedules[k]))
        return out

    run = run_program(p, 1, program)
    for d in range(p):
        for k, m in enumerate(sizes):
            dtype = np.int64 if k % 2 else np.float64
            expect = np.concatenate([(np.arange(m * p * 2).reshape(m * p, 2)
                                      + 1000 * s + k).astype(dtype)[d * m:(d + 1) * m]
                                     for s in range(p)])
            assert run.results[d][k].dtype == dtype
            assert run.results[d][k].tobytes() == expect.tobytes()


@pytest.mark.parametrize("counts,match", [
    ([1, 1], "rank 1: all_to_allv needs 3 integer counts"),
    ([1.0, 1.0, 0.0], "rank 1: all_to_allv needs 3 integer counts"),
    ([3, -1, 0], "rank 1: all_to_allv counts must be non-negative, got -1"),
], ids=["wrong-length", "float", "negative"])
def test_alltoallv_bad_counts_on_one_rank_named(counts, match):
    with pytest.raises(ValueError, match=match):
        plan_all_to_allv([[1, 1, 0], counts, [1, 1, 0]], [2] * 3)


def _counters_equal(a, b):
    for prim, fields in a.ledger.counters.items():
        for name, arr in fields.items():
            assert np.array_equal(b.ledger.counters[prim][name], arr), (prim, name)
    assert np.array_equal(a.ledger.pair_max_bytes, b.ledger.pair_max_bytes)
    assert np.array_equal(a.ledger.pair_max_data_bytes, b.ledger.pair_max_data_bytes)
    assert _ledger_json(a) == _ledger_json(b)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.integers(min_value=1, max_value=6),
       st.sampled_from([(), (0,), (3,)]), st.sampled_from([np.float64, np.int64]),
       st.booleans())
def test_alltoallv_then_runs_once_and_charges_as_the_exchange(seed, p, row_shape, dtype, whole):
    # empty senders, self-segments and zero-width rows included, and, not
    # whole, partial sends: counts of another sum than the buffer's
    # height, whose rows only the `then` knows. A schedule is run three
    # times and inspected once; where the rows are whole buffers, a
    # `then` that delivers them is charged the same
    rng = np.random.default_rng(seed)
    bufs, counts = _random_exchange(rng, p, row_shape, dtype, whole)
    schedule = plan_all_to_allv(counts, [len(b) for b in bufs])
    calls = []

    def then(got):
        assert all(g is b for g, b in zip(got, bufs, strict=True))
        calls.append(len(got))
        return list(range(p))

    def program(comm, then):
        return [comm.all_to_allv(bufs[comm.rank], schedule, then) for _ in range(3)]

    fused = run_program(p, 1, program, (then,))
    # once per collective, never per rank, with every rank's buffer
    assert calls == [p] * 3
    assert fused.results == [[d] * 3 for d in range(p)]
    _assert_charged_count_by_count(fused.ledger, counts, row_shape, dtype, calls=3)
    if not whole:
        return
    plain = run_program(p, 1, program, (alltoallv_stack_and_gather(counts),))
    expected = alltoallv_reference(bufs, counts)
    for d in range(p):
        for got in plain.results[d]:
            assert got.dtype == expected[d].dtype
            assert got.shape == expected[d].shape
            assert got.tobytes() == expected[d].tobytes()
    _counters_equal(plain, fused)


def test_alltoallv_then_gets_every_buffer_when_no_rank_sends_a_row():
    # the counts send no row, yet the `then` gets all p buffers, uncopied,
    # and the ledger charges the exchange: nothing
    heights = [3, 0, 2, 1]
    schedule = plan_all_to_allv([[0] * 4] * 4, heights)
    bufs = [np.full((h, 2), float(r)) for r, h in enumerate(heights)]
    calls = []

    def then(got):
        assert all(g is b for g, b in zip(got, bufs, strict=True))
        calls.append(len(got))
        return [b[:0] for b in got]

    run = run_program(4, 1, lambda comm: comm.all_to_allv(bufs[comm.rank], schedule,
                                                          then=then))
    assert calls == [4]
    assert all(got.shape == (0, 2) for got in run.results)
    counters = run.ledger.counters["alltoallv"]
    for field in ("bytes_sent", "bytes_received", "msgs_sent", "msgs_received"):
        assert counters[field].sum() == 0, field
    assert counters["calls"].tolist() == [1] * 4
    assert run.ledger.pair_max_bytes.sum() == 0


def test_alltoallv_then_of_the_lowest_rank_runs():
    schedule, _ = _packed([[1, 1, 1]] * 3)

    def program(comm):
        def then(bufs):
            return [(comm.rank, d) for d in range(comm.p)]
        return comm.all_to_allv(np.ones(3), schedule, then=then)

    assert run_program(3, 1, program).results == [(0, 0), (0, 1), (0, 2)]


def test_alltoallv_then_error_raised_on_every_rank():
    calls = []
    schedule, _ = _packed([[1, 1]] * 2)

    def then(bufs):
        calls.append(None)
        raise ArithmeticError("no product")

    def program(comm):
        try:
            comm.all_to_allv(np.ones(2), schedule, then=then)
        except ArithmeticError as exc:
            return f"rank {comm.rank}: {exc}"
        return "returned"

    assert run_program(2, 1, program).results == ["rank 0: no product", "rank 1: no product"]
    assert len(calls) == 1
    with pytest.raises(ArithmeticError, match="no product"):
        run_program(2, 1, lambda comm: comm.all_to_allv(np.ones(2), schedule, then=then))


def test_scheduled_exchange_rejects_a_buffer_of_another_height():
    schedule = distgcn.runtime.plan_all_to_allv([[1, 1, 0]] * 3, [2, 2, 2])

    def program(comm):
        try:
            comm.all_to_allv(np.ones(3 if comm.rank == 1 else 2), schedule, _each_own)
        except ValueError as exc:
            return str(exc)
        return "returned"

    assert run_program(3, 1, program).results == [
        "rank 1: all_to_allv buffer has 3 rows but the schedule sends from 2"] * 3
    with pytest.raises(ValueError, match="all_to_allv schedule is for 3 ranks, not 2"):
        run_program(2, 1, lambda comm: comm.all_to_allv(np.ones(2), schedule, _each_own))


@pytest.mark.parametrize("counts,heights,match", [
    ([[1, 1], [1, 1, 0]], [2, 2], "rank 1: all_to_allv needs 2 integer counts"),
    ([[1, 1]], [2, 2], "counts and heights for every rank, got 1 and 2"),
    # ranks 1 and 2 are both at fault; the lowest is named
    ([[1, 1, 0], [-1, 1, 2], [0, -3, 5]], [2, 2, 2],
     "rank 1: all_to_allv counts must be non-negative, got -1"),
], ids=["wrong-length", "missing-rank", "negative-on-ranks-1-2"])
def test_schedule_checks_counts_and_rows_as_the_call_does(counts, heights, match):
    # every count check runs once, at planning, before any call
    with pytest.raises(ValueError, match=match):
        plan_all_to_allv(counts, heights)


def test_alltoallv_schedule_misuse_named():
    schedule = distgcn.runtime.plan_all_to_allv([[1, 1], [1, 1]], [2, 2])
    other = distgcn.runtime.plan_all_to_allv([[1, 1], [1, 1]], [2, 2])
    with pytest.raises(TypeError, match=r"all_to_allv needs the ExchangeSchedule of its "
                                        r"exchange \(plan_all_to_allv\), got list"):
        run_program(2, 1, lambda comm: comm.all_to_allv(
            np.ones(2), [1, 1] if comm.rank else schedule, _each_own))
    with pytest.raises(ValueError, match=r"ranks \[1\] pass another schedule than rank 0"):
        run_program(2, 1, lambda comm: comm.all_to_allv(
            np.ones(2), other if comm.rank else schedule, _each_own))


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


def test_broadcast_shares_one_read_only_array():
    payload = np.random.default_rng(4).normal(size=(5, 3))

    def program(comm):
        return comm.broadcast(2, payload if comm.rank == 2 else None)

    run = run_program(4, 1, program)
    for r in range(4):
        assert np.array_equal(run.results[r], payload)
        assert run.results[r] is run.results[0]
    assert run.results[0] is not payload
    with pytest.raises(ValueError, match="read-only"):
        run.results[0][0, 0] = 1.0
    assert run.ledger.counters["broadcast"]["bytes_sent"][2] == 3 * payload.nbytes


@pytest.mark.parametrize("g", [1, 2, 4])
def test_allreduce_shares_one_read_only_sum(g):
    rng = np.random.default_rng(g)
    payloads = rng.normal(size=(4, 5, 3))
    # -0.0 on every member sums to -0.0; one +0.0 among them makes +0.0
    payloads[:, 0, :] = -0.0
    payloads[1, 1, :] = 0.0
    payloads[[0, 2, 3], 1, :] = -0.0

    def program(comm):
        # the sum runs over the grid row in ascending rank order
        return comm.all_reduce_sum(payloads[comm.rank], group=comm.row)

    run = run_program(4, g, program)
    for i in range(4 // g):
        members = run.grid.row_group(i)
        expected = payloads[members[0]].copy()
        for r in members[1:]:
            expected = expected + payloads[r]
        shared = run.results[members[0]]
        assert shared.tobytes() == expected.tobytes()
        assert all(run.results[r] is shared for r in members)
        assert not any(np.shares_memory(shared, payloads[r]) for r in members)
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 1.0


def test_allreduce_rejects_dtype_mismatch():
    def program(comm):
        dtype = np.float64 if comm.rank == 0 else np.int64
        return comm.all_reduce_sum(np.ones(2, dtype=dtype))

    with pytest.raises(ValueError, match="dtypes differ"):
        run_program(2, 1, program)


def test_broadcast_rejects_bad_root():
    with pytest.raises(ValueError, match="root"):
        run_program(2, 1, lambda comm: comm.broadcast(5, np.ones(1)))


def test_broadcast_root_without_buffer_raises():
    # a root's None is a missing payload, not an empty one
    def program(comm):
        comm.broadcast(1, None)
        return comm.rank

    with pytest.raises(ValueError, match="broadcast root 1 supplied no buffer"):
        run_program(3, 1, program)


def test_allreduce_group_of_one():
    def program(comm):
        # at c=1 each grid row is a group of one
        return comm.all_reduce_sum(np.array([1.5]), group=comm.row)

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
    # one halving and one doubling step: each member sends one element in
    # each, 16 bytes
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
        return comm.all_reduce_sum(np.array([float(comm.rank)]), group=comm.row)[0]

    run = run_program(4, 2, program)
    assert run.results == [1.0, 1.0, 5.0, 5.0]


def test_allreduce_naming_every_rank_is_the_world_collective():
    # at c=1 the grid column is the world itself, the collective of a call
    # that names no group, so ranks may mix the two
    def program(comm):
        group = None if comm.rank % 2 else comm.col
        return comm.all_reduce_sum(np.array([float(comm.rank)]), group=group)[0]

    run = run_program(6, 1, program)
    assert run.results == [15.0] * 6
    assert run.ledger.counters["allreduce"]["calls"].tolist() == [1] * 6


def test_communicators_are_made_once_per_run():
    # every member of a grid row or column holds the one communicator the
    # run made for it; a row of the whole grid, or a column at c=1, is the
    # world itself
    def program(comm):
        return comm.world, comm.row, comm.col

    run = run_program(8, 2, program)
    grid = run.grid
    for r, (world, row, col) in enumerate(run.results):
        i, j = grid.coords(r)
        assert world is run.results[0][0] and world.members == tuple(range(8))
        assert row is run.results[grid.rank_of(i, 0)][1] and row.members == grid.row_group(i)
        assert col is run.results[grid.rank_of(0, j)][2] and col.members == grid.col_group(j)
        assert world is not row and world is not col
    assert all(col is world for world, _, col in run_program(4, 1, program).results)
    assert all(row is world for world, row, _ in run_program(4, 4, program).results)


@pytest.mark.parametrize("foreign", ["tuple", "another row"])
def test_allreduce_rejects_a_group_that_is_not_the_callers(foreign):
    # only the caller's own communicators name a group: neither a tuple of
    # its row's members nor another row's communicator does
    rows = {}

    def program(comm):
        rows[comm.rank] = comm.row
        comm.ledger_mark("rows")
        group = comm.row
        if comm.rank == 3:
            group = comm.grid.row_group(comm.coords[0]) if foreign == "tuple" else rows[0]
        return comm.all_reduce_sum(np.ones(1), group=group)

    with pytest.raises(ValueError, match="rank 3: all_reduce_sum runs over this rank's"):
        _bounded(lambda: run_program(4, 2, program))
    assert not [t for t in threading.enumerate() if t.name.startswith("rank-")]


def test_collectives_entered_in_different_orders_raise():
    # a communicator has one open collective: an arrival of another kind
    # means its members call collectives in different orders, which is
    # reported rather than left to deadlock
    def program(comm):
        if comm.rank == 0:
            comm.all_reduce_sum(np.ones(1))
            comm.ledger_mark("m")
        else:
            comm.ledger_mark("m")
            comm.all_reduce_sum(np.ones(1))

    reported = r"rank 1 enters mark over ranks \(0, 1\) while their allreduce is open"
    with pytest.raises(SimulationError, match=reported):
        _bounded(lambda: run_program(2, 1, program))
    assert not [t for t in threading.enumerate() if t.name.startswith("rank-")]


def test_allreduce_counts_are_shared_read_only():
    first = distgcn.runtime.all_reduce_counts(6, 10)
    assert all(a is b for a, b in zip(first, distgcn.runtime.all_reduce_counts(6, 10)))
    for arr in first + distgcn.runtime.all_reduce_counts(8, 3):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


@pytest.mark.parametrize("p,c", [(1, 1), (2, 1), (3, 1), (12, 2), (32, 1)])
def test_allreduce_of_a_concatenation_is_the_per_part_sums(p, c):
    # a bucket of gradients: one reduction of the parts laid end to end
    # gives each part's own sum bit for bit, since the sum is elementwise
    # in ascending rank order. (12, 2) reduces over a column group of 6.
    shapes = [(5, 3), (3, 1), (4, 2)]
    sizes = [a * b for a, b in shapes]
    rng = np.random.default_rng(p)
    payloads = rng.normal(size=(p, sum(sizes))) * 10.0 ** rng.integers(-8, 9, (p, sum(sizes)))
    payloads[:, 0] = -0.0

    def parts(comm):
        own = np.split(payloads[comm.rank], np.cumsum(sizes)[:-1])
        return [comm.all_reduce_sum(x.reshape(s), group=comm.col) for x, s in zip(own, shapes)]

    def bucket(comm):
        total = comm.all_reduce_sum(payloads[comm.rank], group=comm.col)
        return [x.reshape(s) for x, s in zip(np.split(total, np.cumsum(sizes)[:-1]), shapes)]

    apart, together = run_program(p, c, parts), run_program(p, c, bucket)
    g = p // c
    for r in range(p):
        assert ([x.tobytes() for x in apart.results[r]]
                == [x.tobytes() for x in together.results[r]])
    ledgers = apart.ledger.counters["allreduce"], together.ledger.counters["allreduce"]
    assert ledgers[0]["calls"].tolist() == [len(shapes)] * p
    assert ledgers[1]["calls"].tolist() == [1] * p
    # recursive halving/doubling on a power-of-two group (10 steps at
    # g=32), the ring on the column groups of 6 (also 10); each member is
    # charged the whole elements and the messages the oracle moves for it
    # step by step. The 26 elements leave 12 of 32 members one halving
    # step that moves nothing, so no message.
    _, counts = allreduce_by_steps(np.zeros((g, sum(sizes))))
    assert max(counts["msgs"]) == {1: 0, 2: 2, 3: 4, 6: 10, 32: 10}[g]
    assert sum(counts["msgs"]) == {1: 0, 2: 4, 3: 12, 6: 60, 32: 308}[g]
    for j in range(c):
        members = list(ProcessGrid(p, c).col_group(j))
        assert ledgers[1]["bytes_sent"][members].tolist() == [8.0 * x for x in counts["sent"]]
        assert ledgers[1]["msgs_sent"][members].tolist() == counts["msgs"]
    # a bucket and its parts move the same bytes in all, 2(g-1) x bytes
    totals = [float(ledger["bytes_sent"].sum()) for ledger in ledgers]
    assert totals == [2.0 * (g - 1) * sum(sizes) * 8 * c] * 2


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6, 8, 12, 16, 32])
def test_allreduce_charge_follows_the_schedule_step_by_step(g):
    # the oracle moves real segments between g members; its schedule must
    # reduce (small integers sum exactly in any order), and the ledger of
    # one all_reduce_sum must charge each member what it moved, for
    # payloads of every size from empty to over twice the group
    rng = np.random.default_rng(g)
    for size in range(71):
        ints = rng.integers(-9, 10, size=(g, size)).astype(np.float64)
        held, counts = allreduce_by_steps(ints)
        for buf in held:
            assert buf.tolist() == ints.sum(axis=0).tolist()
        payloads = rng.normal(size=(g, size))
        run = run_program(g, 1, lambda comm: comm.all_reduce_sum(payloads[comm.rank]))
        ledger = run.ledger.counters["allreduce"]
        assert ledger["bytes_sent"].tolist() == [8.0 * x for x in counts["sent"]]
        assert ledger["msgs_sent"].tolist() == counts["msgs"]
        assert ledger["bytes_received"].tolist() == [8.0 * x for x in counts["received"]]
        assert ledger["msgs_received"].tolist() == counts["received_msgs"]
        assert run.ledger.total_bytes_sent() == 2 * (g - 1) * size * 8
        assert run.ledger.conservation_ok()
        expected = payloads[0].copy()
        for r in range(1, g):
            expected = expected + payloads[r]
        assert all(run.results[r].tobytes() == expected.tobytes() for r in range(g))


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


# rank s sends (s + d) % 3 rows to rank d, and reversed, on 6 ranks
_EDGE_COUNTS = (np.arange(6)[:, None] + np.arange(6)) % 3
_EDGE_SCHEDULES = (_packed(_EDGE_COUNTS), _packed(_EDGE_COUNTS[:, ::-1]))


def _edge_case_program(comm):
    """Every primitive on a 3 x 2 grid, over the ledger's corner cases."""
    empty = comm.broadcast(1, np.zeros(0) if comm.rank == 1 else None)
    index = comm.broadcast(4, np.arange(5, dtype=np.int64) if comm.rank == 4 else None)
    heights = [sch.heights[comm.rank] for sch, _ in _EDGE_SCHEDULES]
    data = comm.all_to_allv(np.full(heights[0], float(comm.rank)), *_EDGE_SCHEDULES[0])
    idx = comm.all_to_allv(np.full((heights[1], 2), comm.rank, dtype=np.int64),
                           *_EDGE_SCHEDULES[1])
    col = comm.all_reduce_sum(np.ones(3), group=comm.col)
    row = comm.all_reduce_sum(np.ones(4), group=comm.row)
    comm.ledger_mark("collectives")
    if comm.rank == 0:
        comm.isend(3, np.ones(2))
        comm.isend(3, np.arange(7, dtype=np.int64))
    if comm.rank == 3:
        comm.recv(0)
        comm.recv(0)
    return empty.size, int(index.sum()), data.size, idx.shape, col.sum(), row.sum()


# a rework of the ledger that keeps every serialized byte keeps this
_PINNED_EDGE_CASES = "555dceb20e9e24405df1f5f0d4d92365ab15c8f9fb0cdd339e98a88d3d491ec6"


def test_edge_case_ledger_pinned():
    run = run_program(6, 2, _edge_case_program)
    assert run.results == [(0, 10, 6, (6, 2), 9.0, 8.0)] * 6
    # an empty broadcast still charges its root p-1 messages
    assert run.ledger.counters["broadcast"]["msgs_sent"][1] == 5
    # an index message above a data one raises pair_max_bytes only
    assert run.ledger.pair_max_bytes[0, 3] == 56
    assert run.ledger.pair_max_data_bytes[0, 3] == 16
    # isend and recv charge their caller one call each
    assert run.ledger.counters["p2p"]["calls"].tolist() == [2, 0, 0, 2, 0, 0]
    # every message counter counts in integers
    for fields in run.ledger.counters.values():
        for name, arr in fields.items():
            assert arr.dtype == (np.int64 if "msgs" in name or name == "calls"
                                 else np.float64), name
    digest = hashlib.sha256(json.dumps(run.ledger.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == _PINNED_EDGE_CASES


_MIXED_SCHEDULE = _packed([[3] * 4] * 4)


def _mixed_program(comm):
    rng = np.random.default_rng(comm.rank)
    out = comm.all_to_allv(np.concatenate([rng.normal(size=3) for _ in range(comm.p)]),
                           *_MIXED_SCHEDULE)
    red = comm.all_reduce_sum(out)
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


def _bounded(fn, seconds=60.0):
    """fn() on a daemon thread, joined with a timeout; returns what fn
    returned or raises what it raised."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            out["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout=seconds)
    assert not t.is_alive(), f"run did not finish within {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_one_rank_runs_at_a_time():
    p, rounds = 16, 4
    # rank r sends (r + d + rnd) % 3 rows to rank d in round rnd
    schedules = [_packed((np.arange(p)[:, None] + np.arange(p) + rnd) % 3)
                 for rnd in range(rounds)]
    lock = threading.Lock()
    active, peak = [0], [0]

    def program_code():
        with lock:
            active[0] += 1
            peak[0] = max(peak[0], active[0])
        time.sleep(0)  # give any other runnable rank thread the interpreter
        with lock:
            active[0] -= 1

    def program(comm):
        r = comm.rank
        got = []
        for rnd in range(rounds):
            program_code()
            comm.isend((r + 1) % p, np.array([float(r + rnd)]), tag=rnd)
            program_code()
            got.append(comm.recv((r - 1) % p, tag=rnd)[0])
            program_code()
            schedule, then = schedules[rnd]
            rows = comm.all_to_allv(np.full(schedule.heights[r], float(r)), schedule, then)
            program_code()
            total = comm.all_reduce_sum(np.array([rows.sum()]))
            program_code()
            comm.ledger_mark(("round", rnd))
            program_code()
            got.append(total[0])
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run = _bounded(lambda: run_program(p, 1, program))
    finally:
        sys.setswitchinterval(interval)
    assert peak[0] == 1
    for r in range(p):
        assert run.results[r][0::2] == [float((r - 1) % p + rnd) for rnd in range(rounds)]
    assert len({tuple(res[1::2]) for res in run.results}) == 1
    assert run.ledger.conservation_ok()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="threads cannot be pinned on this platform")
def test_rank_threads_share_one_cpu():
    caller = os.sched_getaffinity(0)

    def program(comm):
        comm.all_reduce_sum(np.ones(1))
        return frozenset(os.sched_getaffinity(0))

    run = _bounded(lambda: run_program(8, 1, program))
    cpus = set(run.results)
    assert len(cpus) == 1
    (cpu_set,) = cpus
    assert len(cpu_set) == 1 and cpu_set <= caller
    assert os.sched_getaffinity(0) == caller


# rank s sends (s + d) % 3 rows to rank d, on 8 ranks
_BATON_SCHEDULE = _packed((np.arange(8)[:, None] + np.arange(8)) % 3)


def _baton_program(comm):
    schedule, then = _BATON_SCHEDULE
    rows = comm.all_to_allv(np.full(schedule.heights[comm.rank], float(comm.rank)), schedule,
                            then)
    comm.isend((comm.rank + 1) % comm.p, rows)
    got = comm.recv((comm.rank - 1) % comm.p)
    return comm.all_reduce_sum(np.array([got.sum()]))[0], rows.tolist()


def test_runs_without_batch_policy_match(monkeypatch):
    plain = run_program(8, 1, _baton_program)

    def refuse(*args):
        raise PermissionError("scheduling policy not allowed")

    monkeypatch.setattr(distgcn.runtime.os, "sched_setscheduler", refuse, raising=False)
    refused = _bounded(lambda: run_program(8, 1, _baton_program))
    assert refused.results == plain.results
    assert _ledger_json(refused) == _ledger_json(plain)


@pytest.mark.skipif(not hasattr(os, "SCHED_BATCH"), reason="no SCHED_BATCH on this platform")
def test_rank_threads_run_under_batch_policy():
    caller = os.sched_getscheduler(0)
    run = _bounded(lambda: run_program(4, 1, lambda comm: os.sched_getscheduler(0)))
    assert run.results == [os.SCHED_BATCH] * 4
    assert os.sched_getscheduler(0) == caller


def test_every_rank_thread_ends_with_its_run():
    def stuck(comm):
        if comm.rank == 0:
            comm.recv(1, tag="never")
        comm.all_reduce_sum(np.ones(1))

    def failing(comm):
        if comm.rank == 2:
            raise RuntimeError("rank 2 fails")
        comm.all_reduce_sum(np.ones(1))

    before = threading.active_count()
    _bounded(lambda: run_program(8, 1, _baton_program))
    assert threading.active_count() == before
    with pytest.raises(DeadlockError):
        _bounded(lambda: run_program(8, 1, stuck))
    assert threading.active_count() == before
    with pytest.raises(RuntimeError, match="rank 2 fails"):
        _bounded(lambda: run_program(8, 1, failing))
    assert threading.active_count() == before


def test_deadlock_at_p64_names_every_rank():
    p = 64

    def program(comm):
        if comm.rank == 0:
            comm.recv(1, tag="never")
        else:
            comm.all_reduce_sum(np.ones(2))

    with pytest.raises(DeadlockError) as err:
        _bounded(lambda: run_program(p, 1, program))
    blocked = err.value.blocked
    assert sorted(blocked) == list(range(p))
    assert blocked[0] == ("recv", 1, 0, "never")
    assert {blocked[r][:2] for r in range(1, p)} == {("collective", "allreduce")}


def test_deadlock_at_p64_on_an_exchange_names_every_waiting_rank():
    # rank 0 returns without entering the exchange that ranks 1-63 enter,
    # so none of them can complete
    p = 64
    schedule, then = _packed(np.ones((p, p), dtype=np.int64))

    def program(comm):
        if comm.rank != 0:
            comm.all_to_allv(np.ones(p), schedule, then)

    with pytest.raises(DeadlockError) as err:
        _bounded(lambda: run_program(p, 1, program))
    blocked = err.value.blocked
    assert sorted(blocked) == list(range(1, p))
    assert {blocked[r][:2] for r in blocked} == {("collective", "alltoallv")}


def _reentry_program(comm, schedule, then):
    # row, column and world all-reduces back to back, then one exchange
    # twice in a row: the last arrival at each returns and enters the next
    # collective of its communicator while the other members are still
    # parked in the one it completed. Every payload depends on the call,
    # so arrivals credited to another call would change the bits.
    x = np.arange(3.0) + comm.rank
    outs = []
    for step in range(4):
        for group in (comm.row, comm.col, None):
            x = comm.all_reduce_sum(x * (step + 1) + comm.rank, group=group) / 7
            outs.append(x)
    for call in range(2):
        buf = np.arange(float(schedule.heights[comm.rank])) * (call + 1) - comm.rank
        outs.append(comm.all_to_allv(buf, schedule, then))
    return [out.tobytes() for out in outs]


def test_collectives_reentered_before_members_return_match_fifo(monkeypatch):
    # one open collective per communicator: a member may enter the next
    # one before the members of the last have returned, under any order of
    # the ready ranks
    p = 16
    counts = np.random.default_rng(4).integers(0, 3, size=(p, p))
    schedule, then = _packed(counts)

    def outputs():
        run = run_program(p, 4, _reentry_program, (schedule, then))
        return run.results, json.dumps(run.ledger.to_dict(), sort_keys=True)

    fifo = outputs()
    policies = [lambda ready, rng=np.random.default_rng(seed): int(rng.integers(len(ready)))
                for seed in range(10)]
    policies.append(lambda ready: max(range(len(ready)), key=ready.__getitem__))
    for pick in policies:
        monkeypatch.setattr(distgcn.runtime._Runtime, "pick", staticmethod(pick))
        assert outputs() == fifo


def test_recv_stays_parked_until_its_own_message_arrives():
    # rank 0 parks in recv(src=1, tag=0): a send from rank 2, or on tag 1,
    # leaves it parked, and it then receives every message in FIFO order
    waiting = ("recv", 1, 0, 0)

    def parked(rt):
        return rt.blocked.get(0) == waiting and 0 not in rt.ready

    def program(comm):
        rt = comm._rt
        if comm.rank == 0:
            return [comm.recv(1, 0), comm.recv(1, 0), comm.recv(1, 1), comm.recv(2, 0)]
        if comm.rank == 1:
            comm.isend(0, np.array([1.0]), tag=1)
            still = parked(rt)
            comm.recv(2)  # rank 2 sends before this rank's tag-0 sends
            comm.isend(0, np.array([2.0]))
            comm.isend(0, np.array([3.0]))
            return still
        comm.isend(0, np.array([4.0]))
        still = parked(rt)
        comm.isend(1, np.zeros(0))
        return still

    got, *still = run_program(3, 1, program).results
    assert still == [True, True]
    assert [m.tolist() for m in got] == [[2.0], [3.0], [1.0], [4.0]]


@pytest.mark.skipif(distgcn.runtime._openblas() is None,
                    reason="numpy bundles no OpenBLAS here")
def test_runs_use_one_blas_thread_and_restore_the_count():
    get, put = distgcn.runtime._openblas()
    saved = get()

    def failing(comm):
        if comm.rank == 2:
            raise RuntimeError("rank 2 fails")
        comm.all_reduce_sum(np.ones(1))

    try:
        put(2)
        before = get()
        assert run_program(4, 1, lambda comm: get()).results == [1] * 4
        assert get() == before
        with pytest.raises(RuntimeError, match="rank 2 fails"):
            run_program(4, 1, failing)
        assert get() == before
    finally:
        put(saved)


@pytest.mark.parametrize("error", [RuntimeError, SystemExit])
def test_error_at_p64_propagates_from_parked_collective(error):
    p = 64

    def program(comm):
        if comm.rank == p - 1:
            raise error("boom on the last rank")
        comm.all_reduce_sum(np.ones(2))

    with pytest.raises(error, match="boom on the last rank"):
        _bounded(lambda: run_program(p, 1, program))


class _OtherLibc:
    """A C library with a mallopt that records its calls, but not glibc."""

    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


class _Glibc(_OtherLibc):
    def gnu_get_libc_version(self):
        return b"2.36"


class _GlibcWithoutMallopt:
    def gnu_get_libc_version(self):
        return b"2.36"


@pytest.fixture
def unconfigured_heap(monkeypatch):
    """The process as if no run had configured its heap yet, in an
    environment that leaves the allocator alone."""
    monkeypatch.setattr(distgcn.runtime, "_heap_configured", False)
    for var in list(os.environ):
        if var.startswith("MALLOC_") or var == "GLIBC_TUNABLES":
            monkeypatch.delenv(var)
    return monkeypatch


def test_heap_configured_once_per_process(unconfigured_heap):
    libc = _Glibc()
    unconfigured_heap.setattr(distgcn.runtime, "_libc", lambda: libc)
    # M_ARENA_MAX, M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, as glibc numbers them
    once = [(-8, 1), (-3, 32 << 20), (-1, 64 << 20)]
    run_program(2, 1, lambda comm: comm.all_reduce_sum(np.ones(1)))
    assert libc.calls == once
    run_program(2, 1, lambda comm: None)
    distgcn.runtime._configure_heap()
    assert libc.calls == once


@pytest.mark.parametrize("var,value", [
    ("MALLOC_ARENA_MAX", "2"),
    ("MALLOC_TOP_PAD_", "0"),
    ("GLIBC_TUNABLES", "glibc.malloc.arena_max=2"),
])
def test_heap_left_alone_when_environment_configures_it(unconfigured_heap, var, value):
    libc = _Glibc()
    unconfigured_heap.setattr(distgcn.runtime, "_libc", lambda: libc)
    unconfigured_heap.setenv(var, value)
    run_program(2, 1, lambda comm: None)
    assert libc.calls == []


@pytest.mark.parametrize("libc", [_GlibcWithoutMallopt(), _OtherLibc(), None],
                         ids=["no-mallopt", "not-glibc", "no-libc"])
def test_heap_left_alone_without_glibc_mallopt(unconfigured_heap, libc):
    unconfigured_heap.setattr(distgcn.runtime, "_libc", lambda: libc)
    run = run_program(2, 1, lambda comm: comm.all_reduce_sum(np.ones(1))[0])
    assert run.results == [2.0, 2.0]
    assert getattr(libc, "calls", []) == []


_HEAP_PROBE = """
import numpy as np
from distgcn.runtime import run_program


def peak_kib():
    # VmHWM, the peak of this process's own memory: Linux carries
    # ru_maxrss across exec, so it would start at the parent's peak
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


def program(comm):
    for _ in range(3):
        block = np.ones(1 << 19)  # 4 MiB, every page touched
        del block
        comm.all_reduce_sum(np.zeros(1))


before = peak_kib()
run_program(16, 1, program)
print((peak_kib() - before) / 1024)
"""


def _peak_growth_mib(**allocator_env):
    """Growth of a fresh interpreter's peak RSS, in MiB, over a run in
    which 16 ranks each allocate, touch and free 4 MiB in turn."""
    src = str(Path(distgcn.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _HEAP_PROBE], capture_output=True,
                          text=True, env={**env, **allocator_env}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/status"),
                    reason="the one-heap rule is glibc's; the probe reads Linux's VmHWM")
def test_rank_threads_share_one_heap():
    # each rank reuses the block the rank before it freed
    assert _peak_growth_mib() < 16
    # the control: with the allocator configured from outside, every rank
    # thread gets an arena of its own and each keeps its freed block
    assert _peak_growth_mib(MALLOC_ARENA_MAX="16") > 40
