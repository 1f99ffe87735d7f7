"""Collectives: one value function per op type, schedules as round lists.

Everything timed here drives the single entry point
:func:`repro.runtime.collective.run_collective` — what the lowered graph
op's rank rendezvous drives too. The chunk proof replays every
registered schedule's rounds over symbolic chunk ownership and checks
that they compute their op.
"""

import dataclasses
import inspect
from collections import Counter

import numpy as np
import pytest

import repro as tf
from repro import eager
from repro.core.tensor import SymbolicValue, value_nbytes
from repro.errors import InvalidArgumentError
from repro.core.ops.collective_ops import COLLECTIVE_OP_TYPES
from repro.runtime import collective
from repro.runtime.collective import (
    Round,
    get_strategy,
    registered_algorithms,
    run_collective,
    select_algorithm,
)
from repro.simnet import transports
from repro.simnet.events import AllOf, Environment
from repro.simnet.machines import tegner

MB = 1024 * 1024

ALLREDUCE = "CollectiveAllReduce"
REDUCE_SCATTER = "CollectiveReduceScatter"
ALLGATHER = "CollectiveAllGather"
BROADCAST = "CollectiveBroadcast"

# Every registered (op type, algorithm) pair.
STRATEGIES = sorted(
    (op_type, algorithm)
    for op_type in COLLECTIVE_OP_TYPES
    for algorithm in registered_algorithms(op_type)
)


def make_ring(num_nodes):
    env = Environment()
    machine = tegner(env, k420_nodes=num_nodes)
    devices = [machine.node(name).cpu for name in sorted(machine.nodes)]
    return env, devices


def run(env, op_type, devices, values, algorithm="ring", protocol="rdma"):
    """Drive the entry point to completion: (per-rank results, sim time)."""
    results = env.run(until=env.process(
        run_collective(op_type, devices, values, protocol, algorithm)))
    return results, env.now


def run_allreduce(env, devices, values, algorithm="ring"):
    return run(env, ALLREDUCE, devices, values, algorithm)


def payload(op_type, world, nbytes):
    """Symbolic per-rank inputs moving ``nbytes`` (float64) per rank; for
    a reduce-scatter ``nbytes`` is the block each rank *keeps*."""
    if op_type == BROADCAST:
        return [SymbolicValue((nbytes // 8,), "float64")]
    shape = (world, nbytes // 8) if op_type == REDUCE_SCATTER else (nbytes // 8,)
    return [SymbolicValue(shape, "float64") for _ in range(world)]


class TestCorrectness:
    def test_sum_across_ranks(self):
        env, devices = make_ring(4)
        values = [np.full(8, float(i + 1)) for i in range(4)]
        result, _ = run_allreduce(env, devices, values)
        for rank_value in result:
            np.testing.assert_allclose(rank_value, np.full(8, 10.0))

    def test_every_rank_gets_own_copy(self):
        env, devices = make_ring(2)
        values = [np.ones(4), np.ones(4)]
        result, _ = run_allreduce(env, devices, values)
        result[0][0] = 99.0
        assert result[1][0] == 2.0  # independent buffers

    def test_single_rank_is_identity(self):
        env, devices = make_ring(1)
        values = [np.arange(4.0)]
        result, elapsed = run_allreduce(env, devices, values)
        np.testing.assert_allclose(result[0], values[0])
        assert elapsed == 0.0

    def test_symbolic_values(self):
        env, devices = make_ring(3)
        values = [SymbolicValue((1024,), "float64") for _ in range(3)]
        result, elapsed = run_allreduce(env, devices, values)
        assert all(isinstance(v, SymbolicValue) for v in result)
        assert elapsed > 0

    def test_symbolic_results_are_distinct_per_rank(self):
        """Regression: the symbolic path returned ``[specs[0]] * world`` —
        every rank aliased rank 0's *input* spec object instead of holding
        its own freshly reduced buffer."""
        env, devices = make_ring(3)
        values = [SymbolicValue((256,), "float32") for _ in range(3)]
        result, _ = run_allreduce(env, devices, values)
        assert len({id(v) for v in result}) == 3  # one buffer per rank
        for rank_value in result:
            assert all(rank_value is not v for v in values)
            assert rank_value.shape == (256,)
            assert rank_value.dtype.name == "float32"

    def test_world_one_generator_under_env_process(self):
        """Regression: world == 1 returns before the first yield; driving
        the generator directly as a simulator process must still deliver
        the result through StopIteration."""
        env, devices = make_ring(1)
        proc = env.process(
            run_collective(ALLREDUCE, devices, [np.arange(4.0)]))
        result = env.run(until=proc)
        np.testing.assert_allclose(result[0], np.arange(4.0))
        assert env.now == 0.0

    def test_mismatched_shapes_rejected(self):
        env, devices = make_ring(2)
        with pytest.raises(InvalidArgumentError, match="rank 1 buffers"):
            run_allreduce(env, devices, [np.ones(4), np.ones(5)])

    def test_mismatched_dtypes_rejected(self):
        env, devices = make_ring(2)
        with pytest.raises(InvalidArgumentError):
            run_allreduce(env, devices, [
                np.ones(4, np.float32), np.ones(4, np.float64),
            ])

    def test_device_value_count_mismatch(self):
        env, devices = make_ring(2)
        with pytest.raises(InvalidArgumentError):
            run_allreduce(env, devices, [np.ones(4)])

    def test_unknown_algorithm_rejected(self):
        env, devices = make_ring(2)
        with pytest.raises(InvalidArgumentError, match="butterfly"):
            run_allreduce(env, devices, [np.ones(4)] * 2, "butterfly")


# A concrete, valid 3-rank input per op type (builder name, per-rank args).
_CONCRETE = {
    ALLREDUCE: ("all_reduce",
                [np.arange(6.0) * (r + 1) / 7 for r in range(3)]),
    REDUCE_SCATTER: ("reduce_scatter",
                     [np.arange(12.0).reshape(6, 2) / (r + 3)
                      for r in range(3)]),
    ALLGATHER: ("all_gather",
                [np.full((r + 1, 2), r + 0.5) for r in range(3)]),
    BROADCAST: ("broadcast", np.arange(5.0) / 3),
}


@pytest.mark.parametrize("op_type,algorithm", STRATEGIES)
def test_entry_point_matches_kernel(op_type, algorithm):
    """One definition of what a collective computes: every registered
    (op type, algorithm) returns, through the entry point, exactly the
    bytes the op's kernel produces eagerly."""
    builder, args = _CONCRETE[op_type]
    ctx = eager.EagerContext()
    if op_type == BROADCAST:
        kernel_values = ctx.broadcast(args, world=3)
        values = [args]
    else:
        kernel_values = getattr(ctx, builder)(list(args))
        values = list(args)
    env, devices = make_ring(3)
    results, elapsed = run(env, op_type, devices, values, algorithm)
    assert elapsed > 0
    assert len(results) == len(kernel_values) == 3
    for got, want in zip(results, kernel_values):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestTiming:
    def test_time_tracks_ring_bound(self, wire_bound):
        """Measured time stays within a small factor of the wire-time
        bound (for the ring, the textbook ``2 (W-1)/W * nbytes / rate``).
        The gap is structural: each node's HCA is modelled as one
        fair-share pipe, so the simultaneous send+receive of every ring
        step halves the per-flow rate (2x), and the reduce-scatter adds
        charge host time on top."""
        env, devices = make_ring(4)
        nbytes = 64 * MB
        _, elapsed = run_allreduce(env, devices, payload(ALLREDUCE, 4, nbytes))
        link = devices[0].node.machine.fabric.effective_rate
        bound = wire_bound(ALLREDUCE, "ring", 4, [nbytes] * 4, link)
        assert bound == pytest.approx(2.0 * 3 / 4 * nbytes / link)
        assert bound <= elapsed < 4.0 * bound

    def test_per_rank_bytes_independent_of_world_size(self):
        """Ring property: time grows only mildly with rank count."""
        times = {}
        for world in (2, 4, 8):
            env, devices = make_ring(world)
            _, times[world] = run_allreduce(
                env, devices, payload(ALLREDUCE, world, 8 * MB))
        # 2(W-1)/W in {1.0, 1.5, 1.75}: under 2x from W=2 to W=8.
        assert times[8] < 2.0 * times[2]

    def test_beats_central_reducer_at_scale(self):
        """The Horovod argument: for large vectors and many ranks the ring
        outperforms pushing everything through one reducer node."""
        world = 8
        nbytes = 32 * MB
        env, devices = make_ring(world)
        _, ring_time = run_allreduce(
            env, devices, payload(ALLREDUCE, world, nbytes))

        # Central reducer: all ranks send to rank 0, rank 0 broadcasts.
        env2, devices2 = make_ring(world)

        def central():
            inbound = [
                env2.process(transports.transfer(devices2[r], devices2[0],
                                                 nbytes, "rdma"))
                for r in range(1, world)
            ]
            yield AllOf(env2, inbound)
            outbound = [
                env2.process(transports.transfer(devices2[0], devices2[r],
                                                 nbytes, "rdma"))
                for r in range(1, world)
            ]
            yield AllOf(env2, outbound)

        env2.run(until=env2.process(central()))
        central_time = env2.now
        assert ring_time < central_time / 2

    def test_slowest_rank_gates_reduce_scatter_adds(self):
        """Regression: the reduce-scatter add was charged at rank 0's
        NumPy rate for everyone; on a heterogeneous ring the slowest rank
        gates every step."""
        world = 4
        nbytes = 8 * MB

        def measure(slowdown):
            env, devices = make_ring(world)
            if slowdown != 1.0:
                model = devices[-1].model
                devices[-1].model = dataclasses.replace(
                    model, numpy_bytes_rate=model.numpy_bytes_rate / slowdown
                )
            _, elapsed = run_allreduce(
                env, devices, payload(ALLREDUCE, world, nbytes))
            return elapsed, devices[0].model.numpy_bytes_rate

        uniform, fast_rate = measure(1.0)
        skewed, _ = measure(8.0)
        chunk = -(-nbytes // world)
        # (world - 1) reduce-scatter steps each slow down by the rate gap.
        expected_gap = (world - 1) * chunk * (8.0 - 1.0) / fast_rate
        assert skewed - uniform == pytest.approx(expected_gap, rel=1e-9)


class TestAllGather:
    def test_every_rank_gets_concatenation(self):
        env, devices = make_ring(3)
        values = [np.full((2, 3), float(r)) for r in range(3)]
        result, elapsed = run(env, ALLGATHER, devices, values)
        expected = np.concatenate(values, axis=0)
        assert elapsed > 0
        for rank_value in result:
            np.testing.assert_array_equal(rank_value, expected)
        result[0][0, 0] = 99.0
        assert result[1][0, 0] == 0.0  # independent buffers

    def test_symbolic_shapes_and_uneven_blocks(self):
        env, devices = make_ring(2)
        values = [SymbolicValue((4, 8), "float64"),
                  SymbolicValue((6, 8), "float64")]
        result, _ = run(env, ALLGATHER, devices, values)
        assert [v.shape for v in result] == [(10, 8)] * 2
        assert len({id(v) for v in result}) == 2

    def test_trailing_dims_must_agree(self):
        env, devices = make_ring(2)
        with pytest.raises(InvalidArgumentError, match="rank 1 disagrees"):
            run(env, ALLGATHER, devices, [np.ones((2, 3)), np.ones((2, 4))])

    def test_scalars_rejected(self):
        env, devices = make_ring(2)
        with pytest.raises(InvalidArgumentError, match="rank 0 is a scalar"):
            run(env, ALLGATHER, devices, [np.float64(1.0), np.float64(2.0)])


class TestBroadcast:
    def test_all_ranks_receive_root_value(self):
        """The root is ``devices[0]``; rotating the list moves it."""
        env, devices = make_ring(4)
        value = np.arange(8.0)
        result, elapsed = run(
            env, BROADCAST, devices[1:] + devices[:1], [value])
        assert elapsed > 0
        for rank_value in result:
            np.testing.assert_array_equal(rank_value, value)
        result[0][0] = 99.0
        assert result[2][0] == 0.0

    def test_pipelining_beats_sequential_root_sends(self):
        """For large buffers the pipelined ring approaches one buffer
        traversal instead of the root serializing W - 1 full sends."""
        world = 8
        nbytes = 32 * MB
        env, devices = make_ring(world)
        _, elapsed = run(
            env, BROADCAST, devices, payload(BROADCAST, world, nbytes))
        link = devices[0].node.machine.fabric.effective_rate
        # Root-serialized lower bound: (W-1) buffers through one NIC.
        assert elapsed < (world - 1) * nbytes / link

    def test_one_value_per_rank_rejected(self):
        env, devices = make_ring(2)
        with pytest.raises(InvalidArgumentError, match="one value"):
            run(env, BROADCAST, devices, [np.ones(2), np.ones(2)])


class TestStrategyContract:
    """A strategy is a pure function of (world, nbytes per rank) that
    returns its rounds: it never sees a value, a device or a protocol."""

    @pytest.mark.parametrize("op_type,algorithm", STRATEGIES)
    def test_pure_round_list_in_range(self, op_type, algorithm):
        strategy = get_strategy(op_type, algorithm)
        assert list(inspect.signature(strategy).parameters) == [
            "world", "nbytes_per_rank"]
        assert strategy(1, [4096]) == []
        for world in range(2, 17):
            # Uneven sizes: an allgather's blocks may differ per rank.
            nbytes = [4096 + 8 * rank for rank in range(world)]
            rounds = strategy(world, nbytes)
            assert rounds and rounds == strategy(world, nbytes)
            for round_ in rounds:
                assert isinstance(round_, Round) and round_.sends
                for src, dst, chunk, size in round_.sends:
                    assert src != dst, (world, round_)
                    assert 0 <= src < world and 0 <= dst < world
                    assert 0 <= chunk < world and size >= 0


@pytest.mark.parametrize("op_type,algorithm", STRATEGIES)
@pytest.mark.parametrize("world", (2, 3, 4, 5, 8))
def test_no_run_beats_the_wire_time_of_its_rounds(
        op_type, algorithm, world, wire_bound):
    for nbytes in (4096, 8 * MB):
        env, devices = make_ring(world)
        values = payload(op_type, world, nbytes)
        _, elapsed = run(env, op_type, devices, values, algorithm)
        bound = wire_bound(op_type, algorithm, world,
                           [value_nbytes(v) for v in values],
                           devices[0].node.machine.fabric.effective_rate)
        assert 0 < bound <= elapsed, (nbytes, bound, elapsed)


# ---------------------------------------------------------------------------
# the chunk proof: a schedule's rounds compute its op
# ---------------------------------------------------------------------------


def replay(op_type, world, rounds):
    """Symbolic chunk ownership after ``rounds``.

    ``held[rank][chunk]`` is the multiset of ranks whose contribution
    that rank's copy of the chunk holds. Sends read the state from before
    their round; a receive adds (multiset sum) in a round with a local
    step and replaces the chunk in a round without one.
    """
    if op_type in (REDUCE_SCATTER, ALLGATHER):
        chunks = world  # one axis-0 block per rank
    else:
        chunks = 1 + max((send[2] for r in rounds for send in r.sends),
                         default=0)

    def initial(rank, chunk):
        if op_type == ALLGATHER:
            return Counter([rank] if chunk == rank else [])
        if op_type == BROADCAST:
            return Counter([0] if rank == 0 else [])
        return Counter([rank])

    held = [[initial(rank, chunk) for chunk in range(chunks)]
            for rank in range(world)]
    for round_ in rounds:
        before = [row[:] for row in held]  # Counters are never mutated
        for src, dst, chunk, _nbytes in round_.sends:
            if round_.local_bytes is None:
                held[dst][chunk] = before[src][chunk]
            else:
                held[dst][chunk] = held[dst][chunk] + before[src][chunk]
    return held


def prove(op_type, algorithm, world):
    """Assert that the registered schedule computes ``op_type``:

    * allreduce: every rank holds every chunk, each rank counted once
    * reduce-scatter: rank ``r`` holds chunk ``r``'s full sum
    * allgather: every rank holds every rank's block
    * broadcast: every rank holds every chunk of the root's buffer
    """
    rounds = get_strategy(op_type, algorithm)(world, [4096] * world)
    everyone = Counter(range(world))
    for rank, chunks in enumerate(replay(op_type, world, rounds)):
        for chunk, owners in enumerate(chunks):
            if op_type == REDUCE_SCATTER and chunk != rank:
                continue
            want = {ALLGATHER: Counter([chunk]),
                    BROADCAST: Counter([0])}.get(op_type, everyone)
            assert owners == want, (world, rank, chunk, owners)


@pytest.mark.parametrize("op_type,algorithm", STRATEGIES)
def test_chunk_proof(op_type, algorithm):
    for world in range(1, 17):
        prove(op_type, algorithm, world)


def test_chunk_proof_catches_a_dropped_send(monkeypatch):
    ring = get_strategy(REDUCE_SCATTER, "ring")

    def dropped(world, nbytes_per_rank):
        rounds = ring(world, nbytes_per_rank)
        rounds[1] = rounds[1]._replace(sends=rounds[1].sends[1:])
        return rounds

    monkeypatch.setitem(
        collective._STRATEGIES, (REDUCE_SCATTER, "ring"), dropped)
    with pytest.raises(AssertionError):
        prove(REDUCE_SCATTER, "ring", 4)


def test_chunk_proof_catches_a_double_count(monkeypatch):
    tree = get_strategy(ALLREDUCE, "tree")

    def doubled(world, nbytes_per_rank):
        rounds = tree(world, nbytes_per_rank)
        exchange = rounds[0]  # power-of-two world: no fold-in round
        assert exchange.local_bytes is not None
        rounds[0] = exchange._replace(
            sends=exchange.sends + exchange.sends[:1])
        return rounds

    monkeypatch.setitem(collective._STRATEGIES, (ALLREDUCE, "tree"), doubled)
    with pytest.raises(AssertionError):
        prove(ALLREDUCE, "tree", 8)


def _star_allreduce(world, nbytes_per_rank):
    """Every rank sends its buffer to rank 0, which adds; rank 0 then
    sends the sum back to every rank."""
    if world < 2:
        return []
    nbytes = nbytes_per_rank[0]
    return [
        Round([(rank, 0, 0, nbytes) for rank in range(1, world)], nbytes),
        Round([(0, rank, 0, nbytes) for rank in range(1, world)]),
    ]


def test_adding_a_schedule_is_one_function(monkeypatch):
    """Registered and nothing else: the chunk proof, the driver, ``auto``
    and the builders' ``algorithm=`` check all read the registry."""
    monkeypatch.setitem(
        collective._STRATEGIES, (ALLREDUCE, "star"), _star_allreduce)
    for world in range(1, 17):
        prove(ALLREDUCE, "star", world)

    values = [np.arange(4.0) * (rank + 1) for rank in range(3)]
    env, devices = make_ring(3)
    results, elapsed = run(env, ALLREDUCE, devices, values, "star")
    assert elapsed > 0
    for got in results:
        np.testing.assert_array_equal(got, np.arange(4.0) * 6)

    # Priced off its rounds: two beat the tree's three on a latency-bound
    # buffer; at bandwidth scale the ring's 1/W chunks still win.
    assert select_algorithm(ALLREDUCE, 8, 8) == "star"
    assert select_algorithm(ALLREDUCE, 8 * MB, 8) == "ring"

    g = tf.Graph()
    with g.as_default():
        outs = tf.all_reduce([tf.constant(v) for v in values],
                             algorithm="star")
    with tf.Session(graph=g) as sess:
        for got in sess.run(outs):
            np.testing.assert_array_equal(got, np.arange(4.0) * 6)


# float.hex of the standalone simulated time of every registered
# (op type, algorithm) on tegner-k420, captured at commit 40886e5 — the
# last one whose schedules still carried the values — for
# world x payload (8 B, 4 KB, 8 MB per rank; see ``payload``). World 1 is
# 0.0 everywhere. The clock-only schedules must reproduce it bit for bit.
GOLDEN_PAYLOADS = (8, 4096, 8 * MB)
GOLDEN = {
    ("CollectiveAllGather", "ring"): {
        2: ("0x1.f7b6764032bbfp-18", "0x1.6119ed4b8e3fdp-17",
            "0x1.96437fc4caa6cp-8"),
        3: ("0x1.f7a548344a951p-17", "0x1.4febe16367694p-16",
            "0x1.518b50242f4c7p-7"),
        4: ("0x1.79b7aaa43de62p-16", "0x1.ef4acc2107b29p-16",
            "0x1.d7f4e065f9458p-7"),
        5: ("0x1.f79cb12e5681bp-16", "0x1.4754db6f53fdfp-15",
            "0x1.2f2f3853e19f4p-6"),
        8: ("0x1.b8a5e266502a3p-15", "0x1.1b319dc5e2360p-14",
            "0x1.f8cd90b69094ep-6"),
    },
    ("CollectiveAllReduce", "ring"): {
        2: ("0x1.f769f878e60f0p-17", "0x1.149c25fee153bp-16",
            "0x1.91318a485bd88p-9"),
        3: ("0x1.f763bb900100ep-16", "0x1.0c4d03c5c58afp-15",
            "0x1.0c1e23f0d1f80p-8"),
        4: ("0x1.79861efd54f61p-15", "0x1.8c337e4f27af2p-15",
            "0x1.2e5ea479e4dfcp-8"),
        5: ("0x1.f75d7ea71bf2cp-15", "0x1.05a60f6981811p-14",
            "0x1.43506e706a2d1p-8"),
        8: ("0x1.b86c598670080p-14", "0x1.c3517bcb8049dp-14",
            "0x1.64348dac00543p-8"),
    },
    ("CollectiveAllReduce", "tree"): {
        2: ("0x1.f7941a28626e4p-18", "0x1.3ebdd57b4092bp-17",
            "0x1.0cd3208393f22p-8"),
        3: ("0x1.799e4e4985accp-16", "0x1.bc9216b095085p-16",
            "0x1.0d120aa42e9c6p-7"),
        4: ("0x1.f7941a28626e3p-17", "0x1.3ebdd57b4092bp-16",
            "0x1.0cd3208393f22p-7"),
        5: ("0x1.f78354d39e485p-16", "0x1.2df880b71aa8ep-15",
            "0x1.937b9ae5f8957p-7"),
        8: ("0x1.79af139e49d2bp-16", "0x1.de1cc038e0dc0p-16",
            "0x1.933cb0c55deb3p-7"),
    },
    ("CollectiveBroadcast", "ring"): {
        2: ("0x1.f759332421e91p-17", "0x1.03d6d13abb69ep-16",
            "0x1.09b87c0bfa75bp-10"),
        3: ("0x1.f75a38edfbeb5p-16", "0x1.03d7d704956c3p-15",
            "0x1.09b87e178e29cp-9"),
        4: ("0x1.7981e0913f6c7p-15", "0x1.83b6a624147f1p-15",
            "0x1.4d22439163bc0p-9"),
        5: ("0x1.f7582d5a47e6bp-15", "0x1.0163f4e3b3e0ap-14",
            "0x1.765e47d095cbdp-9"),
        8: ("0x1.b86a370aac234p-14", "0x1.bf0c8443b6a2dp-14",
            "0x1.b72b396596f23p-9"),
    },
    ("CollectiveReduceScatter", "ring"): {
        2: ("0x1.f7941a28626e4p-18", "0x1.3ebdd57b4092bp-17",
            "0x1.0cd3208393f22p-8"),
        3: ("0x1.f7941a28626e3p-17", "0x1.3ebdd57b4092bp-16",
            "0x1.0cd3208393f22p-7"),
        4: ("0x1.79af139e49d2bp-16", "0x1.de1cc038e0dc0p-16",
            "0x1.933cb0c55deb3p-7"),
        5: ("0x1.f7941a28626e4p-16", "0x1.3ebdd57b4092bp-15",
            "0x1.0cd3208393f22p-6"),
        8: ("0x1.b8a196e356206p-15", "0x1.16e61acbd8806p-14",
            "0x1.d67178e642e7dp-6"),
    },
}


def test_golden_table_covers_the_registry():
    assert sorted(GOLDEN) == STRATEGIES


@pytest.mark.parametrize("op_type,algorithm", sorted(GOLDEN))
@pytest.mark.parametrize("world", (1, 2, 3, 4, 5, 8))
def test_simulated_time_matches_golden(op_type, algorithm, world):
    for column, nbytes in enumerate(GOLDEN_PAYLOADS):
        env, devices = make_ring(world)
        _, elapsed = run(env, op_type, devices,
                         payload(op_type, world, nbytes), algorithm)
        expected = (0.0).hex() if world == 1 else \
            GOLDEN[(op_type, algorithm)][world][column]
        assert float(elapsed).hex() == expected, (world, nbytes)
