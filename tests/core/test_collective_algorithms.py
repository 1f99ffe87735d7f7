"""The pluggable collective-algorithm layer.

Contracts under test:

* the strategy registry resolves ``(op type, algorithm)`` pairs and the
  builders reject unknown algorithms at construction time;
* every registered allreduce schedule produces byte-identical values on
  both executor lanes and both frontends — algorithm choice only ever
  moves the simulated clock (the standalone half of that contract is
  ``tests/runtime/test_collective.py::test_entry_point_matches_kernel``);
* ``algorithm="auto"`` resolves per payload/world size at lowering time
  (tree for latency-bound small buffers, ring at bandwidth scale) and
  the decision lands in ``RunMetadata.collective_algorithms``;
* ``CollectiveReduceScatter`` lowers, times like its standalone
  schedule, and agrees with eager execution.
"""

import numpy as np
import pytest

import repro as tf
from repro import eager
from repro.apps.common import build_cluster, task_device
from repro.apps.sgd import run_sgd
from repro.apps.stencil import run_stencil
from repro.core.metadata import RunMetadata
from repro.core.session import admin_rpc_time
from repro.core.tensor import SymbolicValue
from repro.errors import InvalidArgumentError
from repro.runtime.collective import (
    get_strategy,
    registered_algorithms,
    run_collective,
    select_algorithm,
)
from repro.simnet.events import Environment
from repro.simnet.machines import tegner

MB = 1024 * 1024

_RNG = np.random.default_rng(21)


def make_cluster(world):
    handle = build_cluster("tegner-k420", {"worker": world})
    return handle.env, [handle.server("worker", w) for w in range(world)]


def worker_device(w):
    return task_device("worker", w, "cpu", 0)


def standalone_time(op_type, algorithm, world, nbytes):
    env = Environment()
    machine = tegner(env, k420_nodes=world)
    devices = [machine.node(n).cpu for n in sorted(machine.nodes)]
    values = [SymbolicValue((nbytes // 8,), "float64") for _ in range(world)]
    env.run(until=env.process(run_collective(
        op_type, devices, values, algorithm=algorithm)))
    return env.now


def ring_time(world, nbytes):
    return standalone_time("CollectiveAllReduce", "ring", world, nbytes)


def tree_time(world, nbytes):
    return standalone_time("CollectiveAllReduce", "tree", world, nbytes)


class TestStrategyRegistry:
    def test_registered_algorithms_per_op_type(self):
        assert registered_algorithms("CollectiveAllReduce") == ("ring", "tree")
        assert registered_algorithms("CollectiveReduceScatter") == ("ring",)
        assert registered_algorithms("CollectiveAllGather") == ("ring",)
        assert registered_algorithms("CollectiveBroadcast") == ("ring",)

    def test_unknown_strategy_raises_with_registered_list(self):
        with pytest.raises(InvalidArgumentError) as excinfo:
            get_strategy("CollectiveAllReduce", "butterfly")
        message = str(excinfo.value)
        assert "butterfly" in message and "ring" in message

    def test_builder_rejects_unknown_algorithm(self):
        g = tf.Graph()
        with g.as_default():
            a, b = tf.constant(np.ones(4)), tf.constant(np.ones(4))
            with pytest.raises(InvalidArgumentError):
                tf.all_reduce([a, b], algorithm="butterfly")
            with pytest.raises(InvalidArgumentError):
                # tree is only registered for allreduce
                tf.all_gather([a, b], algorithm="tree")


class TestAutoSelection:
    def test_small_payloads_pick_tree(self):
        assert select_algorithm("CollectiveAllReduce", 8, 4) == "tree"
        assert select_algorithm("CollectiveAllReduce", 8, 8) == "tree"

    def test_large_payloads_pick_ring(self):
        assert select_algorithm("CollectiveAllReduce", 8 * MB, 8) == "ring"
        assert select_algorithm("CollectiveAllReduce", 16 * MB, 4) == "ring"

    def test_unknown_payload_defaults_to_ring(self):
        assert select_algorithm("CollectiveAllReduce", None, 8) == "ring"

    def test_non_allreduce_ops_stay_ring(self):
        assert select_algorithm("CollectiveAllGather", 8, 8) == "ring"
        assert select_algorithm("CollectiveAllReduce", 8, 1) == "ring"

    def test_resolution_recorded_in_run_metadata(self):
        world = 4
        _, servers = make_cluster(world)
        g = tf.Graph()
        with g.as_default():
            scalars, buffers = [], []
            for w in range(world):
                with g.device(worker_device(w)):
                    scalars.append(tf.constant(np.float64(w), name=f"s{w}"))
                    buffers.append(tf.constant(np.ones(1 << 17), name=f"b{w}"))
            small = tf.all_reduce(scalars, name="small")
            big = tf.all_reduce(buffers, name="big")
            pinned = tf.all_reduce(scalars, algorithm="ring", name="pinned")
        sess = tf.Session(servers[0], graph=g)
        metadata = RunMetadata()
        sess.run([small[0], big[0], pinned[0]], run_metadata=metadata)
        assert metadata.collective_algorithms["small"] == "tree"
        assert metadata.collective_algorithms["big"] == "ring"  # 1 MB buffer
        assert metadata.collective_algorithms["pinned"] == "ring"


class TestTreeTiming:
    def test_tree_beats_ring_on_scalars_from_world_4(self):
        """The ROADMAP claim: the ring's 2(W-1) latency steps lose on
        scalars; the tree's ~log2(W) rounds win from 4 ranks up."""
        for world in (4, 8):
            ring = ring_time(world, 8)
            tree = tree_time(world, 8)
            assert tree < ring, (world, tree, ring)

    def test_ring_beats_tree_at_bandwidth_scale(self):
        ring = ring_time(8, 8 * MB)
        tree = tree_time(8, 8 * MB)
        assert ring < tree

    def test_tree_respects_lower_bound(self, wire_bound):
        for world, nbytes in ((4, MB), (8, 8 * MB)):
            env = Environment()
            machine = tegner(env, k420_nodes=world)
            bound = wire_bound("CollectiveAllReduce", "tree", world,
                               [nbytes] * world, machine.fabric.effective_rate)
            # log2 W full-buffer rounds: more wire time than the ring's.
            assert bound == pytest.approx(
                (world.bit_length() - 1) * nbytes
                / machine.fabric.effective_rate)
            assert tree_time(world, nbytes) >= bound

    def test_non_power_of_two_worlds_complete(self):
        for world in (2, 3, 5, 6):
            assert tree_time(world, 1024) > 0

    def test_graph_op_matches_standalone_tree_both_lanes(self):
        """The promotion contract extends to every algorithm: a lowered
        tree allreduce charges the standalone tree schedule's time."""
        world, nbytes = 4, 64 * 1024
        expected = tree_time(world, nbytes)
        for fast_path in (True, False):
            env, servers = make_cluster(world)
            g = tf.Graph()
            with g.as_default():
                phs = []
                for w in range(world):
                    with g.device(worker_device(w)):
                        phs.append(tf.placeholder(
                            tf.float64, shape=[nbytes // 8], name=f"x{w}"))
                outs = tf.all_reduce(phs, algorithm="tree")
            sess = tf.Session(servers[0], graph=g, config=tf.SessionConfig(
                shape_only=True, executor_fast_path=fast_path))
            feeds = {ph: SymbolicValue((nbytes // 8,), "float64")
                     for ph in phs}
            start = env.now
            sess.run([outs[0].op], feed_dict=feeds)
            elapsed = env.now - start - admin_rpc_time(remote_tasks=True)
            assert elapsed == pytest.approx(expected, rel=1e-9)


class TestReduceScatter:
    def test_session_matches_eager_and_blocks_of_sum(self):
        world = 3
        addends = [_RNG.standard_normal((6, 2)) for _ in range(world)]
        _, servers = make_cluster(world)
        g = tf.Graph()
        with g.as_default():
            inputs = []
            for w, addend in enumerate(addends):
                with g.device(worker_device(w)):
                    inputs.append(tf.constant(addend, name=f"x{w}"))
            outs = tf.reduce_scatter(inputs)
        session_values = tf.Session(servers[0], graph=g).run(outs)

        ctx = eager.EagerContext()
        eager_values = ctx.reduce_scatter(list(addends))

        total = np.zeros((6, 2))
        for addend in addends:
            total = total + addend
        for values in (session_values, eager_values):
            assert len(values) == world
            for rank, value in enumerate(values):
                expected = total[rank * 2:(rank + 1) * 2]
                assert np.asarray(value).tobytes() == expected.tobytes()

    def test_output_shape_is_per_rank_block(self):
        g = tf.Graph()
        with g.as_default():
            outs = tf.reduce_scatter(
                [tf.constant(np.ones((8, 3))) for _ in range(4)])
        for out in outs:
            assert out.shape.as_tuple() == (2, 3)

    def test_graph_op_matches_standalone_generator(self):
        world, nbytes = 4, 16 * MB
        expected = standalone_time(
            "CollectiveReduceScatter", "ring", world, nbytes)
        allreduce = ring_time(world, nbytes)
        assert expected < allreduce  # half the ring's traffic
        env, servers = make_cluster(world)
        g = tf.Graph()
        with g.as_default():
            phs = []
            for w in range(world):
                with g.device(worker_device(w)):
                    phs.append(tf.placeholder(
                        tf.float64, shape=[nbytes // 8], name=f"x{w}"))
            outs = tf.reduce_scatter(phs)
        sess = tf.Session(servers[0], graph=g,
                          config=tf.SessionConfig(shape_only=True))
        feeds = {ph: SymbolicValue((nbytes // 8,), "float64") for ph in phs}
        start = env.now
        sess.run([outs[0].op], feed_dict=feeds)
        elapsed = env.now - start - admin_rpc_time(remote_tasks=True)
        assert elapsed == pytest.approx(expected, rel=1e-12)

    def test_world_one_keeps_full_buffer(self):
        g = tf.Graph()
        with g.as_default():
            (out,) = tf.reduce_scatter([tf.constant(np.arange(4.0))])
        with tf.Session(graph=g) as sess:
            np.testing.assert_array_equal(sess.run(out), np.arange(4.0))

    def test_scalar_inputs_rejected(self):
        g = tf.Graph()
        with g.as_default():
            with pytest.raises(InvalidArgumentError):
                tf.reduce_scatter([tf.constant(1.0), tf.constant(2.0)])

    def test_indivisible_leading_dim_rejected_at_build(self):
        g = tf.Graph()
        with g.as_default():
            with pytest.raises(InvalidArgumentError):
                tf.reduce_scatter(
                    [tf.constant(np.ones(5)), tf.constant(np.ones(5))])

    def test_runtime_divisibility_check_for_unknown_shapes(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.placeholder(tf.float64, shape=None, name="a")
            b = tf.placeholder(tf.float64, shape=None, name="b")
            outs = tf.reduce_scatter([a, b])
        with tf.Session(graph=g) as sess:
            with pytest.raises(InvalidArgumentError):
                sess.run(outs, feed_dict={a: np.ones(5), b: np.ones(5)})


SGD_SMALL = dict(d=16, num_workers=4, rows_per_worker=6, steps=3,
                 learning_rate=0.005)


class TestAlgorithmByteIdentity:
    """Every strategy x both executor lanes x both frontends: one
    trajectory, byte for byte — on the training and stencil workloads."""

    def test_sgd_sweep(self):
        baseline = None
        for algorithm in registered_algorithms("CollectiveAllReduce"):
            for optimize in (True, False):  # fast path vs legacy lane
                for frontend in ("session", "function"):
                    result = run_sgd(mode="collective", frontend=frontend,
                                     optimize=optimize, algorithm=algorithm,
                                     **SGD_SMALL)
                    assert result.validated, (algorithm, optimize, frontend)
                    key = [w.tobytes() for w in result.trajectory]
                    if baseline is None:
                        baseline = key
                    assert key == baseline, (algorithm, optimize, frontend)

    def test_stencil_sweep(self):
        config = dict(n=24, num_workers=2, iterations=4, check_every=2)
        baseline = None
        for algorithm in registered_algorithms("CollectiveAllReduce"):
            for optimize in (True, False):
                result = run_stencil(mode="collective", optimize=optimize,
                                     algorithm=algorithm, **config)
                assert result.validated, (algorithm, optimize)
                key = (
                    [r for r in result.residual_history],
                    result.solution.tobytes(),
                )
                if baseline is None:
                    baseline = key
                assert key == baseline, (algorithm, optimize)

    def test_tree_faster_than_ring_on_scalar_sgd_sync(self):
        """The auto rule's premise, end to end: with tiny gradients the
        tree schedule finishes the training loop sooner."""
        config = dict(d=4, num_workers=4, rows_per_worker=4, steps=2,
                      mode="collective")
        ring = run_sgd(algorithm="ring", **config)
        tree = run_sgd(algorithm="tree", **config)
        assert tree.elapsed < ring.elapsed
        assert [w.tobytes() for w in tree.trajectory] == \
            [w.tobytes() for w in ring.trajectory]
