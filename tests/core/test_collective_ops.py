"""Graph-level collectives: one op, three frontends, ring-exact timing.

The promotion contract: ``CollectiveAllReduce`` (and friends) produce
byte-identical values whether run through a raw Session, a traced
``@repro.function``, or eagerly — and under a Session the lowered ring
legs charge exactly the standalone ring generator's simulated time.
"""

import numpy as np
import pytest

import repro as tf
from repro import eager
from repro.apps.common import build_cluster, task_device
from repro.core.kernels.registry import KernelContext, ResourceManager
from repro.core.metadata import RunMetadata
from repro.core.session import admin_rpc_time
from repro.core.tensor import SymbolicValue
from repro.errors import InvalidArgumentError
from repro.runtime.collective import (
    allreduce_time_lower_bound,
    run_collective,
)
from repro.simnet.events import Environment
from repro.simnet.machines import tegner

MB = 1024 * 1024

_RNG = np.random.default_rng(7)
_ADDENDS = [_RNG.standard_normal(16) for _ in range(4)]


def make_cluster(world):
    handle = build_cluster("tegner-k420", {"worker": world})
    servers = [handle.server("worker", w) for w in range(world)]
    return handle.env, handle.machine, servers


def worker_device(w):
    return task_device("worker", w, "cpu", 0)


class TestFrontendParity:
    def _session_values(self, config=None):
        world = len(_ADDENDS)
        _, _, servers = make_cluster(world)
        g = tf.Graph()
        with g.as_default():
            inputs = []
            for w, addend in enumerate(_ADDENDS):
                with g.device(worker_device(w)):
                    inputs.append(tf.constant(addend, name=f"x{w}"))
            outs = tf.all_reduce(inputs)
        sess = tf.Session(servers[0], graph=g, config=config)
        return sess.run(outs)

    def test_session_function_eager_byte_identical(self):
        session_values = self._session_values()

        @tf.function
        def reduce_fn(a, b, c, d):
            return tf.all_reduce([a, b, c, d])

        function_values = reduce_fn(*_ADDENDS)

        ctx = eager.EagerContext()
        eager_values = ctx.all_reduce(list(_ADDENDS))

        expected = np.zeros(16)
        for addend in _ADDENDS:
            expected = expected + addend
        for values in (session_values, function_values, eager_values):
            assert len(values) == len(_ADDENDS)
            for rank_value in values:
                assert np.asarray(rank_value).tobytes() == expected.tobytes()

    def test_legacy_executor_lane_matches(self):
        fast = self._session_values()
        legacy = self._session_values(
            tf.SessionConfig(executor_fast_path=False,
                             graph_optimization=False)
        )
        for a, b in zip(fast, legacy):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_all_gather_parity(self):
        blocks = [_RNG.standard_normal((2, 3)) for _ in range(3)]
        _, _, servers = make_cluster(3)
        g = tf.Graph()
        with g.as_default():
            inputs = []
            for w, block in enumerate(blocks):
                with g.device(worker_device(w)):
                    inputs.append(tf.constant(block, name=f"b{w}"))
            outs = tf.all_gather(inputs)
        session_values = tf.Session(servers[0], graph=g).run(outs)

        ctx = eager.EagerContext()
        eager_values = ctx.all_gather(list(blocks))
        expected = np.concatenate(blocks, axis=0)
        for values in (session_values, eager_values):
            for rank_value in values:
                assert np.asarray(rank_value).tobytes() == expected.tobytes()

    def test_broadcast_parity(self):
        payload = _RNG.standard_normal(8)
        world = 3
        _, _, servers = make_cluster(world)
        g = tf.Graph()
        with g.as_default():
            with g.device(worker_device(0)):
                root = tf.constant(payload, name="root")
            outs = tf.broadcast(
                root, devices=[worker_device(w) for w in range(world)]
            )
        session_values = tf.Session(servers[0], graph=g).run(outs)

        ctx = eager.EagerContext()
        eager_values = ctx.broadcast(payload, world=world)
        for values in (session_values, eager_values):
            for rank_value in values:
                assert np.asarray(rank_value).tobytes() == payload.tobytes()


class TestRingTiming:
    def _standalone_time(self, world, nbytes):
        env = Environment()
        machine = tegner(env, k420_nodes=world)
        devices = [machine.node(n).cpu for n in sorted(machine.nodes)]
        values = [SymbolicValue((nbytes // 8,), "float64")
                  for _ in range(world)]
        env.run(until=env.process(
            run_collective("CollectiveAllReduce", devices, values)))
        return env.now

    def _graph_op_time(self, world, nbytes, fast_path=True):
        env, _, servers = make_cluster(world)
        g = tf.Graph()
        with g.as_default():
            phs = []
            for w in range(world):
                with g.device(worker_device(w)):
                    phs.append(tf.placeholder(
                        tf.float64, shape=[nbytes // 8], name=f"x{w}"))
            outs = tf.all_reduce(phs)
        sess = tf.Session(servers[0], graph=g, config=tf.SessionConfig(
            shape_only=True, executor_fast_path=fast_path))
        feeds = {ph: SymbolicValue((nbytes // 8,), "float64") for ph in phs}
        start = env.now
        # Fetch the op (not a tensor) so no result transfer pollutes the
        # measurement; inputs are fed, so only admin RPC + ring remain.
        sess.run([outs[0].op], feed_dict=feeds)
        return env.now - start - admin_rpc_time(remote_tasks=True)

    def test_graph_op_matches_standalone_ring(self):
        """The acceptance bar: the lowered op's simulated time is the
        standalone generator's time, on both executor lanes."""
        world, nbytes = 4, 16 * MB
        standalone = self._standalone_time(world, nbytes)
        assert self._graph_op_time(world, nbytes) == pytest.approx(
            standalone, rel=1e-12)
        assert self._graph_op_time(world, nbytes, fast_path=False) == \
            pytest.approx(standalone, rel=1e-9)

    def test_graph_op_respects_lower_bound(self):
        world, nbytes = 4, 64 * MB
        elapsed = self._graph_op_time(world, nbytes)
        env = Environment()
        machine = tegner(env, k420_nodes=world)
        bound = allreduce_time_lower_bound(
            nbytes, world, machine.fabric.effective_rate)
        assert bound <= elapsed < 4.0 * bound


class TestGraphSemantics:
    def test_world_one_is_identity(self):
        g = tf.Graph()
        with g.as_default():
            (out,) = tf.all_reduce([tf.constant(np.arange(4.0))])
        with tf.Session(graph=g) as sess:
            np.testing.assert_array_equal(sess.run(out), np.arange(4.0))

    def test_output_feeds_downstream_ops_across_devices(self):
        """Collective outputs are ordinary tensors: consumable by ops on
        other devices through the usual send/recv routing."""
        world = 2
        _, _, servers = make_cluster(world)
        g = tf.Graph()
        with g.as_default():
            inputs = []
            for w in range(world):
                with g.device(worker_device(w)):
                    inputs.append(tf.constant(np.full(4, w + 1.0)))
            outs = tf.all_reduce(inputs)
            with g.device(worker_device(1)):
                doubled = tf.multiply(outs[0], tf.constant(2.0))
        with tf.Session(servers[1], graph=g) as sess:
            np.testing.assert_array_equal(sess.run(doubled), np.full(4, 6.0))

    def test_chained_collectives_colocate_legs_per_rank(self):
        """Regression: a collective consuming another collective's
        outputs must colocate each leg with the upstream *leg*, not
        collapse every leg onto the upstream op's nominal placement."""
        world = 2
        _, _, servers = make_cluster(world)
        g = tf.Graph()
        with g.as_default():
            ins = []
            for w in range(world):
                with g.device(worker_device(w)):
                    ins.append(tf.constant(np.full(4, w + 1.0), name=f"x{w}"))
            sums = tf.all_reduce(ins)
            gathered = tf.all_gather(sums)
        sess = tf.Session(servers[0], graph=g)
        metadata = RunMetadata()
        values = sess.run(gathered, run_metadata=metadata,
                          options=tf.RunOptions(trace_level=1))
        for rank_value in values:
            np.testing.assert_array_equal(rank_value, np.full(8, 3.0))
        gather_devices = {
            s.device for s in metadata.step_stats
            if s.op_type == "CollectiveAllGather"
        }
        assert gather_devices == {worker_device(0), worker_device(1)}

    def test_plan_cache_and_metadata(self):
        world = 2
        _, _, servers = make_cluster(world)
        g = tf.Graph()
        with g.as_default():
            phs = []
            for w in range(world):
                with g.device(worker_device(w)):
                    phs.append(tf.placeholder(tf.float64, shape=[4],
                                              name=f"x{w}"))
            outs = tf.all_reduce(phs)
        sess = tf.Session(servers[0], graph=g)
        feeds = {ph: np.ones(4) for ph in phs}
        first = RunMetadata()
        sess.run(outs, feed_dict=feeds, run_metadata=first)
        second = RunMetadata()
        sess.run(outs, feed_dict=feeds, run_metadata=second)
        assert first.collective_items == world
        assert second.collective_items == world
        assert not first.plan_cache_hit
        assert second.plan_cache_hit  # lowered plans are cacheable

    def test_shape_mismatch_rejected_at_build(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(np.ones(4))
            b = tf.constant(np.ones(5))
            with pytest.raises(InvalidArgumentError):
                tf.all_reduce([a, b])

    def test_dtype_mismatch_rejected_at_build(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(np.ones(4, np.float32))
            b = tf.constant(np.ones(4, np.float64))
            with pytest.raises(InvalidArgumentError):
                tf.all_reduce([a, b])

    def test_runtime_shape_mismatch_fails_the_run(self):
        """Partially-known static shapes defer the check to the ring."""
        g = tf.Graph()
        with g.as_default():
            a = tf.placeholder(tf.float64, shape=None, name="a")
            b = tf.placeholder(tf.float64, shape=None, name="b")
            outs = tf.all_reduce([a, b])
        with tf.Session(graph=g) as sess:
            with pytest.raises(InvalidArgumentError):
                sess.run(outs, feed_dict={a: np.ones(4), b: np.ones(5)})

    def test_empty_rank_list_rejected(self):
        with pytest.raises(InvalidArgumentError):
            tf.all_reduce([])

    def test_broadcast_needs_world_or_devices(self):
        g = tf.Graph()
        with g.as_default():
            with pytest.raises(InvalidArgumentError):
                tf.broadcast(tf.constant(1.0))

    def test_broadcast_without_devices_rejected_under_session(self):
        """world > 1 with no devices= would silently colocate every leg
        with the root and model the broadcast as zero communication —
        and the error must name the fix, not just the constraint."""
        g = tf.Graph()
        with g.as_default():
            outs = tf.broadcast(tf.constant(np.ones(4)), world=3)
        with tf.Session(graph=g) as sess:
            with pytest.raises(InvalidArgumentError) as excinfo:
                sess.run(outs)
        message = str(excinfo.value)
        assert "devices=[...]" in message
        assert "colocate inputs" in message

    def test_broadcast_world_devices_contradiction_rejected(self):
        g = tf.Graph()
        with g.as_default():
            with pytest.raises(InvalidArgumentError):
                tf.broadcast(tf.constant(1.0), world=4,
                             devices=[worker_device(0), worker_device(1)])

    def test_devices_length_must_match_world(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(np.ones(2))
            b = tf.constant(np.ones(2))
            with pytest.raises(InvalidArgumentError):
                tf.all_reduce([a, b], devices=["/job:worker/task:0"])


# (builder, per-rank feeds, expected message) — placeholders carry no
# static shape, so every check below really happens at run time, in the
# op type's one value function.
_S = "SymbolicValue(shape={}, dtype=float64)"
_RUNTIME_ERRORS = {
    "all_reduce-shape": (
        "all_reduce", [np.ones(4), np.ones(4), np.ones(5)],
        "coll: rank 2 buffers disagree with rank 0: "
        + _S.format("(5,)") + " vs " + _S.format("(4,)")),
    "reduce_scatter-shape": (
        "reduce_scatter", [np.ones((3, 2)), np.ones((3, 1)), np.ones((3, 2))],
        "coll: rank 1 buffers disagree with rank 0: "
        + _S.format("(3, 1)") + " vs " + _S.format("(3, 2)")),
    "reduce_scatter-scalar": (
        "reduce_scatter", [np.float64(1.0)] * 3,
        "coll: rank 0 is a scalar: reduce_scatter needs tensors of "
        "rank >= 1"),
    "reduce_scatter-indivisible": (
        "reduce_scatter", [np.ones(5)] * 3,
        "coll: rank 0: reduce_scatter needs a leading dimension divisible "
        "by the world size: 5 rows across 3 ranks"),
    "all_gather-rank": (
        "all_gather", [np.ones((2, 2)), np.ones((1, 2)), np.ones(2)],
        "coll: rank 2 disagrees with rank 0 beyond axis 0: "
        + _S.format("(2,)") + " vs " + _S.format("(2, 2)")),
    "all_gather-scalar": (
        "all_gather", [np.ones(2), np.float64(1.0), np.ones(2)],
        "coll: rank 1 is a scalar: allgather needs tensors of rank >= 1"),
}

_LANES = ("eager", "dispatcher", "reference")


def _run_on_lane(lane, build, feeds_by_name):
    """Build with unknown-static-shape placeholders, run on one lane."""
    g = tf.Graph()
    with g.as_default():
        phs = [tf.placeholder(tf.float64, shape=None, name=name)
               for name in feeds_by_name]
        outs = build(phs)
    if lane == "eager":
        feeds = {ph.name: v for ph, v in zip(phs, feeds_by_name.values())}
        ctx = KernelContext(symbolic=False, feeds=feeds,
                            resources=ResourceManager(name="eager"))
        fetched = eager.evaluate(
            outs if isinstance(outs, list) else [outs], feeds, ctx)
        return fetched if isinstance(outs, list) else fetched[0]
    config = tf.SessionConfig(executor_fast_path=(lane == "dispatcher"))
    with tf.Session(graph=g, config=config) as sess:
        return sess.run(outs, feed_dict=dict(zip(phs, feeds_by_name.values())))


class TestRuntimeErrorsNameOpAndRank:
    """One value function per op type: a run-time validation failure is an
    InvalidArgumentError naming the op and the first offending rank, the
    same class and text from the eager kernel, the dispatcher and the
    reference executor."""

    @pytest.mark.parametrize("lane", _LANES)
    @pytest.mark.parametrize("case", sorted(_RUNTIME_ERRORS))
    def test_same_error_on_every_lane(self, case, lane):
        builder, values, message = _RUNTIME_ERRORS[case]
        feeds = {f"x{r}": v for r, v in enumerate(values)}
        with pytest.raises(InvalidArgumentError) as excinfo:
            _run_on_lane(
                lane, lambda phs: getattr(tf, builder)(phs, name="coll"),
                feeds)
        assert type(excinfo.value) is InvalidArgumentError
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("lane", _LANES)
    def test_broadcast_has_nothing_to_reject(self, lane):
        """A broadcast has one input — no rank can disagree at run time —
        so its row of the op x lane matrix is the success case."""
        payload = np.arange(6.0).reshape(2, 3)
        out = _run_on_lane(
            lane, lambda phs: tf.broadcast(phs[0], world=1, name="coll")[0],
            {"root": payload})
        assert np.asarray(out).tobytes() == payload.tobytes()
