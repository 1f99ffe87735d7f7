"""Session behaviour: feeds, fetches, placement, errors, metadata."""

import dataclasses
import threading
import weakref

import numpy as np
import pytest

import repro as tf
import repro.core.session as session_module
from repro.apps.common import build_cluster, task_device
from repro.core.metadata import RunMetadata, RunOptions
from repro.core.placement import DeviceSpec
from repro.core.tensor import TensorShape
from repro.errors import InvalidArgumentError, NotFoundError
from repro.simnet.events import Environment
from repro.simnet.machines import Machine, localhost, tegner


class TestFetches:
    def test_single_tensor(self):
        g = tf.Graph()
        with g.as_default():
            c = tf.constant(3.0)
        with tf.Session(graph=g) as sess:
            assert sess.run(c) == pytest.approx(3.0)

    def test_list_of_tensors(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(1.0)
            b = tf.constant(2.0)
        with tf.Session(graph=g) as sess:
            va, vb = sess.run([a, b])
        assert va == pytest.approx(1.0)
        assert vb == pytest.approx(2.0)

    def test_operation_fetch_returns_none(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(1.0, name="v")
        with tf.Session(graph=g) as sess:
            assert sess.run(v.initializer) is None

    def test_mixed_list_preserves_structure(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(5.0, name="v")
            c = tf.constant(2.0)
        with tf.Session(graph=g) as sess:
            out = sess.run([v.initializer, c])
        assert out[0] is None
        assert out[1] == pytest.approx(2.0)

    def test_fetch_by_name(self):
        g = tf.Graph()
        with g.as_default():
            tf.constant(9.0, name="nine")
        with tf.Session(graph=g) as sess:
            assert sess.run("nine:0") == pytest.approx(9.0)

    def test_fetch_variable_object(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(4.0, name="v")
        with tf.Session(graph=g) as sess:
            sess.run(v.initializer)
            assert sess.run(v) == pytest.approx(4.0)

    def test_bad_fetch_rejected(self):
        g = tf.Graph()
        with tf.Session(graph=g) as sess:
            with pytest.raises(InvalidArgumentError):
                sess.run(42)

    def test_closed_session_rejects_run(self):
        g = tf.Graph()
        with g.as_default():
            c = tf.constant(1.0)
        sess = tf.Session(graph=g)
        sess.close()
        with pytest.raises(RuntimeError, match="closed Session"):
            sess.run(c)
        with pytest.raises(RuntimeError, match="closed Session"):
            sess.run_gen(c)

    def test_single_element_list_matches_bare_fetch(self):
        g = tf.Graph()
        with g.as_default():
            c = tf.constant(3.0)
            v = tf.Variable(1.0, name="v")
        with tf.Session(graph=g) as sess:
            bare = sess.run(c)
            listed = sess.run([c])
            assert listed == pytest.approx(bare)
            assert not isinstance(listed, list)
            # An op fetch in a single-element list also matches the bare form.
            assert sess.run([v.initializer]) is None


class TestFeeds:
    def test_placeholder_feed(self):
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, shape=[2])
            y = x * tf.constant(3.0)
        with tf.Session(graph=g) as sess:
            result = sess.run(y, feed_dict={x: np.array([1.0, 2.0], np.float32)})
        np.testing.assert_allclose(result, [3.0, 6.0])

    def test_missing_feed_raises(self):
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, shape=[2])
            y = tf.identity(x)
        with tf.Session(graph=g) as sess:
            with pytest.raises(InvalidArgumentError, match="feed"):
                sess.run(y)

    def test_feed_shape_mismatch_raises(self):
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, shape=[3])
            y = tf.identity(x)
        with tf.Session(graph=g) as sess:
            with pytest.raises(InvalidArgumentError):
                sess.run(y, feed_dict={x: np.zeros(4, np.float32)})

    def test_feed_overrides_intermediate_tensor(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(2.0, name="a")
            b = a * tf.constant(10.0)
        with tf.Session(graph=g) as sess:
            default = sess.run(b)
            overridden = sess.run(b, feed_dict={a: np.float32(5.0)})
        assert default == pytest.approx(20.0)
        assert overridden == pytest.approx(50.0)

    def test_feed_by_name(self):
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, shape=[], name="x")
            y = x + tf.constant(1.0)
        with tf.Session(graph=g) as sess:
            assert sess.run(y, feed_dict={"x:0": 2.0}) == pytest.approx(3.0)

    def test_fetching_a_symbolic_feed_returns_the_spec(self):
        # Used to come back as a 0-d object ndarray wrapping the spec.
        g = tf.Graph()
        with g.as_default():
            p = tf.placeholder(tf.float32, shape=[None], name="p")
            doubled = p * 2
        spec = tf.SymbolicValue((3,), tf.float32)
        config = tf.SessionConfig(shape_only=True)
        with tf.Session(graph=g, config=config) as sess:
            fed, twice = sess.run([p, doubled], feed_dict={p: spec})
        assert fed is spec
        assert twice == tf.SymbolicValue((3,), doubled.dtype)


class TestPlacementSemantics:
    def test_simple_placement_prefers_gpu(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(np.eye(2, dtype=np.float32))
            c = tf.matmul(a, a)
        sess = tf.Session(graph=g)
        meta = RunMetadata()
        sess.run(c, options=RunOptions(trace_level=RunOptions.FULL_TRACE),
                 run_metadata=meta)
        matmul_stats = [s for s in meta.step_stats if s.op_type == "MatMul"]
        assert matmul_stats and "/device:gpu:0" in matmul_stats[0].device

    def test_cpu_only_op_soft_placed(self):
        # Queue ops have no GPU kernel: pinning one to GPU must soft-place.
        g = tf.Graph()
        with g.as_default():
            with g.device("/gpu:0"):
                q = tf.FIFOQueue(4, [tf.float32], shapes=[[]])
                enq = q.enqueue(tf.constant(1.0))
                deq = q.dequeue()
        with tf.Session(graph=g) as sess:
            sess.run(enq)
            assert sess.run(deq) == pytest.approx(1.0)

    def test_soft_placement_disabled_raises(self):
        g = tf.Graph()
        with g.as_default():
            with g.device("/gpu:5"):  # no such GPU locally
                c = tf.constant(1.0)
        config = tf.SessionConfig(allow_soft_placement=False)
        with tf.Session(graph=g, config=config) as sess:
            with pytest.raises(InvalidArgumentError):
                sess.run(c)

    def test_unknown_task_raises(self):
        g = tf.Graph()
        with g.as_default():
            with g.device("/job:ps/task:0"):
                c = tf.constant(1.0)
        with tf.Session(graph=g) as sess:  # local cluster has no "ps" job
            with pytest.raises(NotFoundError):
                sess.run(c)

    def test_device_spec_parsing(self):
        spec = DeviceSpec.parse("/job:worker/task:3/device:GPU:1")
        assert (spec.job, spec.task, spec.device_type, spec.device_index) == (
            "worker", 3, "gpu", 1)
        short = DeviceSpec.parse("/gpu:2")
        assert short.device_type == "gpu" and short.device_index == 2
        assert DeviceSpec.parse("").job is None

    def test_bad_device_string_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DeviceSpec.parse("/job:x/bogus:1")

    def test_list_devices(self):
        g = tf.Graph()
        config = tf.SessionConfig(num_gpus=2)
        with tf.Session(graph=g, config=config) as sess:
            devices = sess.list_devices()
        assert any("cpu:0" in d for d in devices)
        assert any("gpu:1" in d for d in devices)


class TestRunMetadata:
    def test_trace_collects_stats_and_transfers(self):
        g = tf.Graph()
        with g.as_default():
            with g.device("/cpu:0"):
                a = tf.random_uniform([64, 64])
            with g.device("/gpu:0"):
                c = tf.matmul(a, a)
        sess = tf.Session(graph=g)
        meta = RunMetadata()
        sess.run(c, options=RunOptions(trace_level=RunOptions.FULL_TRACE),
                 run_metadata=meta)
        assert meta.step_stats, "expected op stats"
        assert meta.transfers, "expected a cpu->gpu transfer"
        assert meta.wall_time > 0
        assert meta.total_bytes_transferred() >= 64 * 64 * 4

    def test_no_trace_by_default(self):
        g = tf.Graph()
        with g.as_default():
            c = tf.constant(1.0)
        sess = tf.Session(graph=g)
        meta = RunMetadata()
        sess.run(c, run_metadata=meta)
        assert not meta.step_stats

    def test_plan_cache_counters_exposed(self):
        g = tf.Graph()
        with g.as_default():
            c = tf.random_uniform([8])
        with tf.Session(graph=g) as sess:
            first = RunMetadata()
            sess.run(c, run_metadata=first)
            assert first.plan_cache_hit is False
            assert (first.plan_cache_hits, first.plan_cache_misses) == (0, 1)
            second = RunMetadata()
            sess.run(c, run_metadata=second)
            assert second.plan_cache_hit is True
            assert (second.plan_cache_hits, second.plan_cache_misses) == (1, 1)
            info = sess.plan_cache_info()
            assert info["hits"] == 1 and info["misses"] == 1

    def test_sim_time_advances_monotonically(self):
        g = tf.Graph()
        with g.as_default():
            c = tf.random_uniform([32])
        sess = tf.Session(graph=g)
        t0 = sess.env.now
        sess.run(c)
        t1 = sess.env.now
        sess.run(c)
        t2 = sess.env.now
        assert t0 < t1 < t2


class TestMemoryAccounting:
    def test_oom_on_tiny_gpu(self, small_memory):
        small_memory("gpu", 1024)
        g = tf.Graph()
        with g.as_default():
            with g.device("/gpu:0"):
                big = tf.random_uniform([1024])  # 4 KB > 1 KB capacity
        with tf.Session(graph=g) as sess:
            with pytest.raises(tf.errors.ResourceExhaustedError):
                sess.run(big)

    def test_memory_freed_between_runs(self):
        g = tf.Graph()
        with g.as_default():
            with g.device("/gpu:0"):
                x = tf.random_uniform([256, 256])
                y = tf.matmul(x, x)
        with tf.Session(graph=g) as sess:
            sess.run(y)
            runtime = sess.master.runtime
            gpu_pool = [
                pool for name, pool in runtime.memory_pools.items()
                if "gpu" in name
            ][0]
            assert gpu_pool.in_use == 0
            assert gpu_pool.peak > 0


class TestWarmRuns:
    """What a plan-cache hit may skip, and what the memos may not outlive."""

    @pytest.fixture()
    def counters(self, monkeypatch):
        counts = {"placers": 0, "resolves": 0}
        placer, resolve = session_module.Placer, Machine.resolve

        def counting_placer(*args, **kwargs):
            counts["placers"] += 1
            return placer(*args, **kwargs)

        def counting_resolve(self, address):
            counts["resolves"] += 1
            return resolve(self, address)

        monkeypatch.setattr(session_module, "Placer", counting_placer)
        monkeypatch.setattr(Machine, "resolve", counting_resolve)
        return counts

    def test_warm_run_builds_no_placer_and_walks_no_cluster(self, counters):
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, shape=[2], name="x")
            y = x * 2.0
            z = y + 1.0
        with tf.Session(graph=g) as sess:
            sess.run(y, feed_dict={x: [1.0, 2.0]})
            assert counters["placers"] == 1
            counters.update(placers=0, resolves=0)
            out = sess.run(y, feed_dict={x: [3.0, 4.0]})
            assert out == pytest.approx([6.0, 8.0])
            assert counters == {"placers": 0, "resolves": 0}
            # A new fetch set is a miss: it places again (but the cluster
            # was resolved once for the session).
            sess.run([y, z], feed_dict={x: [3.0, 4.0]})
            assert counters == {"placers": 1, "resolves": 0}
            # So is the same fetch on a changed graph.
            with g.as_default():
                tf.constant(0.0, name="bump_version")
            sess.run(y, feed_dict={x: [3.0, 4.0]})
            assert counters == {"placers": 2, "resolves": 0}

    @pytest.mark.parametrize("field, value", [
        ("graph_optimization", False), ("shape_only", True)])
    def test_a_config_change_on_a_live_session_builds_a_new_plan(
            self, field, value):
        # Each field changes the plan build_plan makes; a plan cached
        # under the old value used to be a hit.
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, shape=[2], name="x")
            y = tf.identity(x * tf.constant(2.0) + tf.constant(0.0))
        feed = {x: np.float32([1.0, 2.0])}
        config = tf.SessionConfig()
        sess = tf.Session(graph=g, config=config)
        sess.run(y, feed_dict=feed)
        setattr(sess.config, field, value)
        got = RunMetadata()
        value_got = sess.run(y, feed_dict=feed, run_metadata=got)
        want = RunMetadata()
        fresh = tf.Session(graph=g, config=dataclasses.replace(
            config, **{field: value}))
        value_want = fresh.run(y, feed_dict=feed, run_metadata=want)
        assert not got.plan_cache_hit
        assert got.plan_items == want.plan_items
        assert repr(value_got) == repr(value_want)
        # ... and changing it back finds the first plan again.
        setattr(sess.config, field, getattr(config, field))
        again = RunMetadata()
        sess.run(y, feed_dict=feed, run_metadata=again)
        assert again.plan_cache_hit

    def test_turning_soft_placement_off_is_not_a_hit(self):
        g = tf.Graph()
        with g.as_default(), g.device("/gpu:7"):
            y = tf.constant(2.0) * 3.0
        sess = tf.Session(graph=g)
        assert sess.run(y) == pytest.approx(6.0)
        sess.config.allow_soft_placement = False
        with pytest.raises(InvalidArgumentError, match="gpu:7"):
            sess.run(y)

    def test_a_warm_plan_checks_no_fed_shape_and_excuses_no_wrong_one(
            self, monkeypatch):
        # Fed shapes are in the plan key, so a hit's shapes were checked
        # when its plan was built; a wrong shape is a miss and raises.
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, shape=[None, 3], name="x")
            y = x * 2.0
        sess = tf.Session(graph=g)
        sess.run(y, feed_dict={x: np.ones((2, 3), np.float32)})
        checks = []
        compatible = TensorShape.is_compatible_with

        def counted(self, other):
            checks.append(other)
            return compatible(self, other)

        monkeypatch.setattr(TensorShape, "is_compatible_with", counted)
        sess.run(y, feed_dict={x: np.zeros((2, 3), np.float32)})
        assert checks == []
        for _ in range(2):
            with pytest.raises(InvalidArgumentError) as caught:
                sess.run(y, feed_dict={x: np.ones((2, 4), np.float32)})
            assert str(caught.value) == (
                "Feed for x:0 has shape (2, 4); tensor expects (?, 3)")
        assert len(checks) == 2
        info = sess.plan_cache_info()
        # Each wrong shape missed, like any run whose plan build fails.
        assert (info["plans"], info["hits"], info["misses"]) == (1, 1, 3)

    @pytest.mark.parametrize("optimize", [False, True], ids=["noopt", "opt"])
    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "reference"])
    def test_a_fed_shape_the_op_rejects_fails_inside_the_run(self, fast,
                                                             optimize):
        # The plan for these fed shapes prices `sq` but cannot price `ab`:
        # its shape function rejects them. So `ab` and everything after it
        # keep the run-time path, and the run fails from `ab`, after `sq`
        # ran, with its message, at the same instant on every lane.
        g = tf.Graph()
        with g.as_default():
            a = tf.placeholder(tf.float32, [None, None], name="a")
            b = tf.placeholder(tf.float32, [None, None], name="b")
            ab = tf.matmul(tf.square(a, name="sq"), b, name="ab")
            out = tf.sigmoid(ab, name="out")
        sess = tf.Session(graph=g, config=tf.SessionConfig(
            executor_fast_path=fast, graph_optimization=optimize))
        sess.run(out, feed_dict={a: np.ones((2, 3), np.float32),
                                 b: np.ones((3, 4), np.float32)})
        assert sess.env.now.hex() == "0x1.14d3e7c0387fdp-12"
        bad = {a: np.ones((64, 48), np.float32),
               b: np.ones((64, 48), np.float32)}
        with pytest.raises(InvalidArgumentError) as caught:
            sess.run(out, feed_dict=bad)
        assert str(caught.value) == (
            "MatMul operand shapes [(64, 48), (64, 48)]: matmul inner "
            "dimensions disagree: 48 vs 64 [op: ab]")
        assert sess.env.now.hex() == "0x1.0c74d5fd97686p-11"
        plan = sess._prepare_run(out, bad).plan
        assert {item.op.name: item.price is not None for item in plan.items
                if item.kind == "op"} == {"sq": True, "ab": False,
                                          "out": False}

    def test_cluster_is_memoised_only_once_every_task_resolves(self):
        env = Environment()
        machine = tegner(env, k420_nodes=2)
        cluster = tf.ClusterSpec({
            "ps": ["t01n01:8888"],
            "worker": ["t01n02:8888"],
        })
        ps = tf.Server(cluster, "ps", 0, machine=machine)
        g = tf.Graph()
        with g.as_default():
            with g.device("/job:ps/task:0"):
                a = tf.constant(2.0)
            with g.device("/job:worker/task:0"):
                b = a * 3.0
        sess = tf.Session(ps, graph=g)
        for _ in range(2):  # the failed walk left nothing behind
            with pytest.raises(NotFoundError, match="t01n02:8888"):
                sess.run(a)
        tf.Server(cluster, "worker", 0, machine=machine)
        assert sess.run(b) == pytest.approx(6.0)
        assert any("worker" in d for d in sess.list_devices())

    def test_sessions_on_different_machines_share_no_resolved_devices(self):
        g = tf.Graph()
        with g.as_default():
            c = tf.random_uniform([64]) * 2.0
        first, second = tf.Session(graph=g), tf.Session(graph=g)
        assert first.machine is not second.machine

        def allocations(sess):
            pools = sess.master.runtime.memory_pools.values()
            return sum(pool.alloc_count for pool in pools)

        for _ in range(2):  # a cold run, then a warm one
            before = allocations(first), allocations(second)
            clock = second.env.now
            first.run(c)
            assert allocations(first) > before[0]
            assert allocations(second) == before[1]
            assert second.env.now == clock
            second.run(c)
            assert allocations(second) > before[1]


def _add_graph():
    g = tf.Graph()
    with g.as_default():
        c = tf.constant(1.0) + 2.0
    return g, c


class TestOwnership:
    """Who keeps whom alive. A Graph owns its ops; a Tensor or Operation
    does not keep its Graph alive, but a Session and an ExecutionPlan do.
    ``close()`` releases the machine a local session built for itself,
    and nothing a caller passed in."""

    def test_a_tensor_does_not_keep_its_graph_alive(self):
        g, c = _add_graph()
        graph, fields = weakref.ref(g), (c.name, c.dtype, c.shape)
        del g
        assert graph() is None  # by reference count, no collection
        assert c.graph is None and c.op.graph is None
        # The handle keeps its own fields; its op has no outputs left.
        assert (c.name, c.dtype, c.shape) == fields
        assert c.op.outputs == ()

    def test_a_session_and_a_plan_keep_their_graph_alive(self):
        g, c = _add_graph()
        graph = weakref.ref(g)
        sess = tf.Session(graph=g)
        del g
        assert sess.run(c) == pytest.approx(3.0)
        assert c.graph is graph() is not None
        plan = next(iter(sess._plan_cache.values()))
        sess.close()
        del sess
        assert plan.graph is graph() is not None
        assert plan.items[0].op.graph is graph()
        del plan
        assert graph() is None

    def test_close_releases_the_machine_the_session_built(self):
        g, c = _add_graph()
        sess = tf.Session(graph=g, config=tf.SessionConfig(num_gpus=2))
        sess.run(c)
        machine, now = sess.machine, sess.env.now
        sess.env.timeout(1.0)  # a leftover calendar entry
        sess.close()
        node = machine.nodes["localhost"]
        assert node.machine is None and node.cpu.node is None
        assert all(gpu.node is None for gpu in node.gpus)
        assert sess.master.machine is None
        assert sess.env.peek() == float("inf") and sess.env.now == now
        # What a finished session is still read for stays readable.
        assert sess.master.env is sess.env
        assert sess.master.runtime.memory_pools

    @pytest.mark.parametrize("supplied", ["machine", "env"])
    def test_close_leaves_a_supplied_machine_or_env_as_it_is(self, supplied):
        env = Environment()
        env.timeout(5.0)  # pending past the run
        g, c = _add_graph()
        if supplied == "machine":
            sess = tf.Session(graph=g, machine=localhost(env))
        else:
            sess = tf.Session(graph=g, env=env)
        sess.run(c)
        machine = sess.machine

        def snapshot():
            return (env.now, len(env._queue), dict(machine.nodes),
                    dict(machine.address_table), sess.master.machine,
                    [(node.machine, node.cpu.node, [g.node for g in node.gpus])
                     for node in machine.nodes.values()])

        before = snapshot()
        assert before[1] == 1 and before[4] is machine
        sess.close()
        assert snapshot() == before

    def test_a_cluster_machine_serves_a_second_session_after_close(self):
        handle = build_cluster("tegner-k420", {"worker": 2})
        g = tf.Graph()
        with g.as_default():
            with g.device(task_device("worker", 1, "cpu", 0)):
                remote = tf.constant(np.arange(4.0)) * 2.0
            with g.device(task_device("worker", 0, "cpu", 0)):
                total = tf.reduce_sum(remote)
        results = []
        for _ in range(2):
            with tf.Session(handle.server("worker", 0), graph=g) as sess:
                results.append((sess.run(total), sess.env.now))
        assert results[0][0] == results[1][0] == pytest.approx(12.0)
        assert results[1][1] > results[0][1]  # one clock, run on
        for node in handle.machine.nodes.values():
            assert node.machine is handle.machine

    def test_a_second_close_is_a_no_op(self):
        g, c = _add_graph()
        sess = tf.Session(graph=g)
        sess.run(c)
        sess.close()
        state = (sess.env.now, sess.machine.nodes, sess.master.machine)
        sess.close()
        assert (sess.env.now, sess.machine.nodes, sess.master.machine) == state
        with pytest.raises(RuntimeError, match="closed Session"):
            sess.run(c)

    def test_close_waits_for_the_run_lock(self):
        """A run on another thread drives the calendar under
        ``_run_lock``: close() releases nothing under it."""
        g, c = _add_graph()
        sess = tf.Session(graph=g)
        sess.run(c)
        sess._run_lock.acquire()
        closer = threading.Thread(target=sess.close)
        try:
            closer.start()
            closer.join(0.05)
            assert closer.is_alive() and sess.master.machine is not None
        finally:
            sess._run_lock.release()
        closer.join()
        assert sess.master.machine is None
