"""Concurrent sessions, plan caching, and determinism properties."""

import numpy as np
import pytest

import repro as tf
from repro.simnet.events import Environment
from repro.simnet.machines import tegner


class TestConcurrentSessions:
    def test_two_workers_progress_in_parallel(self):
        """Two sessions sharing one simulation overlap in simulated time."""
        env = Environment()
        machine = tegner(env, k420_nodes=2)
        cluster = tf.ClusterSpec({
            "worker": ["t01n01:8888", "t01n02:8888"],
        })
        servers = [tf.Server(cluster, "worker", i, machine=machine)
                   for i in range(2)]
        g = tf.Graph()
        with g.as_default():
            products = []
            for w in range(2):
                with g.device(f"/job:worker/task:{w}/device:gpu:0"):
                    x = tf.random_uniform([256, 256], name=f"x{w}")
                    products.append(tf.matmul(x, x, name=f"prod{w}"))
        sessions = [tf.Session(servers[w], graph=g,
                               config=tf.SessionConfig(shape_only=True))
                    for w in range(2)]

        # Serial execution.
        t0 = env.now
        sessions[0].run(products[0].op)
        sessions[1].run(products[1].op)
        serial = env.now - t0

        # Concurrent execution: both sessions as simultaneous processes.
        t0 = env.now

        def runner(w):
            yield from sessions[w].run_gen(products[w].op)

        procs = [env.process(runner(w)) for w in range(2)]
        for proc in procs:
            env.run(until=proc)
        concurrent = env.now - t0
        assert concurrent < serial * 0.75

    def test_plan_cache_reused_across_runs(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(0.0, name="v")
            bump = tf.assign_add(v, tf.constant(1.0))
        sess = tf.Session(graph=g)
        sess.run(v.initializer)
        for _ in range(3):
            sess.run(bump.op)
        assert sess.run(v) == pytest.approx(3.0)
        # One plan per distinct (fetch, feeds, graph version).
        assert len(sess._plan_cache) == 3  # initializer, bump, read

    def test_graph_growth_invalidates_cache(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(1.0, name="a")
        sess = tf.Session(graph=g)
        assert sess.run(a) == pytest.approx(1.0)
        with g.as_default():
            b = a + tf.constant(2.0)
        assert sess.run(b) == pytest.approx(3.0)
        assert sess.run(a) == pytest.approx(1.0)

    def test_same_fetch_twice_in_one_run(self):
        g = tf.Graph()
        with g.as_default():
            c = tf.constant(5.0)
        with tf.Session(graph=g) as sess:
            x, y = sess.run([c, c])
        assert x == y == pytest.approx(5.0)

    def test_two_coroutines_share_one_plan_in_flight(self):
        """Two ``run_gen`` coroutines of one fetch, blocked together in
        the executor, run one plan: a miss and a hit, each with its own
        values (under the in-flight guard the second was a second miss
        and a second ``build_plan``)."""
        g = tf.Graph()
        with g.as_default():
            q = tf.FIFOQueue(2, [tf.float32], shapes=[[]], name="q")
            item = q.dequeue(name="item")
            value = tf.placeholder(tf.float32, [], name="value")
            put = q.enqueue(value, name="put")
        sess = tf.Session(graph=g)
        env = sess.env
        got = {}

        def runner(index):
            got[index] = yield from sess.run_gen(item)

        procs = [env.process(runner(index)) for index in range(2)]
        env.run(until=env.now + 0.001)  # past the admin RPC: both blocked
        assert all(proc.is_alive for proc in procs)
        info = sess.plan_cache_info()
        assert (info["misses"], info["hits"], info["plans"]) == (1, 1, 1)

        sess.run(put, feed_dict={value: 3.0})
        sess.run(put, feed_dict={value: 4.0})
        for proc in procs:
            env.run(until=proc)
        assert got == {0: pytest.approx(3.0), 1: pytest.approx(4.0)}
        info = sess.plan_cache_info()
        assert (info["misses"], info["hits"]) == (2, 2)  # item, put; +1 each

    def test_plan_evicted_while_its_run_is_blocked_still_completes(self):
        """Plain LRU: a blocked run's plan is evicted like any other, the
        run keeps the plan alive and finishes with the right value, and a
        same-key rerun rebuilds."""
        from repro.core.session import _PLAN_CACHE_CAPACITY

        g = tf.Graph()
        with g.as_default():
            q = tf.FIFOQueue(2, [tf.float32], shapes=[[]], name="q")
            blocked = q.dequeue(name="blocked")
            unblock = q.enqueue(tf.constant(7.0), name="unblock")
            extras = [
                tf.add(tf.constant(float(i)), tf.constant(1.0), name=f"e{i}")
                for i in range(_PLAN_CACHE_CAPACITY + 5)
            ]
        sess = tf.Session(graph=g)
        env = sess.env

        got = {}

        def runner():
            got["value"] = yield from sess.run_gen(blocked)

        proc = env.process(runner())
        # Advance past the admin RPC: the run is now blocked inside the
        # executor, holding the only plan the cache has.
        env.run(until=env.now + 0.001)
        (blocked_plan,) = sess._plan_cache.values()

        for tensor in extras:  # overflow the cache while the run blocks
            sess.run(tensor)
        info = sess.plan_cache_info()
        assert info["plans"] == _PLAN_CACHE_CAPACITY  # never overflows
        assert info["evictions"] == len(extras) + 1 - _PLAN_CACHE_CAPACITY
        assert all(plan is not blocked_plan
                   for plan in sess._plan_cache.values())  # LRU: it went

        sess.run(unblock)
        env.run(until=proc)
        assert got["value"] == pytest.approx(7.0)

        # The same key again: a miss that rebuilds, and still computes.
        misses = sess.plan_cache_info()["misses"]
        sess.run(unblock)
        assert sess.run(blocked) == pytest.approx(7.0)
        assert sess.plan_cache_info()["misses"] == misses + 1
        assert all(plan is not blocked_plan
                   for plan in sess._plan_cache.values())


class TestDeterminism:
    def test_identical_programs_identical_schedules(self):
        """The DES is deterministic: same program, same simulated times."""

        def run_once():
            env = Environment()
            machine = tegner(env, k420_nodes=2)
            cluster = tf.ClusterSpec({"ps": ["t01n01:8888"],
                                      "worker": ["t01n02:8888"]})
            tf.Server(cluster, "ps", 0, machine=machine)
            worker = tf.Server(cluster, "worker", 0, machine=machine)
            g = tf.Graph(seed=1)
            with g.as_default():
                with g.device("/job:ps/task:0/device:cpu:0"):
                    v = tf.Variable(np.zeros(1000, np.float32), name="v")
                with g.device("/job:worker/task:0/device:cpu:0"):
                    d = tf.ones([1000], dtype=tf.float32)
                update = tf.assign_add(v, d)
            sess = tf.Session(worker, graph=g)
            sess.run(v.initializer)
            for _ in range(5):
                sess.run(update.op)
            return env.now

        assert run_once() == run_once()

    def test_random_values_depend_only_on_seeds(self):
        def values(graph_seed):
            g = tf.Graph(seed=graph_seed)
            with g.as_default():
                r = tf.random_normal([16], seed=2)
            with tf.Session(graph=g) as sess:
                return sess.run(r)

        np.testing.assert_array_equal(values(10), values(10))
        assert not np.array_equal(values(10), values(11))
