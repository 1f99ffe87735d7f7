"""Distributed execution: servers, reducers, token barriers."""

import numpy as np
import pytest

import repro as tf
from repro.errors import InvalidArgumentError
from repro.runtime.server import ServerConfig
from repro.runtime.sync import QueueReducer
from repro.simnet.events import Environment
from repro.simnet.machines import kebnekaise, tegner


@pytest.fixture()
def two_node_tegner():
    env = Environment()
    machine = tegner(env, k420_nodes=2)
    cluster = tf.ClusterSpec({
        "ps": ["t01n01:8888"],
        "worker": ["t01n02:8888"],
    })
    ps = tf.Server(cluster, "ps", 0, machine=machine)
    worker = tf.Server(cluster, "worker", 0, machine=machine)
    return env, machine, ps, worker


class TestServers:
    def test_server_registration_and_target(self, two_node_tegner):
        env, machine, ps, worker = two_node_tegner
        assert ps.target == "grpc://t01n01:8888"
        assert machine.resolve("t01n02:8888") is worker

    def test_duplicate_address_rejected(self, two_node_tegner):
        env, machine, ps, worker = two_node_tegner
        cluster = tf.ClusterSpec({"ps": ["t01n01:8888"]})
        with pytest.raises(InvalidArgumentError):
            tf.Server(cluster, "ps", 0, machine=machine)

    def test_visible_gpu_mask_renumbers(self):
        env = Environment()
        machine = kebnekaise(env, k80_nodes=1)
        cluster = tf.ClusterSpec({"worker": ["b-cn0001:8888", "b-cn0001:8889"]})
        w0 = tf.Server(cluster, "worker", 0, machine=machine,
                       config=ServerConfig(visible_gpus=[0]))
        w1 = tf.Server(cluster, "worker", 1, machine=machine,
                       config=ServerConfig(visible_gpus=[3]))
        d0 = w0.runtime.device("/job:worker/task:0/device:gpu:0")
        d1 = w1.runtime.device("/job:worker/task:1/device:gpu:0")
        assert d0.index == 0 and d1.index == 3
        assert d0 is not d1

    def test_bad_visible_gpu_rejected(self):
        env = Environment()
        machine = tegner(env, k420_nodes=1)
        cluster = tf.ClusterSpec({"worker": ["t01n01:8888"]})
        with pytest.raises(InvalidArgumentError):
            tf.Server(cluster, "worker", 0, machine=machine,
                      config=ServerConfig(visible_gpus=[5]))

    def test_memory_fraction_caps_pool(self):
        env = Environment()
        machine = tegner(env, k80_nodes=1)
        cluster = tf.ClusterSpec({"worker": ["t01n01:8888"]})
        server = tf.Server(cluster, "worker", 0, machine=machine,
                           config=ServerConfig(visible_gpus=[0],
                                               gpu_memory_fraction=0.5))
        pool = server.runtime.memory_pools["/job:worker/task:0/device:gpu:0"]
        assert pool.capacity == 6 * 1024**3  # half of a GK210's 12 GB


class TestDistributedExecution:
    def test_variable_on_ps_updated_from_worker(self, two_node_tegner):
        env, machine, ps, worker = two_node_tegner
        g = tf.Graph()
        with g.as_default():
            with g.device("/job:ps/task:0/device:cpu:0"):
                v = tf.Variable(np.zeros(3), name="v")
            with g.device("/job:worker/task:0/device:cpu:0"):
                delta = tf.constant(np.ones(3))
            update = tf.assign_add(v, delta)
        sess = tf.Session(worker, graph=g)
        sess.run(v.initializer)
        sess.run(update.op)
        sess.run(update.op)
        np.testing.assert_allclose(sess.run(v), [2.0, 2.0, 2.0])

    def test_ps_state_shared_between_worker_sessions(self, two_node_tegner):
        env, machine, ps, worker = two_node_tegner
        g = tf.Graph()
        with g.as_default():
            with g.device("/job:ps/task:0/device:cpu:0"):
                v = tf.Variable(10.0, name="shared")
        sess_a = tf.Session(worker, graph=g)
        sess_a.run(v.initializer)
        sess_b = tf.Session(ps, graph=g)
        assert sess_b.run(v) == pytest.approx(10.0)

    def test_cross_task_transfer_takes_time(self, two_node_tegner):
        env, machine, ps, worker = two_node_tegner
        g = tf.Graph()
        with g.as_default():
            with g.device("/job:ps/task:0/device:cpu:0"):
                v = tf.Variable(np.zeros(1024 * 1024), name="big")  # 8 MB
            with g.device("/job:worker/task:0/device:cpu:0"):
                delta = tf.zeros_like(v.value())
            update = tf.assign_add(v, delta)
        sess = tf.Session(worker, graph=g)
        sess.run(v.initializer)
        t0 = env.now
        sess.run(update.op)
        elapsed = env.now - t0
        # 8 MB over EDR RDMA (~6.6 GB/s) is ~1.2 ms; admin adds ~0.5 ms.
        assert 0.5e-3 < elapsed < 20e-3


class TestQueueReducer:
    def _run_reduction(self, num_workers, values, reduction="sum"):
        env = Environment()
        machine = tegner(env, k420_nodes=num_workers + 1)
        addresses = [f"t01n{i + 1:02d}:8888" for i in range(num_workers + 1)]
        cluster = tf.ClusterSpec({
            "reducer": [addresses[0]],
            "worker": addresses[1:],
        })
        reducer_server = tf.Server(cluster, "reducer", 0, machine=machine)
        worker_servers = [
            tf.Server(cluster, "worker", i, machine=machine)
            for i in range(num_workers)
        ]
        g = tf.Graph()
        with g.as_default():
            reducer = QueueReducer(
                num_workers, dtype=tf.float64,
                device="/job:reducer/task:0/device:cpu:0",
                reduction=reduction, graph=g,
            )
            worker_fetches = []
            for i in range(num_workers):
                with g.device(f"/job:worker/task:{i}/device:cpu:0"):
                    mine = tf.constant(np.float64(values[i]), name=f"value_{i}")
                worker_fetches.append(reducer.worker_reduce(mine, name=f"w{i}"))
            step = reducer.reducer_step()
        results = {}

        def worker_proc(i):
            sess = tf.Session(worker_servers[i], graph=g)
            value = yield from sess.run_gen(worker_fetches[i])
            results[i] = float(value)

        def reducer_proc():
            sess = tf.Session(reducer_server, graph=g)
            yield from sess.run_gen(step)

        for i in range(num_workers):
            env.process(worker_proc(i))
        env.process(reducer_proc())
        env.run()
        return results

    def test_sum_reduction_reaches_all_workers(self):
        results = self._run_reduction(3, [1.0, 2.0, 3.0])
        assert results == {0: 6.0, 1: 6.0, 2: 6.0}

    def test_max_reduction(self):
        results = self._run_reduction(2, [5.0, -2.0], reduction="max")
        assert results == {0: 5.0, 1: 5.0}

    def test_unknown_reduction_rejected(self):
        g = tf.Graph()
        with pytest.raises(InvalidArgumentError):
            QueueReducer(2, reduction="median", graph=g)
