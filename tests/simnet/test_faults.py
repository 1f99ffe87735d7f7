"""Deterministic fault injection: plans, crashes, degradation, drops."""

import pytest

from repro.errors import InvalidArgumentError, UnavailableError
from repro.simnet import transports
from repro.simnet.events import Environment, Interrupt
from repro.simnet.faults import (
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    MessageDrop,
    WorkerCrash,
)
from repro.simnet.machines import tegner

MB = 1024 * 1024


@pytest.fixture()
def machine_pair():
    env = Environment()
    machine = tegner(env, k420_nodes=2)
    a, b = machine.node("t01n01"), machine.node("t01n02")
    return machine, a, b


def measure(machine, src_dev, dst_dev, nbytes, protocol="rdma"):
    env = machine.env
    start = env.now

    def mover():
        yield from transports.transfer(src_dev, dst_dev, nbytes, protocol)

    proc = env.process(mover())
    env.run(until=proc)
    return env.now - start


def advance(env, seconds):
    env.run(until=env.timeout(seconds))


class TestFaultPlan:
    def test_rejects_unknown_spec(self):
        with pytest.raises(InvalidArgumentError):
            FaultPlan(faults=("not a fault",))

    def test_single_crash_helper(self):
        plan = FaultPlan.single_crash("worker", 1, at=2.5, restart_after=1.0)
        assert plan.faults == (WorkerCrash("worker", 1, 2.5, 1.0),)

    def test_random_crashes_deterministic_and_sorted(self):
        p1 = FaultPlan.random_crashes({"worker": 4}, horizon=10.0,
                                      num_crashes=3, seed=7)
        p2 = FaultPlan.random_crashes({"worker": 4}, horizon=10.0,
                                      num_crashes=3, seed=7)
        assert p1 == p2
        times = [c.at for c in p1.faults]
        assert times == sorted(times)
        assert all(0 < t < 10.0 for t in times)
        p3 = FaultPlan.random_crashes({"worker": 4}, horizon=10.0,
                                      num_crashes=3, seed=8)
        assert p1 != p3

    def test_random_crashes_validation(self):
        with pytest.raises(InvalidArgumentError):
            FaultPlan.random_crashes({}, horizon=1.0)
        with pytest.raises(InvalidArgumentError):
            FaultPlan.random_crashes({"worker": 2}, horizon=0.0)


class TestInstall:
    def test_install_sets_machine_hook(self, machine_pair):
        machine, _, _ = machine_pair
        injector = FaultInjector(FaultPlan()).install(machine)
        assert machine.faults is injector

    def test_double_install_rejected(self, machine_pair):
        machine, _, _ = machine_pair
        injector = FaultInjector(FaultPlan())
        injector.install(machine)
        with pytest.raises(InvalidArgumentError):
            injector.install(machine)


class TestWorkerCrash:
    def test_task_goes_down_at_scheduled_time(self, machine_pair):
        machine, _, _ = machine_pair
        env = machine.env
        injector = FaultInjector(
            FaultPlan.single_crash("worker", 0, at=1.0)
        ).install(machine)
        assert not injector.is_down("worker", 0)
        advance(env, 0.5)
        assert not injector.is_down("worker", 0)
        advance(env, 1.0)
        assert injector.is_down("worker", 0)
        assert injector.down_tasks() == [("worker", 0)]
        assert injector.stats["crashes"] == 1

    def test_restart_revives_task(self, machine_pair):
        machine, _, _ = machine_pair
        env = machine.env
        injector = FaultInjector(
            FaultPlan.single_crash("worker", 0, at=1.0, restart_after=2.0)
        ).install(machine)
        advance(env, 1.5)
        assert injector.is_down("worker", 0)
        advance(env, 2.0)
        assert not injector.is_down("worker", 0)
        assert injector.stats["restarts"] == 1

    def test_crash_wipes_task_resources(self, machine_pair):
        import repro as tf

        machine, _, _ = machine_pair
        env = machine.env
        cluster = tf.ClusterSpec({"worker": ["t01n01:8888", "t01n02:8888"]})
        victim = tf.Server(cluster, "worker", 1, machine=machine)
        tf.Server(cluster, "worker", 0, machine=machine)
        victim.runtime.resources.variables["w"] = 123
        injector = FaultInjector(
            FaultPlan.single_crash("worker", 1, at=1.0)
        ).install(machine)
        advance(env, 2.0)
        assert injector.is_down("worker", 1)
        assert "w" not in victim.runtime.resources.variables

    def test_crash_frees_variable_memory_whatever_the_names(self,
                                                            machine_pair):
        """The variable store holds the user's variables and nothing else,
        whatever they are called; the wipe gives their bytes back."""
        import numpy as np

        import repro as tf

        machine, _, _ = machine_pair
        env = machine.env
        cluster = tf.ClusterSpec({"worker": ["t01n01:8888", "t01n02:8888"]})
        victim = tf.Server(cluster, "worker", 1, machine=machine)
        tf.Server(cluster, "worker", 0, machine=machine)
        g = tf.Graph()
        with g.as_default(), g.device("/job:worker/task:1/device:cpu:0"):
            names = ["__mem__x", "w"]
            variables = [tf.Variable(np.ones(4), name=n) for n in names]
        sess = tf.Session(victim, graph=g)
        pool = victim.runtime.memory_pools["/job:worker/task:1/device:cpu:0"]
        before = pool.in_use
        sess.run([v.initializer for v in variables])
        resources = victim.runtime.resources
        assert sorted(resources.variables) == names
        assert pool.in_use == before + 2 * 32
        FaultInjector(FaultPlan.single_crash("worker", 1, at=env.now + 1.0)
                      ).install(machine)
        advance(env, 2.0)
        assert resources.variables == resources.variable_memory == {}
        assert pool.in_use == before

    def test_crash_interrupts_registered_process(self, machine_pair):
        machine, _, _ = machine_pair
        env = machine.env
        injector = FaultInjector(
            FaultPlan.single_crash("worker", 0, at=1.0)
        ).install(machine)
        seen = {}

        def worker():
            try:
                yield env.timeout(100.0)
            except Interrupt as exc:
                seen["cause"] = str(exc.cause)
                return

        proc = env.process(worker())
        injector.register_worker("worker", 0, proc)
        env.run(until=proc)
        assert "crashed at t=1" in seen["cause"]
        assert "/job:worker/task:0" in seen["cause"]


class TestLinkDegradation:
    def test_bandwidth_cut_slows_transfers_then_restores(self, machine_pair):
        machine, a, b = machine_pair
        env = machine.env
        healthy_rate = a.nic_link.rate
        plan = FaultPlan(faults=(
            LinkDegradation("t01n01", at=0.0, duration=5.0,
                            bandwidth_scale=0.1),
        ))
        FaultInjector(plan).install(machine)
        advance(env, 0.1)  # inside the window
        assert a.nic_link.rate == pytest.approx(healthy_rate * 0.1)
        degraded = measure(machine, a.cpu, b.cpu, 4 * MB)
        advance(env, 10.0)  # past the window
        assert a.nic_link.rate == pytest.approx(healthy_rate)
        recovered = measure(machine, a.cpu, b.cpu, 4 * MB)
        assert degraded > 5 * recovered

    def test_extra_latency_charged_per_message(self, machine_pair):
        machine, a, b = machine_pair
        env = machine.env
        baseline = measure(machine, a.cpu, b.cpu, 1024)
        plan = FaultPlan(faults=(
            LinkDegradation("t01n02", at=env.now, duration=50.0,
                            extra_latency=0.25),
        ))
        injector = FaultInjector(plan).install(machine)
        advance(env, 0.01)
        slowed = measure(machine, a.cpu, b.cpu, 1024)
        assert slowed == pytest.approx(baseline + 0.25)
        assert injector.stats["delayed_messages"] == 1

    def test_unknown_link_kind_rejected(self, machine_pair):
        machine, _, _ = machine_pair
        env = machine.env
        plan = FaultPlan(faults=(
            LinkDegradation("t01n01", at=0.0, duration=1.0,
                            bandwidth_scale=0.5, link="carrier-pigeon"),
        ))
        FaultInjector(plan).install(machine)
        proc = env.process(_noop(env))
        with pytest.raises(InvalidArgumentError):
            env.run(until=proc)


def _noop(env):
    yield env.timeout(1.0)


class TestMessageDrop:
    def test_first_n_messages_dropped_then_healthy(self, machine_pair):
        machine, a, b = machine_pair
        env = machine.env
        plan = FaultPlan(faults=(MessageDrop(count=2),))
        injector = FaultInjector(plan).install(machine)

        def mover():
            yield from transports.transfer(a.cpu, b.cpu, 1024, "rdma")

        for _ in range(2):
            proc = env.process(mover())
            with pytest.raises(UnavailableError):
                env.run(until=proc)
        # Budget exhausted: the third attempt sails through.
        proc = env.process(mover())
        env.run(until=proc)
        assert injector.stats["drops"] == 2

    def test_drop_error_names_endpoints_and_protocol(self, machine_pair):
        machine, a, b = machine_pair
        env = machine.env
        FaultInjector(FaultPlan(faults=(MessageDrop(count=1),))).install(machine)

        def mover():
            yield from transports.transfer(a.cpu, b.cpu, 2048, "rdma")

        proc = env.process(mover())
        with pytest.raises(UnavailableError, match=r"t01n01 -> t01n02.*2048.*rdma"):
            env.run(until=proc)

    def test_src_dst_filters(self, machine_pair):
        machine, a, b = machine_pair
        env = machine.env
        plan = FaultPlan(faults=(MessageDrop(src="t01n02", count=10),))
        injector = FaultInjector(plan).install(machine)
        # a -> b does not match src=t01n02.
        measure(machine, a.cpu, b.cpu, 1024)
        assert injector.stats["drops"] == 0

        def mover():
            yield from transports.transfer(b.cpu, a.cpu, 1024, "rdma")

        proc = env.process(mover())
        with pytest.raises(UnavailableError):
            env.run(until=proc)
        assert injector.stats["drops"] == 1

    def test_time_window_respected(self, machine_pair):
        machine, a, b = machine_pair
        env = machine.env
        plan = FaultPlan(faults=(MessageDrop(after=10.0, until=20.0, count=10),))
        injector = FaultInjector(plan).install(machine)
        measure(machine, a.cpu, b.cpu, 1024)  # before the window
        assert injector.stats["drops"] == 0
        advance(env, 15.0)

        def mover():
            yield from transports.transfer(a.cpu, b.cpu, 1024, "rdma")

        proc = env.process(mover())
        with pytest.raises(UnavailableError):
            env.run(until=proc)

    def test_probabilistic_drops_replay_from_seed(self):
        def outcomes(seed):
            env = Environment()
            machine = tegner(env, k420_nodes=2)
            a, b = machine.node("t01n01"), machine.node("t01n02")
            plan = FaultPlan(
                faults=(MessageDrop(count=100, probability=0.5),), seed=seed
            )
            FaultInjector(plan).install(machine)
            dropped = []

            def mover():
                yield from transports.transfer(a.cpu, b.cpu, 1024, "rdma")

            for _ in range(20):
                proc = env.process(mover())
                try:
                    env.run(until=proc)
                    dropped.append(False)
                except UnavailableError:
                    dropped.append(True)
            return dropped

        first = outcomes(3)
        assert first == outcomes(3)  # byte-for-byte replay
        assert True in first and False in first
        assert first != outcomes(4)  # and the seed actually matters
