"""Detection and recovery: deadlines, retries, crash-safe checkpoints.

The PR-level contract: a lost worker turns into a diagnosable
``DeadlineExceededError`` (never a silent hang) in BOTH executor lanes,
transient message loss is absorbed by the session's retry policy, and a
crash mid-checkpoint can never destroy the previous good snapshot.
"""

import gc
import os
import weakref

import numpy as np
import pytest

import repro as tf
from repro.apps.common import build_cluster, task_device
from repro.core.checkpoint import (
    Saver,
    checkpoint_step,
    latest_checkpoint,
    read_checkpoint,
)
from repro.core.executor import (
    DEFAULT_COLLECTIVE_JOIN_TIMEOUT,
    ExecutionState,
    _CollectiveGroup,
)
from repro.errors import (
    DataLossError,
    DeadlineExceededError,
    InvalidArgumentError,
    UnavailableError,
)
from repro.runtime.retry import RetryPolicy, retry_gen
from repro.simnet.events import Environment
from repro.simnet.faults import FaultPlan, LinkDegradation, MessageDrop


def lane_config(fast, **kwargs):
    """SessionConfig pinned to one executor lane."""
    return tf.SessionConfig(executor_fast_path=fast,
                            graph_optimization=fast, **kwargs)


def two_worker_allreduce():
    handle = build_cluster("tegner-k420", {"worker": 2})
    g = tf.Graph()
    with g.as_default():
        inputs = []
        for w in range(2):
            with g.device(task_device("worker", w, "cpu", 0)):
                inputs.append(tf.constant(np.ones(8), name=f"x{w}"))
        outs = tf.all_reduce(inputs)
    return handle, g, outs


class TestCollectiveJoinDeadline:
    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "legacy"])
    def test_dropped_rank_names_the_missing_rank(self, fast):
        """The acceptance scenario, in both lanes: crash worker 1 before
        the run; rank 0's collective leg must fail with a deadline error
        naming rank 1 instead of deadlocking the ring."""
        handle, g, outs = two_worker_allreduce()
        tf.FaultInjector(
            tf.FaultPlan.single_crash("worker", 1, at=0.0)
        ).install(handle.machine)
        sess = tf.Session(handle.server("worker", 0), graph=g,
                          config=lane_config(fast, operation_timeout_ms=100.0))
        metadata = tf.RunMetadata()
        with pytest.raises(
            DeadlineExceededError,
            match=r"rank\(s\) \[1\] of world 2 never arrived.*arrived: \[0\]",
        ):
            sess.run(outs, run_metadata=metadata)
        assert metadata.deadline_exceeded >= 1
        assert metadata.stalled_items >= 1

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "legacy"])
    def test_deadline_error_reports_down_tasks(self, fast):
        handle, g, outs = two_worker_allreduce()
        tf.FaultInjector(
            tf.FaultPlan.single_crash("worker", 1, at=0.0)
        ).install(handle.machine)
        sess = tf.Session(handle.server("worker", 0), graph=g,
                          config=lane_config(fast, operation_timeout_ms=50.0))
        with pytest.raises(DeadlineExceededError,
                           match=r"tasks down: \[\('worker', 1\)\]"):
            sess.run(outs)

    def test_healthy_run_unaffected_by_timeout(self):
        handle, g, outs = two_worker_allreduce()
        sess = tf.Session(handle.server("worker", 0), graph=g,
                          config=lane_config(True,
                                             operation_timeout_ms=100.0))
        values = sess.run(outs)
        for v in values:
            np.testing.assert_array_equal(np.asarray(v), np.full(8, 2.0))

    def test_default_join_timeout_guards_even_without_config(self):
        """No operation_timeout_ms set: the collective join still cannot
        hang forever — the 300 sim-second default watchdog fires."""
        assert DEFAULT_COLLECTIVE_JOIN_TIMEOUT == 300.0
        handle, g, outs = two_worker_allreduce()
        tf.FaultInjector(
            tf.FaultPlan.single_crash("worker", 1, at=0.0)
        ).install(handle.machine)
        sess = tf.Session(handle.server("worker", 0), graph=g,
                          config=lane_config(True))
        with pytest.raises(DeadlineExceededError, match=r"300 sim-seconds"):
            sess.run(outs)


def _live(cls):
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


class TestDeadlineTimersReleaseFinishedRuns:
    """Regression: every deadline timer (collective join, run
    watchdog) stayed in the calendar with a closure over its run until
    the *simulated* clock passed it — 300 sim-seconds for the join
    watchdog, ~600 000 runs away — pinning each finished run's
    collective group (per-rank inputs and results) and, with
    ``operation_timeout_ms`` set, its whole ExecutionState."""

    @pytest.mark.parametrize("timeout_ms", [None, 60_000.0],
                             ids=["default-join-timeout", "operation-timeout"])
    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "legacy"])
    def test_finished_runs_are_not_pinned(self, fast, timeout_ms):
        handle = build_cluster("tegner-k420", {"worker": 2})
        g = tf.Graph()
        with g.as_default():
            phs = []
            for w in range(2):
                with g.device(task_device("worker", w, "cpu", 0)):
                    phs.append(tf.placeholder(tf.float64, shape=[1024],
                                              name=f"x{w}"))
            outs = tf.all_reduce(phs)
            with g.device(task_device("worker", 0, "cpu", 0)):
                # A cross-worker edge: rank 1's copy is recv'd on worker 0.
                total = tf.add(outs[0], outs[1])
        sess = tf.Session(handle.server("worker", 0), graph=g,
                          config=lane_config(
                              fast, operation_timeout_ms=timeout_ms))
        feeds = {ph: np.full(1024, w + 1.0) for w, ph in enumerate(phs)}
        groups, states = _live(_CollectiveGroup), _live(ExecutionState)

        # Same fetches every run: the cached plan holds no run's values,
        # so nothing legitimate keeps any finished run's.
        first = sess.run(outs + [total], feed_dict=feeds)
        np.testing.assert_array_equal(first[2], np.full(1024, 6.0))
        first_result = weakref.ref(first[0])
        del first
        for _ in range(25):
            sess.run(outs + [total], feed_dict=feeds)

        assert first_result() is None
        assert _live(_CollectiveGroup) == groups
        assert _live(ExecutionState) == states


class TestFailedRunReturnsItsMemory:
    """Regression: ``_fail`` stops dispatch, but a timeout the failed run
    had armed stays in the calendar and fires inside the *next* run; its
    continuation registered outputs on the dead run's state, whose
    ``release_all`` had already run, so the allocation was never freed —
    1 MiB of simulated device memory per failed run here (gpu:0 on the
    dispatcher, cpu:0 on the reference lane, whose zombie processes run
    the whole chain). The clock is not part of the fix: the instants
    below were recorded on the parent commit, identical on both lanes."""

    GOOD_RUN_CLOCKS = [
        "0x1.5c5ece83947f9p-10", "0x1.1501a30959ee6p-9",
        "0x1.7bd3ded0e99d1p-9", "0x1.e2a61a98794bcp-9",
        "0x1.24bc2b30047d3p-8",
    ]

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "legacy"])
    def test_failed_then_good_runs_return_to_baseline(self, fast):
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, (512, 512), name="x")
            # Shapes left open: the bad matmul is the kernel's discovery,
            # made while gpu:0's first matmul is still in flight.
            p = tf.placeholder(tf.float32, [None, None], name="p")
            q = tf.placeholder(tf.float32, [None, None], name="q")
            with g.device("/gpu:0"):
                chain = tf.matmul(tf.matmul(x, x), x)
            with g.device("/gpu:1"):
                other = tf.matmul(p, q)
        sess = tf.Session(graph=g, config=tf.SessionConfig(
            num_gpus=2, executor_fast_path=fast))
        pools = sess.master.runtime.memory_pools
        feed = {x: np.ones((512, 512), np.float32),
                p: np.ones((2, 3), np.float32)}
        good = {**feed, q: np.ones((3, 2), np.float32)}
        bad = {**feed, q: np.ones((2, 3), np.float32)}

        expected = sess.run([chain, other], feed_dict=good)
        assert sess.env.now.hex() == "0x1.1d74ade8ea44cp-11"
        baseline = {name: pool.in_use for name, pool in pools.items()}
        for clock in self.GOOD_RUN_CLOCKS:
            with pytest.raises(InvalidArgumentError,
                               match=r"MatMul operand shapes \(2, 3\) and "
                                     r"\(2, 3\).*\[op: MatMul_2\]"):
                sess.run([chain, other], feed_dict=bad)
            values = sess.run([chain, other], feed_dict=good)
            for value, want in zip(values, expected):
                np.testing.assert_array_equal(value, want)
            assert sess.env.now.hex() == clock
            assert {n: pool.in_use for n, pool in pools.items()} == baseline


class TestLateCompletionLandsInTheDeadRun:
    """A run failed by its deadline leaves an op's cost timeout armed; it
    fires inside the next run of the same cached plan. The completion
    writes the *dead* run's slots — until PR 21 it wrote the plan item
    the live run had already filled, and the live run fetched the dead
    run's value."""

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "legacy"])
    def test_next_run_of_the_plan_fetches_its_own_values(
            self, fast, monkeypatch):
        from repro.core import session as session_module

        g = tf.Graph()
        with g.as_default():
            # cpu:0 has a slot per core, so the live run's `first` does
            # not queue behind the dead run's: it finishes (small feed)
            # while the dead one (big feed) is still being charged.
            with g.device("/cpu:0"):
                x = tf.placeholder(tf.float32, [None, None], name="x")
                w = tf.placeholder(tf.float32, [None, None], name="w")
                first = tf.matmul(x, x, name="first")
                with g.control_dependencies([first.op]):
                    # Outlasts the dead run's `first`: the live run is
                    # still in flight when the late completion lands.
                    second = tf.matmul(w, w, name="second")
        big = np.full((256, 256), 0.5, np.float32)
        small = np.arange(16, dtype=np.float32).reshape(4, 4)

        states = []
        launch = session_module.launch_plan

        def recording_launch(state):
            states.append(state)
            return launch(state)

        monkeypatch.setattr(session_module, "launch_plan", recording_launch)
        sess = tf.Session(graph=g, config=tf.SessionConfig(
            executor_fast_path=fast, operation_timeout_ms=1e-3))
        with pytest.raises(DeadlineExceededError):
            sess.run([first, second], feed_dict={x: big, w: big})
        sess.config.operation_timeout_ms = None
        got = sess.run([first, second], feed_dict={x: small, w: big})

        with tf.Session(graph=g, config=tf.SessionConfig(
                executor_fast_path=fast)) as fresh:
            want = fresh.run([first, second], feed_dict={x: small, w: big})
        for value, expected in zip(got, want):
            assert value.tobytes() == expected.tobytes()

        dead, live = states[:2]
        assert dead.plan is live.plan  # one cached plan, a hit
        (uid,) = (i.uid for i in live.plan.items
                  if i.op is not None and i.op.name == "first")
        assert live.values[uid][0].tobytes() == (small @ small).tobytes()
        # ... and the late completion did happen, in the dead run's slot.
        assert dead.values[uid][0].tobytes() == (big @ big).tobytes()


class TestRecvDeadline:
    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "legacy"])
    def test_cross_worker_edge_to_dead_producer(self, fast):
        """A plain send/recv edge whose producer died: the recv is never
        dispatched (its send is parked), so the run watchdog fires
        (listing the stalled items) instead of the run waiting forever."""
        handle = build_cluster("tegner-k420", {"worker": 2})
        g = tf.Graph()
        with g.as_default():
            with g.device(task_device("worker", 1, "cpu", 0)):
                x = tf.constant(np.arange(4.0), name="x")
            with g.device(task_device("worker", 0, "cpu", 0)):
                y = tf.identity(x, name="y")
        tf.FaultInjector(
            tf.FaultPlan.single_crash("worker", 1, at=0.0)
        ).install(handle.machine)
        # graph_optimization off in both lanes: constant folding would
        # otherwise collapse the cross-worker edge this test needs.
        config = tf.SessionConfig(executor_fast_path=fast,
                                  graph_optimization=False,
                                  operation_timeout_ms=50.0)
        sess = tf.Session(handle.server("worker", 0), graph=g, config=config)
        with pytest.raises(DeadlineExceededError):
            sess.run(y)

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "legacy"])
    def test_run_deadline_names_the_send_in_flight(self, fast):
        """A live producer behind a degraded link: the send started but
        its transfer outlasts the run deadline, and the watchdog says
        which transfer the run was waiting for."""
        handle = build_cluster("tegner-k420", {"worker": 2})
        g = tf.Graph()
        with g.as_default():
            with g.device(task_device("worker", 1, "cpu", 0)):
                x = tf.constant(np.arange(4.0), name="x")
            with g.device(task_device("worker", 0, "cpu", 0)):
                y = tf.identity(x, name="y")
        node = handle.server("worker", 1).runtime.node.name
        tf.FaultInjector(FaultPlan(faults=(
            LinkDegradation(node, at=0.0, duration=100.0, extra_latency=10.0),
        ))).install(handle.machine)
        config = tf.SessionConfig(executor_fast_path=fast,
                                  graph_optimization=False,
                                  operation_timeout_ms=50.0)
        sess = tf.Session(handle.server("worker", 0), graph=g, config=config)
        with pytest.raises(
            DeadlineExceededError,
            match=r"3 of 4 plan items incomplete; sends still in flight: "
                  r"\['send:x:0@/job:worker/task:1/device:cpu:0 -> "
                  r"/job:worker/task:0/device:cpu:0'\]$",
        ):
            sess.run(y)


class TestRetryPolicy:
    def test_delay_schedule_caps_at_max_backoff(self):
        policy = RetryPolicy(max_attempts=5, initial_backoff=0.1,
                             multiplier=2.0, max_backoff=0.3)
        assert list(policy.delays()) == pytest.approx([0.1, 0.2, 0.3, 0.3])

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(InvalidArgumentError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(InvalidArgumentError):
            RetryPolicy(initial_backoff=-1.0)

    def test_retry_gen_succeeds_after_transient_failures(self):
        env = Environment()
        calls = {"n": 0}

        def attempt():
            calls["n"] += 1
            if calls["n"] < 3:
                raise UnavailableError("flaky")
            return calls["n"]
            yield  # pragma: no cover — marks this as a generator

        def driver():
            value = yield from retry_gen(
                env, attempt, RetryPolicy(initial_backoff=0.5, multiplier=2.0)
            )
            return value

        proc = env.process(driver())
        env.run(until=proc)
        assert calls["n"] == 3
        assert env.now == pytest.approx(0.5 + 1.0)  # two backoffs elapsed

    def test_retry_gen_exhausts_attempts(self):
        env = Environment()

        def attempt():
            raise UnavailableError("always down")
            yield  # pragma: no cover

        proc = env.process(retry_gen(
            env, attempt, RetryPolicy(max_attempts=3, initial_backoff=0.01)
        ))
        with pytest.raises(UnavailableError, match="always down"):
            env.run(until=proc)

    def test_retry_gen_none_policy_passthrough(self):
        env = Environment()

        def attempt():
            raise UnavailableError("no retries configured")
            yield  # pragma: no cover

        proc = env.process(retry_gen(env, attempt, None))
        with pytest.raises(UnavailableError):
            env.run(until=proc)

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "legacy"])
    def test_session_absorbs_message_drops(self, fast):
        """Transient drops on the wire: the send edge retries under the
        session's policy and the run completes with correct values."""
        handle = build_cluster("tegner-k420", {"worker": 2})
        g = tf.Graph()
        with g.as_default():
            with g.device(task_device("worker", 1, "cpu", 0)):
                x = tf.constant(np.arange(4.0), name="x")
            with g.device(task_device("worker", 0, "cpu", 0)):
                y = tf.identity(x, name="y")
        injector = tf.FaultInjector(
            FaultPlan(faults=(MessageDrop(count=2),))
        ).install(handle.machine)
        # Keep the cross-worker edge: no constant folding.
        config = tf.SessionConfig(executor_fast_path=fast,
                                  graph_optimization=False,
                                  retry_policy=RetryPolicy())
        sess = tf.Session(handle.server("worker", 0), graph=g, config=config)
        metadata = tf.RunMetadata()
        value = sess.run(y, run_metadata=metadata)
        np.testing.assert_array_equal(np.asarray(value), np.arange(4.0))
        assert injector.stats["drops"] == 2
        assert metadata.retries == 2

    def test_drops_without_policy_fail_the_run(self):
        handle = build_cluster("tegner-k420", {"worker": 2})
        g = tf.Graph()
        with g.as_default():
            with g.device(task_device("worker", 1, "cpu", 0)):
                x = tf.constant(np.arange(4.0), name="x")
            with g.device(task_device("worker", 0, "cpu", 0)):
                y = tf.identity(x, name="y")
        tf.FaultInjector(
            FaultPlan(faults=(MessageDrop(count=1),))
        ).install(handle.machine)
        sess = tf.Session(handle.server("worker", 0), graph=g,
                          config=tf.SessionConfig(graph_optimization=False))
        with pytest.raises(UnavailableError, match="dropped"):
            sess.run(y)


def _single_var_session(tmp_path):
    g = tf.Graph()
    with g.as_default():
        v = tf.Variable(np.arange(4.0), name="state")
        bump = tf.assign_add(v, tf.constant(np.ones(4)))
        saver = Saver(graph=g)
    sess = tf.Session(graph=g)
    sess.run(v.initializer)
    return sess, saver, bump, v


class TestCrashSafeCheckpoints:
    def test_save_leaves_no_tmp_file(self, tmp_path):
        sess, saver, _, _ = _single_var_session(tmp_path)
        path = saver.save(sess, str(tmp_path / "ckpt"), global_step=1)
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")

    def test_crash_mid_save_keeps_previous_checkpoint(self, tmp_path):
        """A kill mid-write leaves a ``.tmp`` (or a truncated file under
        a *different* name) — the previous snapshot must stay the one
        latest_checkpoint resolves, and must load cleanly."""
        sess, saver, bump, v = _single_var_session(tmp_path)
        good = saver.save(sess, str(tmp_path / "ckpt"), global_step=5)
        # Simulated mid-write kill: the temp file of the step-10 save
        # survives, the rename never happened.
        blob = open(good, "rb").read()
        with open(tmp_path / "ckpt-10.tmp", "wb") as f:
            f.write(blob[: len(blob) // 2])
        assert latest_checkpoint(str(tmp_path), prefix="ckpt") == good
        saver.restore(sess, good)
        np.testing.assert_array_equal(sess.run(v), np.arange(4.0))

    def test_truncated_checkpoint_raises_dataloss_and_is_skipped(
            self, tmp_path):
        sess, saver, _, _ = _single_var_session(tmp_path)
        good = saver.save(sess, str(tmp_path / "ckpt"), global_step=5)
        blob = open(good, "rb").read()
        bad = tmp_path / "ckpt-10"  # newer step, torn bytes
        bad.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(DataLossError, match="ckpt-10"):
            read_checkpoint(str(bad))
        # Validation walks back to the newest intact snapshot…
        assert latest_checkpoint(str(tmp_path), prefix="ckpt") == good
        # …and only an explicit validate=False returns the torn one.
        assert latest_checkpoint(str(tmp_path), prefix="ckpt",
                                 validate=False) == str(bad)

    def test_bad_magic_raises_dataloss(self, tmp_path):
        bad = tmp_path / "ckpt-3"
        bad.write_bytes(b"GARBAGE BYTES")
        with pytest.raises(DataLossError, match="not a repro checkpoint"):
            read_checkpoint(str(bad))
        assert latest_checkpoint(str(tmp_path), prefix="ckpt") is None

    def test_checkpoint_step_parsing(self, tmp_path):
        assert checkpoint_step("/ckpts/sgd-42") == 42
        with pytest.raises(InvalidArgumentError):
            checkpoint_step("/ckpts/untagged")
