"""Many threads, one Session: locking, shared plans, cache churn.

The serving layer's workers all call ``Session.run`` on a shared
session, so the plan cache's lookup/insert/evict path must hold up
under real thread interleavings, and one cached plan must serve any
number of runs at once (plans are immutable; each run's values live in
its own ``ExecutionState``). These tests hammer both regimes:

* hot-plan contention — one signature, many threads, so concurrent
  runs execute the *same* plan object: only the threads that raced the
  first ``build_plan`` may miss, every later run is a hit;
* cache churn — more distinct signatures than ``_PLAN_CACHE_CAPACITY``,
  so eviction runs concurrently with lookups and insertions.

Correctness oracle: every run's numerical result matches NumPy, the
hit/miss counters exactly partition the runs, every miss is accounted
for as a resident or an evicted plan, and the cache ends exactly full.
"""

import sys
import threading

import numpy as np

import repro as tf
from repro.core.session import _PLAN_CACHE_CAPACITY


def _run_threads(workers):
    """Start, join, and re-raise the first exception from any worker."""
    errors = []

    def wrap(fn):
        def runner():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        return runner

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not any(t.is_alive() for t in threads), "worker thread hung"
    if errors:
        raise errors[0]


class TestHotPlanContention:
    def test_many_threads_share_one_signature(self):
        """All threads race for one cached plan; results stay correct."""
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, [None, 4], name="x")
            w = tf.constant(np.eye(4, dtype=np.float32) * 3.0, name="w")
            y = tf.add(tf.matmul(x, w), tf.constant(1.0), name="y")
        sess = tf.Session(graph=g)
        num_threads, runs_each = 8, 10
        barrier = threading.Barrier(num_threads)

        def worker(seed):
            def body():
                rng = np.random.default_rng(seed)
                barrier.wait()
                for _ in range(runs_each):
                    payload = rng.random((2, 4), dtype=np.float32)
                    out = sess.run(y, feed_dict={x: payload})
                    np.testing.assert_allclose(
                        out, payload @ (np.eye(4, dtype=np.float32) * 3.0) + 1.0,
                        rtol=1e-6,
                    )

            return body

        # Switch threads every few bytecodes: lookups land while other
        # threads' runs of the same plan are mid-flight.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads([worker(i) for i in range(num_threads)])
        finally:
            sys.setswitchinterval(interval)

        info = sess.plan_cache_info()
        total = num_threads * runs_each
        # Every run is either a hit or a miss — no lookup is lost or
        # double-counted under contention.
        assert info["hits"] + info["misses"] == total
        # build_plan runs outside _cache_lock, so each thread's *first*
        # run may race the first build and miss; once a plan is cached
        # every lookup hits, however many runs are executing it.
        assert 1 <= info["misses"] <= num_threads
        # One signature: at most one resident plan, never any eviction.
        assert info["plans"] == 1
        assert info["evictions"] == 0

    def test_a_plan_in_flight_on_one_thread_is_a_hit_on_another(
            self, monkeypatch):
        """Thread B looks the plan up while thread A is executing it:
        one miss (A's build) and one hit, row-exact results for both."""
        from repro.core import session as session_module

        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, [None, 4], name="x")
            y = tf.multiply(x, tf.constant(3.0), name="y")
        sess = tf.Session(graph=g)
        a_in_flight, b_prepared = threading.Event(), threading.Event()
        results = {}

        launch = session_module.launch_plan

        def launch_a_then_wait_for_b(state):
            if threading.current_thread().name == "A":
                a_in_flight.set()
                assert b_prepared.wait(30)
            return launch(state)

        prepare = sess._prepare_run

        def prepare_and_tell_a(*args):
            if threading.current_thread().name == "B":
                assert a_in_flight.wait(30)
            prepared = prepare(*args)
            if threading.current_thread().name == "B":
                b_prepared.set()
            return prepared

        monkeypatch.setattr(
            session_module, "launch_plan", launch_a_then_wait_for_b
        )
        monkeypatch.setattr(sess, "_prepare_run", prepare_and_tell_a)

        def worker(name, scale):
            def body():
                threading.current_thread().name = name
                payload = np.full((2, 4), scale, np.float32)
                results[name] = sess.run(y, feed_dict={x: payload})

            return body

        _run_threads([worker("A", 1.0), worker("B", 2.0)])

        np.testing.assert_array_equal(
            results["A"], np.full((2, 4), 3.0, np.float32))
        np.testing.assert_array_equal(
            results["B"], np.full((2, 4), 6.0, np.float32))
        info = sess.plan_cache_info()
        assert (info["misses"], info["hits"], info["plans"]) == (1, 1, 1)

    def test_concurrent_results_match_serial_baseline(self):
        """Thread interleaving must not perturb any run's bytes."""
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, [None, 3], name="x")
            y = tf.sigmoid(tf.multiply(x, tf.constant(2.0)), name="y")
        rng = np.random.default_rng(3)
        payloads = [rng.random((4, 3), dtype=np.float32) for _ in range(24)]

        baseline_sess = tf.Session(graph=g)
        baseline = [
            baseline_sess.run(y, feed_dict={x: p}) for p in payloads
        ]

        sess = tf.Session(graph=g)
        results = [None] * len(payloads)

        def worker(index):
            def body():
                results[index] = sess.run(y, feed_dict={x: payloads[index]})

            return body

        _run_threads([worker(i) for i in range(len(payloads))])
        for got, want in zip(results, baseline):
            assert got.tobytes() == want.tobytes()


class TestCacheChurn:
    def test_eviction_races_with_concurrent_runs(self):
        """More signatures than capacity, from many threads at once."""
        num_signatures = _PLAN_CACHE_CAPACITY + 32
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, [None, 2], name="x")
            # Each distinct fetch name is a distinct cache signature.
            fetches = [
                tf.add(x, tf.constant(float(i)), name=f"shift{i}")
                for i in range(num_signatures)
            ]
        sess = tf.Session(graph=g)
        payload = np.ones((1, 2), dtype=np.float32)
        num_threads = 8
        chunks = [fetches[i::num_threads] for i in range(num_threads)]

        def worker(chunk):
            def body():
                for index, fetch in chunk:
                    out = sess.run(fetch, feed_dict={x: payload})
                    np.testing.assert_allclose(out, payload + float(index))

            return body

        indexed = [
            [(fetches.index(f), f) for f in chunk] for chunk in chunks
        ]
        _run_threads([worker(chunk) for chunk in indexed])

        info = sess.plan_cache_info()
        assert info["hits"] + info["misses"] == num_signatures
        assert info["misses"] == num_signatures  # all distinct signatures
        # The LRU bound held even while eviction raced with inserts.
        assert info["plans"] <= info["capacity"] == _PLAN_CACHE_CAPACITY
        # Plain LRU: the cache ends exactly full, and every plan built is
        # either resident or was evicted — nothing is skipped or kept over.
        assert info["plans"] == _PLAN_CACHE_CAPACITY
        assert info["evictions"] == info["misses"] - info["plans"]

        # Revisiting an evicted signature rebuilds and still computes.
        out = sess.run(fetches[0], feed_dict={x: payload})
        np.testing.assert_allclose(out, payload)

    def test_churn_with_repeat_visits_keeps_counters_consistent(self):
        """Hits and misses stay an exact partition under re-runs."""
        num_signatures = _PLAN_CACHE_CAPACITY + 8
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, [None, 2], name="x")
            fetches = [
                tf.multiply(x, tf.constant(float(i + 1)), name=f"scale{i}")
                for i in range(num_signatures)
            ]
        sess = tf.Session(graph=g)
        payload = np.full((1, 2), 2.0, dtype=np.float32)
        rounds = 2

        def worker(offset):
            def body():
                for r in range(rounds):
                    for i in range(offset, num_signatures, 4):
                        out = sess.run(fetches[i], feed_dict={x: payload})
                        np.testing.assert_allclose(
                            out, payload * float(i + 1)
                        )

            return body

        _run_threads([worker(i) for i in range(4)])

        info = sess.plan_cache_info()
        assert info["hits"] + info["misses"] == rounds * num_signatures
        # Each signature belongs to one thread, so every miss inserted a
        # new key: resident + evicted plans account for all of them.
        assert info["plans"] == _PLAN_CACHE_CAPACITY
        assert info["evictions"] == info["misses"] - info["plans"] > 0
