"""Many threads, one Session: locking, in-flight guard, cache churn.

The serving layer's workers all call ``Session.run`` on a shared
session, so the plan cache's lookup/insert/evict path and the
in-flight-plan guard must hold up under real thread interleavings.
These tests hammer both regimes:

* hot-plan contention — few signatures, many threads, so concurrent
  runs race for the *same* cached plan and the in-flight guard must
  hand out duplicates rather than shared mutable plan state;
* cache churn — more distinct signatures than ``_PLAN_CACHE_CAPACITY``,
  so eviction runs concurrently with lookups and insertions.

Correctness oracle: every run's numerical result matches NumPy, the
hit/miss counters exactly partition the runs, the cache never exceeds
capacity, and no plan is left registered as in-flight afterwards.
"""

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

        _run_threads([worker(i) for i in range(num_threads)])

        info = sess.plan_cache_info()
        total = num_threads * runs_each
        # Every run is either a hit or a miss — no lookup is lost or
        # double-counted under contention.
        assert info["hits"] + info["misses"] == total
        assert info["hits"] >= 1  # the hot plan did get reused
        # One signature: at most one resident plan, never any eviction.
        assert info["plans"] == 1
        assert info["evictions"] == 0
        # The in-flight guard must fully unwind once runs complete.
        assert sess._plans_in_flight == set()

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
        assert info["evictions"] >= num_signatures - _PLAN_CACHE_CAPACITY
        assert sess._plans_in_flight == set()

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
        assert info["plans"] <= _PLAN_CACHE_CAPACITY
        assert info["evictions"] > 0
        assert sess._plans_in_flight == set()
