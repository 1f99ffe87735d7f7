"""ModelServer end-to-end: byte-identity, deadlines, tenants, accounting."""


import numpy as np
import pytest

import repro as tf
from repro.apps.serving import build_mlp_server, mlp_reference, run_serving_load
from repro.errors import (
    AlreadyExistsError,
    CancelledError,
    DeadlineExceededError,
    InvalidArgumentError,
    NotFoundError,
    ResourceExhaustedError,
)
from repro.serving import ModelServer, ServingConfig


def _affine_graph(features=6):
    """Row-independent arithmetic: batched == unbatched byte-for-byte."""
    rng = np.random.default_rng(7)
    g = tf.Graph()
    with g.as_default():
        x = tf.placeholder(tf.float32, [None, features], name="x")
        w = tf.constant(
            rng.standard_normal((features, features)).astype(np.float32),
            name="w",
        )
        b = tf.constant(
            rng.standard_normal(features).astype(np.float32), name="b"
        )
        y = tf.sigmoid(tf.add(tf.matmul(x, w), b), name="y")
    return g, x, y


class TestByteIdentity:
    def test_micro_batched_results_byte_identical_to_individual_runs(self):
        """The acceptance property: coalescing must not change one byte."""
        g, x, y = _affine_graph()
        rng = np.random.default_rng(11)
        # Mixed rows-per-request exercises uneven scatter offsets.
        payloads = [
            rng.random((rows, 6), dtype=np.float32)
            for rows in (1, 3, 1, 2, 1, 1, 4, 1)
        ]
        reference_sess = tf.Session(graph=g)
        references = [
            reference_sess.run(y, feed_dict={x: p}) for p in payloads
        ]

        server = ModelServer(
            graph=g,
            config=ServingConfig(
                max_batch_size=len(payloads), batch_window_ms=20.0,
            ),
        )
        server.register_signature("affine", {"x": x}, y)
        with server:
            futures = [
                server.submit_async(f"tenant-{i % 3}", "affine", {"x": p})
                for i, p in enumerate(payloads)
            ]
            responses = [f.result(30) for f in futures]

        for response, reference in zip(responses, references):
            assert response.outputs.dtype == reference.dtype
            assert response.outputs.shape == reference.shape
            assert response.outputs.tobytes() == reference.tobytes()
        # The point of batching: fewer runs than requests actually happened.
        assert max(r.batch_size for r in responses) > 1

    def test_batched_execution_reuses_one_cached_plan(self):
        g, x, y = _affine_graph()
        server = ModelServer(
            graph=g, config=ServingConfig(max_batch_size=4)
        )
        server.register_signature("affine", {"x": x}, y)
        rng = np.random.default_rng(0)
        with server:
            for rows in (1, 2, 5, 1, 3):  # varying batch shapes
                server.submit("t", "affine", {"x": rng.random((rows, 6), dtype=np.float32)})
        info = server.session.plan_cache_info()
        assert info["plans"] == 1  # one signature -> one plan, any batch size
        assert info["misses"] == 1
        assert info["hits"] >= 4
        assert info["capacity"] > 0
        assert info["evictions"] == 0


class TestAdmissionIntegration:
    def test_deadline_expired_in_queue_rejected_at_dispatch(self):
        g, x, y = _affine_graph()
        server = ModelServer(
            graph=g, config=ServingConfig(max_batch_size=4)
        )
        server.register_signature("affine", {"x": x}, y)
        payload = {"x": np.zeros((1, 6), np.float32)}
        # Submit before start: requests queue with nobody dispatching, so
        # a tight deadline deterministically expires in the queue.
        future = server.submit_async("late", "affine", payload, deadline_ms=1.0)
        healthy = server.submit_async("ok", "affine", payload)
        import time

        time.sleep(0.01)
        with server:
            healthy.result(30)
            with pytest.raises(DeadlineExceededError, match="queue"):
                future.result(30)
        stats = server.tenant_stats("late")
        assert stats.rejected_deadline == 1
        assert stats.completed == 0

    def test_dead_on_arrival_rejected_at_admission(self):
        g, x, y = _affine_graph()
        server = ModelServer(graph=g)
        server.register_signature("affine", {"x": x}, y)
        with pytest.raises(DeadlineExceededError, match="admission"):
            server.submit_async(
                "t", "affine", {"x": np.zeros((1, 6), np.float32)},
                deadline_ms=-5.0,
            )
        assert server.tenant_stats("t").rejected_deadline == 1

    def test_queue_full_backpressure(self):
        g, x, y = _affine_graph()
        server = ModelServer(
            graph=g, config=ServingConfig(max_queue=2)
        )
        server.register_signature("affine", {"x": x}, y)
        payload = {"x": np.zeros((1, 6), np.float32)}
        server.submit_async("t", "affine", payload)
        server.submit_async("t", "affine", payload)
        with pytest.raises(ResourceExhaustedError, match="full"):
            server.submit_async("t", "affine", payload)
        assert server.tenant_stats("t").rejected_queue_full == 1

    def test_per_tenant_quota_isolates_tenants(self):
        g, x, y = _affine_graph()
        server = ModelServer(
            graph=g,
            config=ServingConfig(max_queue=16, per_tenant_quota=1),
        )
        server.register_signature("affine", {"x": x}, y)
        payload = {"x": np.zeros((1, 6), np.float32)}
        server.submit_async("greedy", "affine", payload)
        with pytest.raises(ResourceExhaustedError, match="quota"):
            server.submit_async("greedy", "affine", payload)
        # The other tenant still gets in.
        server.submit_async("modest", "affine", payload)
        assert server.tenant_stats("greedy").rejected_quota == 1
        assert server.tenant_stats("modest").rejected_quota == 0


class TestLifecycleAndErrors:
    def test_unknown_signature(self):
        g, x, y = _affine_graph()
        server = ModelServer(graph=g)
        server.register_signature("affine", {"x": x}, y)
        with pytest.raises(NotFoundError, match="affine"):
            server.submit_async("t", "nope", {"x": np.zeros((1, 6))})

    def test_duplicate_signature(self):
        g, x, y = _affine_graph()
        server = ModelServer(graph=g)
        server.register_signature("affine", {"x": x}, y)
        with pytest.raises(AlreadyExistsError):
            server.register_signature("affine", {"x": x}, y)

    def test_start_requires_a_signature(self):
        g, _, _ = _affine_graph()
        from repro.errors import FailedPreconditionError

        with pytest.raises(FailedPreconditionError, match="signature"):
            ModelServer(graph=g).start()

    def test_max_batch_size_below_one_rejected(self):
        # A worker asked for zero requests per batch leaves every request
        # queued and spins; the config is refused before a server exists.
        g, _, _ = _affine_graph()
        for size in (0, -1):
            with pytest.raises(InvalidArgumentError, match="max_batch_size"):
                ModelServer(graph=g, config=ServingConfig(max_batch_size=size))

    def test_stop_without_drain_cancels_queued_requests(self):
        g, x, y = _affine_graph()
        server = ModelServer(graph=g)
        server.register_signature("affine", {"x": x}, y)
        future = server.submit_async(
            "t", "affine", {"x": np.zeros((1, 6), np.float32)}
        )
        server.stop(drain=False)  # never started: queue is cancelled
        with pytest.raises(CancelledError):
            future.result(5)
        with pytest.raises(CancelledError):
            server.submit_async(
                "t", "affine", {"x": np.zeros((1, 6), np.float32)}
            )

    def test_stop_with_drain_serves_queued_requests(self):
        g, x, y = _affine_graph()
        server = ModelServer(
            graph=g, config=ServingConfig(max_batch_size=4)
        )
        server.register_signature("affine", {"x": x}, y)
        futures = [
            server.submit_async(
                "t", "affine", {"x": np.zeros((1, 6), np.float32)}
            )
            for _ in range(6)
        ]
        server.start()
        server.stop(drain=True)
        for future in futures:
            assert future.result(0.0).outputs.shape == (1, 6)


class TestMultiSignature:
    def test_signatures_never_batch_together_but_share_the_session(self):
        rng = np.random.default_rng(5)
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, [None, 4], name="x")
            w = tf.constant(
                rng.standard_normal((4, 4)).astype(np.float32), name="w"
            )
            double = tf.multiply(x, tf.constant(2.0), name="double")
            project = tf.matmul(x, w, name="project")
        server = ModelServer(
            graph=g,
            config=ServingConfig(
                max_batch_size=8, batch_window_ms=5.0
            ),
        )
        server.register_signature("double", {"x": x}, double)
        server.register_signature("project", {"x": x}, project)
        payloads = [rng.random((1, 4), dtype=np.float32) for _ in range(12)]
        with server:
            futures = [
                server.submit_async(
                    "t", "double" if i % 2 else "project", {"x": p}
                )
                for i, p in enumerate(payloads)
            ]
            responses = [f.result(30) for f in futures]
        for i, (response, payload) in enumerate(zip(responses, payloads)):
            expected = payload * 2 if i % 2 else payload @ (
                server.session.run(g.get_tensor_by_name("w:0"))
            )
            np.testing.assert_allclose(response.outputs, expected, rtol=1e-6)
            assert response.signature == ("double" if i % 2 else "project")
        # Two signatures -> exactly two plans in the shared cache (the
        # w fetch above adds a third entry).
        assert server.session.plan_cache_info()["plans"] == 3


class TestAccounting:
    def test_per_tenant_attribution(self):
        g, x, y = _affine_graph()
        server = ModelServer(
            graph=g,
            config=ServingConfig(
                max_batch_size=4, batch_window_ms=10.0
            ),
        )
        server.register_signature("affine", {"x": x}, y)
        rng = np.random.default_rng(1)
        with server:
            futures = [
                server.submit_async(
                    f"tenant-{i % 2}", "affine",
                    {"x": rng.random((1, 6), dtype=np.float32)},
                )
                for i in range(8)
            ]
            for future in futures:
                future.result(30)
        all_stats = server.tenant_stats()
        assert set(all_stats) == {"tenant-0", "tenant-1"}
        for stats in all_stats.values():
            assert stats.submitted == 4
            assert stats.completed == 4
            assert stats.rejected == 0
            assert stats.batches >= 1
            assert stats.mean_batch_occupancy > 1.0  # coalescing happened
            assert stats.queue_wait_total_s >= 0.0
            assert stats.sim_time_total_s > 0.0
        # Cache hits: everything after the first batch run reused the plan.
        combined = server.stats()
        assert combined["requests_completed"] == 8
        assert combined["mean_batch_occupancy"] > 1.0
        assert combined["plan_cache"]["misses"] == 1

    def test_response_carries_shared_run_metadata(self):
        g, x, y = _affine_graph()
        server = ModelServer(graph=g)
        server.register_signature("affine", {"x": x}, y)
        with server:
            response = server.submit(
                "t", "affine", {"x": np.zeros((2, 6), np.float32)}
            )
        assert response.metadata.plan_items > 0
        assert response.metadata.wall_time > 0.0
        assert response.batch_rows == 2
        assert response.run_wall_s > 0.0


class TestLoadDriver:
    def test_closed_loop_load_completes_and_validates(self):
        server = build_mlp_server(
            config=ServingConfig(max_batch_size=8, batch_window_ms=1.0)
        )
        result = run_serving_load(server, clients=6, requests_per_client=10)
        server.stop()
        assert result.completed == 60
        assert result.rejected == 0
        assert result.throughput_rps > 0
        assert result.p99_ms >= result.p50_ms > 0
        assert result.mean_batch_occupancy >= 1.0
        assert result.plan_cache["plans"] == 1

    def test_load_results_match_numpy_reference(self):
        server = build_mlp_server(config=ServingConfig(max_batch_size=4))
        reference = mlp_reference()
        rng = np.random.default_rng(2)
        x = rng.random((3, 16), dtype=np.float32)
        with server:
            response = server.submit("t", "mlp", {"x": x})
        np.testing.assert_allclose(
            response.outputs, reference(x), rtol=1e-5, atol=1e-6
        )
