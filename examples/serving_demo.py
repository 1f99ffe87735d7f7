#!/usr/bin/env python
"""Serve a model to concurrent tenants through the multi-tenant front-door.

The paper frames TensorFlow as "the simulation setup used by millions of
users" — infrastructure meant to be *shared*. This demo stands up a
:class:`repro.ModelServer` around a small MLP and walks the serving
pipeline end to end:

  clients --> admission (bounded queue, quotas, deadlines)
          --> micro-batcher (coalesce same-signature requests)
          --> one shared plan-cached Session.run per batch
          --> scatter rows back, attribute RunMetadata per tenant

Three vignettes: (1) micro-batched answers are byte-identical to running
each request alone; (2) coalescing lifts throughput over the unbatched
baseline under concurrent load; (3) admission control sheds excess load
with typed, per-tenant-accounted rejections.

Run:  python examples/serving_demo.py
"""

import numpy as np

import repro as tf
from repro.apps.serving import build_mlp_server, run_serving_load
from repro.errors import ResourceExhaustedError
from repro.serving import ModelServer, ServingConfig


def byte_identity():
    print("== 1. micro-batched == unbatched, byte for byte ==")
    # Row-wise arithmetic (elementwise chain): each output row depends
    # only on its input row, so coalescing cannot change a single bit.
    # (BLAS-backed matmul is row-stable only for small shapes — it picks
    # different register blockings per row count — so the bitwise demo
    # sticks to kernels with per-row execution.)
    g = tf.Graph()
    with g.as_default():
        x = tf.placeholder(tf.float32, [None, 16], name="x")
        y = tf.sigmoid(tf.add(tf.multiply(x, tf.constant(2.0)),
                              tf.constant(1.0)), name="y")
    server = ModelServer(
        graph=g,
        config=ServingConfig(max_batch_size=8, batch_window_ms=10.0),
    )
    server.register_signature("rowwise", {"x": x}, y)
    rng = np.random.default_rng(0)
    payloads = [rng.random((rows, 16), dtype=np.float32)
                for rows in (1, 3, 2, 1, 4)]

    # Reference: each request alone through a plain Session.
    reference_sess = tf.Session(graph=g)
    references = [reference_sess.run(y, feed_dict={x: p}) for p in payloads]

    with server:
        futures = [
            server.submit_async(f"tenant-{i % 2}", "rowwise", {"x": p})
            for i, p in enumerate(payloads)
        ]
        responses = [f.result(30) for f in futures]

    for response, reference in zip(responses, references):
        assert response.outputs.tobytes() == reference.tobytes()
    occupancy = max(r.batch_size for r in responses)
    print(f"   {len(payloads)} requests, largest coalesced batch "
          f"{occupancy}, all byte-identical to solo runs\n")


def batching_throughput():
    print("== 2. coalescing amortizes per-run overhead ==")
    for batch in (1, 16):
        server = build_mlp_server(
            config=ServingConfig(max_batch_size=batch, max_queue=256)
        )
        result = run_serving_load(server, clients=8, requests_per_client=15)
        server.stop()
        label = "unbatched" if batch == 1 else f"batch<={batch}"
        print(f"   {label:10s}: {result.throughput_rps:7.0f} req/s, "
              f"p50 {result.p50_ms:5.2f} ms, p99 {result.p99_ms:5.2f} ms, "
              f"mean occupancy {result.mean_batch_occupancy:.2f}")
    print()


def admission_control():
    print("== 3. admission sheds load with typed rejections ==")
    server = build_mlp_server(
        config=ServingConfig(max_batch_size=4, max_queue=2,
                             per_tenant_quota=2)
    )
    payload = {"x": np.zeros((1, 16), np.float32)}
    # Fill the queue before starting workers, then overflow it.
    server.submit_async("polite", "mlp", payload)
    server.submit_async("greedy", "mlp", payload)
    try:
        server.submit_async("greedy", "mlp", payload)
    except ResourceExhaustedError as exc:
        print(f"   rejected ({exc.admission_reason}): {exc}")
    with server:
        pass  # drain the two admitted requests
    for tenant in ("polite", "greedy"):
        stats = server.tenant_stats(tenant)
        print(f"   {tenant:7s}: submitted={stats.submitted} "
              f"completed={stats.completed} rejected={stats.rejected}")
    print()


def main():
    byte_identity()
    batching_throughput()
    admission_control()
    print("done.")


if __name__ == "__main__":
    main()
