"""Serving workload: a model behind the front-door plus a load driver.

``build_mlp_server`` stands up a :class:`~repro.serving.ModelServer`
around a small deterministic two-layer MLP (matmul -> sigmoid ->
matmul — row-independent arithmetic, so micro-batched execution is
byte-identical to unbatched). ``run_serving_load`` drives it closed-loop
from concurrent client threads — the offered-load knob — and reports
sustained requests/sec with p50/p99 latency, the numbers
``benchmarks/bench_serving.py`` sweeps over batch size x load.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.graph import Graph
from repro.core.ops.array_ops import constant, placeholder
from repro.core.ops.math_ops import add, matmul, sigmoid
from repro.dtypes import float32
from repro.errors import ReproError
from repro.serving import ModelServer, ServingConfig
from repro.serving.request import now

__all__ = ["ServingLoadResult", "build_mlp_server", "run_serving_load"]


def build_mlp_server(
    features: int = 16,
    hidden: int = 32,
    seed: int = 0,
    config: Optional[ServingConfig] = None,
    signature: str = "mlp",
) -> ModelServer:
    """A ModelServer wrapping one MLP inference signature.

    Weights are seeded constants: every server built with the same
    arguments computes the same function, so load tests can validate
    responses against a NumPy reference.
    """
    rng = np.random.default_rng(seed)
    graph = Graph()
    with graph.as_default():
        x = placeholder(float32, [None, features], name="x")
        w1 = constant(
            rng.standard_normal((features, hidden)).astype(np.float32),
            name="w1",
        )
        b1 = constant(rng.standard_normal(hidden).astype(np.float32), name="b1")
        w2 = constant(
            rng.standard_normal((hidden, 1)).astype(np.float32), name="w2"
        )
        b2 = constant(rng.standard_normal(1).astype(np.float32), name="b2")
        hidden_t = sigmoid(add(matmul(x, w1), b1), name="hidden")
        score = add(matmul(hidden_t, w2), b2, name="score")
    server = ModelServer(graph=graph, config=config)
    server.register_signature(signature, {"x": x}, score)
    return server


def mlp_reference(features: int = 16, hidden: int = 32, seed: int = 0):
    """NumPy reference for :func:`build_mlp_server`'s function."""
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((features, hidden)).astype(np.float32)
    b1 = rng.standard_normal(hidden).astype(np.float32)
    w2 = rng.standard_normal((hidden, 1)).astype(np.float32)
    b2 = rng.standard_normal(1).astype(np.float32)

    def forward(x: np.ndarray) -> np.ndarray:
        h = 1.0 / (1.0 + np.exp(-(x @ w1 + b1)))
        return h @ w2 + b2

    return forward


@dataclass
class ServingLoadResult:
    """One closed-loop load run against a ModelServer."""

    clients: int
    requests_per_client: int
    completed: int = 0
    rejected: int = 0
    deadline_rejections: int = 0
    duration_s: float = 0.0
    throughput_rps: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    mean_latency_ms: float = 0.0
    mean_queue_wait_ms: float = 0.0
    mean_batch_occupancy: float = 0.0
    batch_runs: int = 0
    plan_cache: dict = field(default_factory=dict)
    tenant_stats: dict = field(default_factory=dict)
    latencies_ms: list = field(default_factory=list)

    @property
    def offered(self) -> int:
        return self.clients * self.requests_per_client


def run_serving_load(
    server: ModelServer,
    signature: str = "mlp",
    clients: int = 8,
    requests_per_client: int = 25,
    tenants: Optional[int] = None,
    features: Optional[int] = None,
    rows_per_request: int = 1,
    deadline_ms: Optional[float] = None,
    seed: int = 1,
) -> ServingLoadResult:
    """Drive ``server`` closed-loop and measure sustained behaviour.

    ``clients`` concurrent threads (round-robined over ``tenants``
    logical tenants, default one per client) each issue
    ``requests_per_client`` blocking requests back to back — the
    standard closed-loop offered-load model. Latency is submit-to-
    response host time per request; throughput counts completed requests
    over the span from first submit to last response. Rejections
    (admission back-pressure, quota, deadline) are counted, not
    retried.
    """
    sig = server.signature(signature)
    if features is None:
        (input_tensor,) = sig.inputs.values()
        features = input_tensor.shape.dims[1]
    tenants = tenants or clients
    started = server.start()
    assert started is server

    lock = threading.Lock()
    latencies: list[float] = []
    counters = {"completed": 0, "rejected": 0, "deadline": 0}
    barrier = threading.Barrier(clients + 1)

    def client_loop(index: int) -> None:
        rng = np.random.default_rng(seed + index)
        tenant = f"tenant-{index % tenants}"
        barrier.wait()
        for _ in range(requests_per_client):
            payload = rng.random(
                (rows_per_request, features), dtype=np.float32
            )
            t0 = now()
            try:
                server.submit(
                    tenant, signature, {"x": payload}, deadline_ms=deadline_ms
                )
            except ReproError as exc:
                with lock:
                    counters["rejected"] += 1
                    if getattr(exc, "code", "") == "DEADLINE_EXCEEDED":
                        counters["deadline"] += 1
                continue
            elapsed_ms = (now() - t0) * 1e3
            with lock:
                counters["completed"] += 1
                latencies.append(elapsed_ms)

    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    t_start = now()
    for thread in threads:
        thread.join()
    duration = now() - t_start

    stats = server.stats()
    totals = server._accountant.totals()
    result = ServingLoadResult(
        clients=clients,
        requests_per_client=requests_per_client,
        completed=counters["completed"],
        rejected=counters["rejected"],
        deadline_rejections=stats["rejected_deadline"],
        duration_s=duration,
        throughput_rps=(
            counters["completed"] / duration if duration > 0 else 0.0
        ),
        mean_batch_occupancy=stats["mean_batch_occupancy"],
        batch_runs=stats["batch_runs"],
        plan_cache=stats["plan_cache"],
        tenant_stats=server.tenant_stats(),
        latencies_ms=latencies,
        mean_queue_wait_ms=(
            totals.queue_wait_total_s / totals.completed * 1e3
            if totals.completed
            else 0.0
        ),
    )
    if latencies:
        result.p50_ms = float(np.percentile(latencies, 50))
        result.p99_ms = float(np.percentile(latencies, 99))
        result.mean_latency_ms = float(np.mean(latencies))
    return result
