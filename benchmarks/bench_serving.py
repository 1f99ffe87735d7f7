"""Serving benchmark: throughput and tail latency of the front-door.

The multi-tenant direction the paper motivates ("the simulation setup
used by millions of users" served from shared infrastructure): drive the
:class:`~repro.serving.ModelServer` closed-loop and sweep the two
knobs that shape a serving deployment —

* **max batch size** — the micro-batcher's coalescing ceiling; batch 1
  is the unbatched baseline every other arm is judged against;
* **offered load** — concurrent closed-loop clients.

Every point lands in ``benchmarks/results/BENCH_serving.json``
(requests/sec, p50/p99 latency, mean batch occupancy). These are host
milliseconds, so nothing compares them across commits yet. The headline
assertion is the subsystem's reason to exist: at the heaviest load,
micro-batched throughput must beat the unbatched baseline, because one
coalesced ``Session.run`` amortizes per-run overhead (admission RPC,
plan lookup, simulator drive) over every rider.

A server has one worker thread (one DES driver per Session): the
``num_workers=4`` arm this sweep used to carry was at or below its
one-worker twin in every cell and was removed with the knob. Entry names
keep the ``_w1_`` infix so the committed trajectory stays comparable.
"""

import json
import os

from repro.apps.serving import build_mlp_server, run_serving_load
from repro.serving import ServingConfig

BATCH_SIZES = (1, 8, 32)
# (clients, requests_per_client): equal total work per load so points
# differ only in concurrency, not volume.
LOADS = ((4, 30), (16, 15))


def _record(results_dir, name, **fields):
    """Merge one entry into ``BENCH_serving.json``, keeping the others."""
    path = os.path.join(results_dir, "BENCH_serving.json")
    try:
        with open(path, encoding="utf-8") as handle:
            entries = json.load(handle)
    except (OSError, ValueError):
        entries = {}
    entries[name] = fields
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _measure(batch, clients, requests):
    server = build_mlp_server(
        config=ServingConfig(max_batch_size=batch, max_queue=1024)
    )
    try:
        return run_serving_load(
            server, clients=clients, requests_per_client=requests, seed=7
        )
    finally:
        server.stop()


def test_throughput_sweep_batching_beats_unbatched(results_dir):
    fields = {}
    results = {}
    for clients, requests in LOADS:
        for batch in BATCH_SIZES:
            res = _measure(batch, clients, requests)
            # Closed loop with a deep queue: nothing may be lost.
            assert res.completed == res.offered
            assert res.rejected == 0
            results[(clients, batch)] = res
            key = f"c{clients}_w1_b{batch}"
            fields[f"{key}_rps"] = res.throughput_rps
            fields[f"{key}_p50_ms"] = res.p50_ms
            fields[f"{key}_p99_ms"] = res.p99_ms
            fields[f"{key}_occupancy"] = res.mean_batch_occupancy

    heavy = max(clients for clients, _ in LOADS)
    biggest = max(BATCH_SIZES)
    batched = results[(heavy, biggest)]
    unbatched = results[(heavy, 1)]
    # The tentpole property: coalescing amortizes per-run overhead.
    # Observed margin is ~5-8x; 1.2x keeps the gate robust to noise.
    assert batched.throughput_rps > 1.2 * unbatched.throughput_rps, (
        f"{heavy} clients: batch={biggest} "
        f"({batched.throughput_rps:.0f} rps) must beat batch=1 "
        f"({unbatched.throughput_rps:.0f} rps)"
    )
    # Coalescing actually happened at load, and queueing delay fell.
    assert batched.mean_batch_occupancy > 1.5
    assert batched.p50_ms < unbatched.p50_ms
    _record(results_dir, "serving_sweep", **fields)


def test_admission_backpressure_under_overload(results_dir):
    """A shallow queue sheds load instead of queueing without bound."""
    server = build_mlp_server(
        config=ServingConfig(max_batch_size=4, max_queue=4)
    )
    try:
        res = run_serving_load(
            server, clients=16, requests_per_client=10, seed=11
        )
    finally:
        server.stop()
    # Every request either completed or was rejected with a typed error;
    # the bounded queue must have pushed back at this concurrency.
    assert res.completed + res.rejected == res.offered
    assert res.rejected > 0
    assert res.completed > 0
    _record(
        results_dir, "serving_backpressure",
        offered=res.offered,
        completed=res.completed,
        rejected=res.rejected,
        throughput_rps=res.throughput_rps,
        p99_ms=res.p99_ms,
    )
