"""Graph-level collectives benchmark: the Horovod argument, quantified.

Two lanes, both landing in ``benchmarks/results/BENCH_collectives.json``
via ``record_bench`` so the collectives trajectory is tracked
across PRs:

* **allreduce vs central reducer** — one 32 MB reduction across 8 Tegner
  ranks, both sides expressed as *graph ops* (``repro.all_reduce`` vs the
  add_n-on-chief + per-worker-echo pattern), with the lowered ring
  asserted sim-time-identical to the standalone generator;
* **stencil global sync scaling** — the halo-exchange stencil's
  convergence/field sync at 2/4/8 workers, ring vs central, plus the
  host-wall A/B of the executor fast path against the legacy
  one-process-per-item lane (the baseline every optimizer benchmark
  measures against), min-of-5 interleaved.
"""

import gc
import time

import pytest

import repro as tf
from repro.apps.common import build_cluster, task_device
from repro.apps.stencil import run_stencil
from repro.core.session import admin_rpc_time
from repro.core.tensor import SymbolicValue
from repro.perf.reporting import format_table
from repro.runtime.collective import run_collective
from repro.simnet.events import Environment
from repro.simnet.machines import tegner

MB = 1024 * 1024
REPEATS = 5


def _worker_cluster(world):
    handle = build_cluster("tegner-k420", {"worker": world})
    servers = [handle.server("worker", w) for w in range(world)]
    return handle.env, handle.machine, servers


def _device(w):
    return task_device("worker", w, "cpu", 0)


def _admin():
    return admin_rpc_time(remote_tasks=True)


def _worker_sources(g, world, nbytes):
    """Per-rank addends materialized *on the worker devices*.

    Identity-of-fed-placeholder pins a zero-cost producer on each rank,
    so cross-device consumers pay real wire time (a bare fed placeholder
    would short-circuit routing: feeds are client-side values). The arm
    sessions run with graph rewriting off — identity collapse would
    substitute the feed straight through and un-pin the producer.
    """
    phs, srcs = [], []
    for w in range(world):
        with g.device(_device(w)):
            ph = tf.placeholder(tf.float64, shape=[nbytes // 8],
                                name=f"x{w}")
            phs.append(ph)
            srcs.append(tf.identity(ph, name=f"src{w}"))
    return phs, srcs


def _ring_arm(world, nbytes):
    env, _, servers = _worker_cluster(world)
    g = tf.Graph()
    with g.as_default():
        phs, srcs = _worker_sources(g, world, nbytes)
        outs = tf.all_reduce(srcs)
    sess = tf.Session(servers[0], graph=g, config=tf.SessionConfig(
        shape_only=True, graph_optimization=False))
    feeds = {ph: SymbolicValue((nbytes // 8,), "float64") for ph in phs}
    start = env.now
    sess.run([outs[0].op], feed_dict=feeds)
    return env.now - start - _admin()


def _central_arm(world, nbytes):
    """The paper's pattern as a graph: reduce on task 0, echo to all."""
    env, _, servers = _worker_cluster(world)
    g = tf.Graph()
    with g.as_default():
        phs, srcs = _worker_sources(g, world, nbytes)
        with g.device(_device(0)):
            total = tf.add_n(srcs, name="central_sum")
        echoes = []
        for w in range(world):
            with g.device(_device(w)):
                echoes.append(tf.identity(total, name=f"echo{w}"))
        fetch = tf.group(*[e.op for e in echoes], name="fanout", graph=g)
    sess = tf.Session(servers[0], graph=g, config=tf.SessionConfig(
        shape_only=True, graph_optimization=False))
    feeds = {ph: SymbolicValue((nbytes // 8,), "float64") for ph in phs}
    start = env.now
    sess.run(fetch, feed_dict=feeds)
    return env.now - start - _admin()


def _standalone_ring(world, nbytes):
    env = Environment()
    machine = tegner(env, k420_nodes=world)
    devices = [machine.node(n).cpu for n in sorted(machine.nodes)]
    values = [SymbolicValue((nbytes // 8,), "float64") for _ in range(world)]
    env.run(until=env.process(
        run_collective("CollectiveAllReduce", devices, values)))
    return env.now


def test_graph_allreduce_vs_central_reducer(record_table,
                                            record_bench):
    world, nbytes = 8, 32 * MB
    ring = _ring_arm(world, nbytes)
    central = _central_arm(world, nbytes)
    standalone = _standalone_ring(world, nbytes)

    assert ring == pytest.approx(standalone, rel=1e-12), (
        "lowered CollectiveAllReduce must charge the standalone ring's time"
    )
    assert ring < central / 2, (
        f"ring {ring * 1e3:.2f} ms should beat central {central * 1e3:.2f} ms "
        f"by 2x at {world} ranks"
    )

    record_bench(
        "collectives", "allreduce_graph_op_8x32MB",
        ring_ms=round(ring * 1e3, 4),
        central_ms=round(central * 1e3, 4),
        standalone_ring_ms=round(standalone * 1e3, 4),
        speedup=round(central / ring, 3),
    )
    record_table("bench_collectives_allreduce.txt", "\n".join([
        "Graph-level allreduce vs central reducer "
        f"({world} ranks, {nbytes // MB} MB, Tegner EDR)",
        f"  CollectiveAllReduce (ring): {ring * 1e3:8.2f} ms",
        f"  add_n + echoes (central):   {central * 1e3:8.2f} ms",
        f"  standalone ring generator:  {standalone * 1e3:8.2f} ms",
        f"  speedup:                    {central / ring:8.2f}x",
    ]))


STENCIL = dict(n=512, iterations=10, check_every=1, shape_only=True)


def test_stencil_sync_scaling(record_table, record_bench):
    rows = []
    fields = {}
    for workers in (2, 4, 8):
        ring = run_stencil(mode="collective", num_workers=workers, **STENCIL)
        central = run_stencil(mode="reducer", num_workers=workers, **STENCIL)
        speedup = central.check_elapsed / ring.check_elapsed
        rows.append([workers, ring.elapsed * 1e3, central.elapsed * 1e3,
                     ring.check_elapsed * 1e3, central.check_elapsed * 1e3,
                     speedup])
        fields[f"stencil_w{workers}"] = {
            "ring_ms": round(ring.elapsed * 1e3, 4),
            "central_ms": round(central.elapsed * 1e3, 4),
            "ring_sync_ms": round(ring.check_elapsed * 1e3, 4),
            "central_sync_ms": round(central.check_elapsed * 1e3, 4),
            "sync_speedup": round(speedup, 3),
        }
        if workers >= 4:
            assert ring.elapsed < central.elapsed, (
                f"ring must win wall-clock at {workers} workers"
            )
    assert rows[2][5] > rows[1][5], "ring advantage should grow with W"

    for name, entry in fields.items():
        record_bench("collectives", name, **entry)
    record_table("bench_collectives_stencil.txt", format_table(
        ["workers", "ring [ms]", "central [ms]", "ring sync [ms]",
         "central sync [ms]", "sync speedup"],
        rows,
        title=f"Stencil global sync, ring vs central "
              f"(n={STENCIL['n']}, sync every sweep, Tegner K420)",
    ))


def test_stencil_executor_fastpath_wall_clock(record_bench):
    """Host-wall A/B of the new collective lane: optimizer + fast path
    vs the legacy one-process-per-item executor, min-of-5 interleaved."""
    config = dict(mode="collective", num_workers=4, n=256, iterations=10,
                  check_every=2, shape_only=True)

    def run_once(optimize):
        gc.collect()
        t0 = time.perf_counter()
        result = run_stencil(optimize=optimize, **config)
        return time.perf_counter() - t0, result

    run_once(True)  # warm caches off the books
    run_once(False)
    walls = {True: [], False: []}
    results = {}
    for _ in range(REPEATS):
        for optimize in (True, False):
            wall, results[optimize] = run_once(optimize)
            walls[optimize].append(wall)
    wall_on, wall_off = min(walls[True]), min(walls[False])

    # The lanes must agree on the simulated clock (no folding delta in
    # the stencil graphs). Host wall times are recorded, not asserted:
    # this file runs in CI, and wall-clock orderings on shared runners
    # flake (the asserting perf A/B lives in bench_optimizer.py, which
    # CI deliberately does not run).
    assert results[True].elapsed == pytest.approx(
        results[False].elapsed, rel=1e-9)
    record_bench(
        "collectives", "stencil_executor_fastpath",
        wall_on_s=round(wall_on, 4),
        wall_off_s=round(wall_off, 4),
        wall_reduction_pct=round(100 * (wall_off - wall_on) / wall_off, 1),
        sim_elapsed_s=results[True].elapsed,
    )
