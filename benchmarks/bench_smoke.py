"""Smoke target: one small point of every figure benchmark.

A fast end-to-end sanity sweep (seconds, not minutes) so CI and local
runs can verify each paper app still executes and validates after a
change, without paying for the full fig7/fig8/fig10/fig11 sweeps. Wall
times land in ``BENCH_optimizer.json`` for cross-PR tracking.

Run with: ``PYTHONPATH=src python -m pytest benchmarks/bench_smoke.py -q``
"""

import time

import numpy as np

from repro.apps.cg import run_cg, run_cg_single
from repro.apps.fft import run_fft
from repro.apps.matmul import run_matmul
from repro.apps.stream import run_stream
from repro.figures.table1_nodes import run_table1


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def test_smoke_table1(record_bench):
    wall, rows = _timed(run_table1)
    assert rows, "table 1 produced no rows"
    record_bench("optimizer", "smoke_table1", wall_s=round(wall, 4))


def test_smoke_fig7_stream(record_bench):
    wall, res = _timed(lambda: run_stream(
        system="tegner-k420", size_mb=2, iterations=5, shape_only=True))
    assert res.seconds_per_transfer > 0
    record_bench("optimizer", "smoke_fig7_stream", wall_s=round(wall, 4),
                 seconds_per_transfer=res.seconds_per_transfer)


def test_smoke_fig8_matmul(record_bench):
    wall, res = _timed(lambda: run_matmul(
        system="tegner-k420", n=512, tile=128, num_gpus=2, shape_only=False,
        seed=1))
    assert res.validated
    record_bench("optimizer", "smoke_fig8_matmul", wall_s=round(wall, 4),
                 gflops=res.gflops)


def test_smoke_fig10_cg(record_bench):
    wall, res = _timed(lambda: run_cg(
        system="tegner-k80", n=128, num_gpus=2, iterations=60,
        shape_only=False, seed=7))
    assert res.residual < 1e-6
    record_bench("optimizer", "smoke_fig10_cg", wall_s=round(wall, 4),
                 residual=res.residual, plan_items=res.plan_items)


def test_smoke_traced_frontend(record_bench):
    """The fig10 CG point through ``@repro.function`` vs raw Session.

    Same solver, same simulated hardware: the traced lane re-drives the
    step through the tracing frontend while the graph lane hand-builds
    the identical graph. Values must agree byte-for-byte and simulated
    time exactly; the wall-clock ratio is the frontend's host-side
    dispatch overhead, tracked across PRs in BENCH json.
    """
    # Interleaved min-of-5, the bench_optimizer convention: wall clock on
    # shared runners is noisy, so a single-sample ratio would be too.
    walls = {"function": [], "graph": []}
    results = {}
    for _ in range(5):
        for frontend in ("function", "graph"):
            wall, res = _timed(lambda f=frontend: run_cg_single(
                system="tegner-k80", n=128, iterations=60, frontend=f,
                seed=7))
            walls[frontend].append(wall)
            results[frontend] = res
    res_fn, res_gr = results["function"], results["graph"]
    assert res_fn.residual < 1e-6
    assert np.array_equal(res_fn.solution, res_gr.solution)
    assert res_fn.elapsed == res_gr.elapsed
    assert res_fn.trace_count == 1
    wall_fn = min(walls["function"])
    wall_gr = min(walls["graph"])
    record_bench(
        "optimizer", "smoke_traced_frontend",
        wall_s_function=round(wall_fn, 4),
        wall_s_graph=round(wall_gr, 4),
        frontend_overhead=round(wall_fn / wall_gr, 4) if wall_gr else 0.0,
        sim_elapsed=res_fn.elapsed,
        residual=res_fn.residual,
        trace_count=res_fn.trace_count,
        plan_cache_hits=res_fn.plan_cache["hits"],
    )


def test_smoke_fig11_fft(record_bench):
    wall, res = _timed(lambda: run_fft(
        system="tegner-k420", n=1 << 12, num_tiles=8, num_gpus=2,
        shape_only=False, seed=3))
    assert res.validated
    record_bench("optimizer", "smoke_fig11_fft", wall_s=round(wall, 4),
                 max_error=res.max_error)
