"""Plan-time optimizer + executor fast-path benchmark.

Runs the fig10 CG solver (a real paper configuration: Tegner K80,
n=32768, 4 GPUs, shape-only) with graph optimization and the
dependency-counting executor enabled vs. fully disabled (the disabled arm
is the legacy one-process-per-item executor), and asserts the PR's
acceptance bar:

* >= 20% host wall-clock reduction with optimization enabled;
* a measurable plan-item-count reduction;
* identical fetch semantics — the simulated clock of both arms must agree
  exactly here because no constant-folding opportunity exists in the CG
  iteration graph (when folding does apply, the simulated-time delta is
  reported, not hidden).

Results land in ``benchmarks/results/BENCH_optimizer.json`` via
``record_bench`` so the perf trajectory is tracked across PRs.
"""

import gc
import time

from repro.apps.cg import run_cg

CONFIG = dict(system="tegner-k80", n=32768, num_gpus=4, iterations=100,
              shape_only=True)
REPEATS = 5


def _run_once(optimize: bool):
    gc.collect()
    t0 = time.perf_counter()
    result = run_cg(optimize=optimize, **CONFIG)
    return time.perf_counter() - t0, result


def _measure():
    """Interleave the arms and keep each arm's best time.

    Interleaving decorrelates machine drift from the comparison; min-of-N
    is the standard noise-robust wall-clock estimator (noise only ever
    adds time).
    """
    walls = {True: [], False: []}
    results = {}
    for _ in range(REPEATS):
        for optimize in (True, False):
            wall, results[optimize] = _run_once(optimize)
            walls[optimize].append(wall)
    return min(walls[True]), min(walls[False]), results[True], results[False]


def test_optimizer_speedup_fig10_cg(record_table, record_bench):
    _run_once(True)  # warm imports/caches off the books
    _run_once(False)
    wall_on, wall_off, res_on, res_off = _measure()

    reduction = (wall_off - wall_on) / wall_off
    items_saved = res_off.plan_items - res_on.plan_items

    record_bench(
        "optimizer", "fig10_cg_optimizer",
        items_before=res_off.plan_items,
        items_after=res_on.plan_items,
        wall_on_s=round(wall_on, 4),
        wall_off_s=round(wall_off, 4),
        wall_reduction_pct=round(100 * reduction, 1),
        sim_elapsed_on_s=res_on.elapsed,
        sim_elapsed_off_s=res_off.elapsed,
        sim_delta_s=res_on.elapsed - res_off.elapsed,
    )
    record_table(
        "bench_optimizer.txt",
        "\n".join([
            "Plan-time optimizer + executor fast path — fig10 CG "
            f"({CONFIG['system']}, n={CONFIG['n']}, {CONFIG['num_gpus']} GPUs, "
            f"{CONFIG['iterations']} iters)",
            f"  plan items:  {res_off.plan_items} -> {res_on.plan_items} "
            f"({items_saved} saved)",
            f"  host wall:   {wall_off:.3f}s -> {wall_on:.3f}s "
            f"({100 * reduction:.1f}% reduction)",
            f"  sim elapsed: {res_off.elapsed:.6f}s -> {res_on.elapsed:.6f}s "
            f"(delta {res_on.elapsed - res_off.elapsed:+.2e}s)",
        ]),
    )

    assert items_saved > 0, (
        f"expected a plan-item reduction, got {res_off.plan_items} -> "
        f"{res_on.plan_items}"
    )
    assert reduction >= 0.20, (
        f"expected >= 20% host wall-clock reduction, got {100 * reduction:.1f}% "
        f"(on={wall_on:.3f}s off={wall_off:.3f}s)"
    )
    # No folding applies to the CG iteration graph, so the simulated clock
    # must agree bit-for-bit between the arms.
    assert res_on.elapsed == res_off.elapsed
