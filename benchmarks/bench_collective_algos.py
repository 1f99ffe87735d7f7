"""Collective-algorithm benchmarks: ring vs tree, and gradient fusion.

Two lanes, both landing in ``benchmarks/results/
BENCH_collective_algos.json`` via ``record_bench`` so
the algorithm-layer trajectory is tracked across PRs:

* **ring-vs-tree crossover sweep** — the same allreduce at 8 Tegner
  ranks from one scalar up to 8 MB, both schedules. The tree's
  ``~log2 W`` rounds must win strictly below the crossover (latency-
  bound regime) and the ring's ``2 (W-1)/W`` wire bytes must win by
  >= 1.5x at 8 MB (bandwidth-bound regime); the ``algorithm="auto"``
  lowering rule is asserted to land on the winning side of both ends.
* **gradient-bucket fusion A/B** — the many-small-gradients SGD
  workload (8 weight blocks + bias + loss partial = 10 allreduces per
  step) fused vs unfused, both on the default pipeline so the delta
  isolates fusion itself. The fusion pass must cut the per-step
  collective count (asserted on ``pass_stats``) with byte-identical
  weight trajectories; host wall time is measured min-of-5 interleaved
  per the repo's bench conventions, with the legacy one-process-per-
  item executor lane recorded as a third baseline arm (walls recorded,
  not asserted — this file runs in CI, and wall-clock orderings flake
  on shared runners; deterministic sim/byte asserts only).
"""

import gc
import time

from repro.apps.sgd import run_sgd
from repro.core.tensor import SymbolicValue
from repro.perf.reporting import format_table
from repro.runtime.collective import (
    ring_allreduce,
    select_algorithm,
    tree_allreduce,
)
from repro.simnet.events import Environment
from repro.simnet.machines import tegner

KB = 1024
MB = 1024 * 1024
REPEATS = 5

WORLD = 8
# One scalar up to the paper-scale gradient: spans both regimes.
PAYLOADS = [8, 1 * KB, 8 * KB, 64 * KB, 512 * KB, 1 * MB, 8 * MB]

STRATEGIES = {"ring": ring_allreduce, "tree": tree_allreduce}


def _standalone_time(strategy, world, nbytes):
    env = Environment()
    machine = tegner(env, k420_nodes=world)
    devices = [machine.node(n).cpu for n in sorted(machine.nodes)]
    values = [SymbolicValue((nbytes // 8,), "float64") for _ in range(world)]
    env.run(until=env.process(strategy(devices, values)))
    return env.now


def test_ring_vs_tree_crossover(record_table, record_bench):
    times = {
        nbytes: {
            name: _standalone_time(strategy, WORLD, nbytes)
            for name, strategy in STRATEGIES.items()
        }
        for nbytes in PAYLOADS
    }
    crossover = next(
        (nbytes for nbytes in PAYLOADS
         if times[nbytes]["ring"] <= times[nbytes]["tree"]),
        None,
    )

    # The acceptance bars: strictly-faster tree below the crossover,
    # ring >= 1.5x at 8 workers x 8 MB, and the auto rule landing on the
    # winning side at both ends of the sweep.
    assert crossover is not None, "ring must win somewhere in the sweep"
    for nbytes in PAYLOADS:
        if nbytes < crossover:
            assert times[nbytes]["tree"] < times[nbytes]["ring"], nbytes
    big_ratio = times[8 * MB]["tree"] / times[8 * MB]["ring"]
    assert big_ratio >= 1.5, (
        f"ring must be >= 1.5x faster than tree at {WORLD} workers x 8 MB, "
        f"got {big_ratio:.2f}x"
    )
    assert select_algorithm("CollectiveAllReduce", 8, WORLD) == "tree"
    assert select_algorithm("CollectiveAllReduce", 8 * MB, WORLD) == "ring"

    rows = []
    for nbytes in PAYLOADS:
        ring_us = times[nbytes]["ring"] * 1e6
        tree_us = times[nbytes]["tree"] * 1e6
        auto = select_algorithm("CollectiveAllReduce", nbytes, WORLD)
        rows.append([nbytes, ring_us, tree_us, ring_us / tree_us, auto])
        record_bench(
            "collective_algos", f"allreduce_w{WORLD}_{nbytes}B",
            ring_us=round(ring_us, 3),
            tree_us=round(tree_us, 3),
            tree_speedup=round(ring_us / tree_us, 3),
            auto_choice=auto,
        )
    record_bench(
        "collective_algos", "crossover",
        world=WORLD,
        first_ring_win_bytes=crossover,
        ring_speedup_at_8MB=round(big_ratio, 3),
    )
    record_table("bench_collective_algos_crossover.txt", format_table(
        ["payload [B]", "ring [us]", "tree [us]", "tree speedup", "auto"],
        rows,
        title=f"Allreduce ring vs tree crossover "
              f"({WORLD} ranks, Tegner EDR)",
    ))


# Many small gradients: 8 weight blocks + bias + loss partial = 10
# same-group allreduces per step, each a few hundred bytes.
FUSION = dict(d=64, blocks=8, num_workers=4, rows_per_worker=8, steps=4)


def test_gradient_bucket_fusion_ab(record_table,
                                   record_bench):
    """Fused vs unfused SGD: schedule counters + byte identity asserted,
    host wall recorded min-of-5 interleaved. Both primary arms run the
    default pipeline (optimize on) so the delta isolates *fusion*; the
    legacy one-process-per-item lane rides along as a third arm — the
    repo's conventional baseline — without polluting the fusion delta."""

    ARMS = {
        "fused": dict(fusion=True, optimize=True),
        "unfused": dict(fusion=False, optimize=True),
        "unfused_legacy": dict(fusion=False, optimize=False),
    }

    def run_once(arm):
        gc.collect()
        t0 = time.perf_counter()
        result = run_sgd(**ARMS[arm], **FUSION)
        return time.perf_counter() - t0, result

    for arm in ARMS:
        run_once(arm)  # warm caches off the books
    walls = {arm: [] for arm in ARMS}
    results = {}
    for _ in range(REPEATS):
        for arm in ARMS:
            wall, results[arm] = run_once(arm)
            walls[arm].append(wall)
    wall_on, wall_off = min(walls["fused"]), min(walls["unfused"])
    fused, plain = results["fused"], results["unfused"]

    # Deterministic asserts only (see module docstring).
    assert fused.validated and plain.validated
    assert fused.loss_history == plain.loss_history
    for a, b in zip(fused.trajectory, plain.trajectory):
        assert a.tobytes() == b.tobytes(), (
            "fusion must not change a byte of the weight trajectory"
        )
    detail = {p.name: p for p in fused.pass_stats}["collective_fusion"].detail
    assert detail["collectives_before"] == FUSION["blocks"] + 2
    assert detail["collectives_after"] == 1, (
        "the fusion pass must reduce the per-step collective count"
    )

    record_bench(
        "collective_algos", "sgd_fusion_ab",
        collectives_before=detail["collectives_before"],
        collectives_after=detail["collectives_after"],
        buckets=detail["buckets"],
        wall_fused_s=round(wall_on, 4),
        wall_unfused_s=round(wall_off, 4),
        wall_reduction_pct=round(100 * (wall_off - wall_on) / wall_off, 1),
        wall_unfused_legacy_s=round(min(walls["unfused_legacy"]), 4),
        sim_elapsed_fused_s=fused.elapsed,
        sim_elapsed_unfused_s=plain.elapsed,
        plan_items_fused=fused.plan_items,
        plan_items_unfused=plain.plan_items,
    )
    record_table("bench_collective_algos_fusion.txt", "\n".join([
        "Gradient-bucket fusion A/B "
        f"({FUSION['blocks']} blocks + bias + loss, "
        f"{FUSION['num_workers']} workers, {FUSION['steps']} steps)",
        f"  collectives per step: {detail['collectives_before']} -> "
        f"{detail['collectives_after']}",
        f"  host wall fused:      {wall_on:8.4f} s",
        f"  host wall unfused:    {wall_off:8.4f} s",
        f"  host wall legacy:     {min(walls['unfused_legacy']):8.4f} s "
        "(one-process-per-item baseline)",
        f"  sim time fused:       {fused.elapsed * 1e3:8.3f} ms",
        f"  sim time unfused:     {plain.elapsed * 1e3:8.3f} ms",
        "  trajectories:         byte-identical",
    ]))
