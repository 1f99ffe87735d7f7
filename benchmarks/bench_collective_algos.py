"""Collective-algorithm benchmark: ring vs tree.

Lands in ``benchmarks/results/BENCH_collective_algos.json`` via
``record_bench`` so the algorithm-layer trajectory is tracked across PRs:

* **ring-vs-tree crossover sweep** — the same allreduce at 8 Tegner
  ranks from one scalar up to 8 MB, both schedules. The tree's
  ``~log2 W`` rounds must win strictly below the crossover (latency-
  bound regime) and the ring's ``2 (W-1)/W`` wire bytes must win by
  >= 1.5x at 8 MB (bandwidth-bound regime); the ``algorithm="auto"``
  lowering rule is asserted to land on the winning side of both ends.

The gradient-bucket fusion A/B that used to sit here went with the pass
it measured; its last numbers are in ``docs/ARCHITECTURE.md`` §3.
"""

from repro.core.tensor import SymbolicValue
from repro.perf.reporting import format_table
from repro.runtime.collective import (
    run_collective,
    select_algorithm,
)
from repro.simnet.events import Environment
from repro.simnet.machines import tegner

KB = 1024
MB = 1024 * 1024

WORLD = 8
# One scalar up to the paper-scale gradient: spans both regimes.
PAYLOADS = [8, 1 * KB, 8 * KB, 64 * KB, 512 * KB, 1 * MB, 8 * MB]

ALGORITHMS = ("ring", "tree")


def _standalone_time(algorithm, world, nbytes):
    env = Environment()
    machine = tegner(env, k420_nodes=world)
    devices = [machine.node(n).cpu for n in sorted(machine.nodes)]
    values = [SymbolicValue((nbytes // 8,), "float64") for _ in range(world)]
    env.run(until=env.process(run_collective(
        "CollectiveAllReduce", devices, values, algorithm=algorithm)))
    return env.now


def test_ring_vs_tree_crossover(record_table, record_bench):
    times = {
        nbytes: {
            algorithm: _standalone_time(algorithm, WORLD, nbytes)
            for algorithm in ALGORITHMS
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
