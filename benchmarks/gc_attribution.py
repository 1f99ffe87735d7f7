"""What the cyclic collector costs one timed call of an e2e workload.

    python3 benchmarks/gc_attribution.py [--tree DIR] [--workload W] [--seed S]

Runs the workload's cold call, ``gc.collect()``, then one full-size timed
call — the same sequence as ``benchmarks/e2e/child.py`` — with a
``gc.callbacks`` hook that counts collections per generation, the objects
each found unreachable, and the seconds spent inside the collector.
``--tree`` measures another checkout (the parent commit) with this same
script. Host numbers, advisory: nothing gates on them.
"""

import argparse
import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=os.path.dirname(HERE))
    parser.add_argument("--workload", default="paper_figures")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    e2e = os.path.join(args.tree, "benchmarks", "e2e")
    sys.path[:0] = [e2e, os.path.join(args.tree, "src")]
    import layers

    os.environ.update(layers.BLAS_PINS)
    import workloads

    workload = workloads.WORKLOADS[args.workload]("full")
    inputs = workload.generate(args.seed)
    workload.cold(inputs)

    per_generation = [0, 0, 0]
    unreachable, gc_s, started = 0, 0.0, 0.0

    def hook(phase, info):
        nonlocal unreachable, gc_s, started
        if phase == "start":
            started = time.perf_counter()
        else:
            gc_s += time.perf_counter() - started
            per_generation[info["generation"]] += 1
            unreachable += info["collected"] + info["uncollectable"]

    gc.collect()
    gc.callbacks.append(hook)
    t = time.perf_counter()
    workload.timed(inputs)
    wall_s = time.perf_counter() - t
    gc.callbacks.remove(hook)
    if hasattr(workload, "close"):
        workload.close(inputs)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "collections": sum(per_generation), "per_generation": per_generation,
        "unreachable": unreachable, "gc_s": round(gc_s, 3),
        "wall_s": round(wall_s, 3), "gc_share": round(gc_s / wall_s, 4),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
