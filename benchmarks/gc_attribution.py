"""What the cyclic collector costs one timed call of an e2e workload.

    python3 benchmarks/gc_attribution.py [--tree DIR] [--workload W] [--seed S]
                                         [--types N] [--max-unreachable N]

Runs the workload's cold call, ``gc.collect()``, then one full-size timed
call — the same sequence as ``benchmarks/e2e/child.py`` — with a
``gc.callbacks`` hook that counts collections per generation, the objects
each found unreachable, and the seconds spent inside the collector.
``unreachable`` also counts what the call left for a collection after
it returned (``left_at_end``; that last collection is not timed).
``--types N`` then runs a second, untimed call under ``gc.DEBUG_SAVEALL``
and lists the N most common types of what it left unreachable (the
census that says which cycle to break next).
``--tree`` measures another checkout (the parent commit) with this same
script. Host numbers are advisory; ``--max-unreachable N`` makes the
object count a gate: exit 1 when ``unreachable`` exceeds N.
"""

import argparse
import collections
import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def unreachable_types(workload, inputs, top: int) -> list:
    """The ``top`` most common types among what one call of
    ``workload.timed`` leaves unreachable, most common first."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        workload.timed(inputs)
        gc.collect()
        census = collections.Counter(
            f"{type(o).__module__}.{type(o).__qualname__}" for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return census.most_common(top)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=os.path.dirname(HERE))
    parser.add_argument("--workload", default="paper_figures")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--types", type=int, default=0, metavar="N",
                        help="also list the N most common unreachable types")
    parser.add_argument("--max-unreachable", type=int, default=None,
                        metavar="N", help="exit 1 above N unreachable objects")
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
    left_at_end = gc.collect()
    unreachable += left_at_end
    report = {
        "workload": args.workload, "seed": args.seed,
        "collections": sum(per_generation), "per_generation": per_generation,
        "unreachable": unreachable, "left_at_end": left_at_end,
        "gc_s": round(gc_s, 3),
        "wall_s": round(wall_s, 3), "gc_share": round(gc_s / wall_s, 4),
    }
    if args.types:
        report["types"] = unreachable_types(workload, inputs, args.types)
    if hasattr(workload, "close"):
        workload.close(inputs)
    print(json.dumps(report))
    if args.max_unreachable is not None and unreachable > args.max_unreachable:
        print(f"{args.workload}: {unreachable} unreachable objects, above "
              f"--max-unreachable {args.max_unreachable}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
