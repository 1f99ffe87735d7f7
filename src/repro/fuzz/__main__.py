"""``python -m repro.fuzz`` — the differential fuzz campaign driver.

For each seed in the range the CLI generates one random program from
the operator catalog and runs it through every cell of the frontend ×
executor-lane × optimizer × collective-algorithm matrix
(:mod:`repro.fuzz.harness`), comparing fetch bytes and sim-time
invariants against the baseline cell. Any divergence is delta-debugged
(:mod:`repro.fuzz.shrinker`) and the minimal repro is written out as a
self-contained Python script.

Typical invocations::

    # the acceptance sweep: 200 seeds, up to 12 drawn ops each
    python -m repro.fuzz --seeds 0..200 --ops 12

    # CI: replay the regression corpus first, then a bounded sweep
    python -m repro.fuzz --corpus corpus/seeds.json --seeds 0..60 \\
        --json fuzz-report.json --out fuzz-repros

    # chase one seed through a subset of the matrix
    python -m repro.fuzz --seeds 1337 --matrix tree,legacy

Exit status is non-zero when any seed diverges — the lane is red
precisely when two cells of the matrix disagree about the same graph.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.fuzz.generator import GeneratorOptions, generate
from repro.fuzz.harness import matrix_cells, run_program
from repro.fuzz.shrinker import shrink


def _parse_seeds(spec: str) -> list[int]:
    """``"0..200"`` (half-open), ``"3"``, or ``"1,5,9"``."""
    spec = spec.strip()
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return list(range(int(lo), int(hi)))
    return [int(tok) for tok in spec.split(",") if tok.strip()]


def _campaign_entry(seed: int, options: GeneratorOptions,
                    matrix: list[str] | None, do_shrink: bool,
                    out_dir: Path, source: str) -> dict:
    program = generate(seed, options)
    cells = matrix_cells(program, subset=matrix) if matrix else None
    report = run_program(program, cells=cells)
    entry = report.to_dict()
    entry["source"] = source
    if report.divergences and do_shrink:
        # Shrink against the first divergence's cell: the shrinker's
        # oracle re-runs that cell's baseline and sim-time pairs.
        target = report.divergences[0].cell
        result = shrink(program, target)
        script = result.program.to_python(
            cell=target,
            note=(f"Original program: {result.original_ops} instruction(s); "
                  f"shrunk to {result.ops} in {result.attempts} attempt(s)."),
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        safe_label = target.label().replace("/", "-")
        path = out_dir / f"seed_{seed}_{safe_label}.py"
        path.write_text(script, encoding="utf-8")
        entry["shrunk"] = {
            "ops": result.ops,
            "original_ops": result.original_ops,
            "attempts": result.attempts,
            "cell": target.label(),
            "script": str(path),
        }
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description=(
            "differential-fuzz the execution matrix with random graphs"
        ),
    )
    parser.add_argument(
        "--seeds", default="0..50", metavar="SPEC",
        help="seed range 'A..B' (half-open), single seed, or 'a,b,c' "
             "(default: 0..50)",
    )
    parser.add_argument(
        "--ops", type=int, default=12, metavar="N",
        help="op budget per generated program (default: 12)",
    )
    parser.add_argument(
        "--matrix", default=None, metavar="TOKENS",
        help="comma-separated label substrings selecting matrix cells "
             "(e.g. 'tree,legacy'); default: the full matrix",
    )
    parser.add_argument(
        "--max-world", type=int, default=4, metavar="N",
        help="largest collective world size to draw, 2..8 (default: 4)",
    )
    parser.add_argument(
        "--no-collectives", action="store_true",
        help="generate single-device programs only",
    )
    parser.add_argument(
        "--no-gradients", action="store_true",
        help="never append tf.gradients tails",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report divergences without delta-debugging them",
    )
    parser.add_argument(
        "--corpus", type=Path, default=None, metavar="PATH",
        help="seeds.json regression corpus to replay before the sweep",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("fuzz-repros"), metavar="DIR",
        help="directory for shrunk repro scripts (default: fuzz-repros)",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write the machine-readable report here (CI artifact)",
    )
    args = parser.parse_args(argv)

    options = GeneratorOptions(
        max_ops=args.ops,
        collectives=not args.no_collectives,
        gradients=not args.no_gradients,
        max_world=max(2, min(8, args.max_world)),
    )
    matrix = (
        [tok.strip() for tok in args.matrix.split(",") if tok.strip()]
        if args.matrix else None
    )

    jobs: list[tuple[int, GeneratorOptions, str]] = []
    if args.corpus is not None and args.corpus.exists():
        for record in json.loads(args.corpus.read_text(encoding="utf-8")):
            corpus_options = GeneratorOptions(
                max_ops=record.get("ops", args.ops),
                collectives=record.get("collectives", True),
                gradients=record.get("gradients", True),
                max_world=record.get("max_world", 4),
            )
            jobs.append((record["seed"], corpus_options, "corpus"))
    jobs.extend((seed, options, "sweep") for seed in _parse_seeds(args.seeds))

    report: dict = {"seeds": [], "summary": {}}
    failures = 0
    started = time.perf_counter()
    for seed, job_options, source in jobs:
        entry = _campaign_entry(seed, job_options, matrix,
                                not args.no_shrink, args.out, source)
        report["seeds"].append(entry)
        if not entry["ok"]:
            failures += 1
            print(f"FAIL seed {seed} [{source}] "
                  f"({entry['ops']} op(s), world={entry['world']}):")
            for line in entry["divergences"]:
                print(f"     {line}")
            if "shrunk" in entry:
                shrunk = entry["shrunk"]
                print(f"     shrunk {shrunk['original_ops']} -> "
                      f"{shrunk['ops']} op(s): {shrunk['script']}")
    elapsed = time.perf_counter() - started

    total_cells = sum(len(e["cells"]) for e in report["seeds"])
    report["summary"] = {
        "programs": len(jobs),
        "cells": total_cells,
        "failures": failures,
        "seconds": round(elapsed, 2),
        "ops": args.ops,
        "matrix": matrix,
        "ok": failures == 0,
    }
    status = "ok" if failures == 0 else "FAIL"
    print(
        f"{status:4s} fuzz: {len(jobs)} program(s), {total_cells} "
        f"cell-run(s), {failures} diverging seed(s)  [{elapsed:.1f}s]"
    )

    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2), encoding="utf-8")
        print(f"report written to {args.json}")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
