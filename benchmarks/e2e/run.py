"""Two-clock end-to-end benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py                       # all five, one run each
    python3 benchmarks/e2e/run.py --reps 5 --trace --out A.json
    python3 benchmarks/e2e/run.py --workload fuzz_cold --seed 3 \\
        --seconds 12 --trace 0                          # the driver's form

One *run* of a workload is what the driver's contract calls a run: with
``--trace 0`` it starts one child process that sets up and then repeats
the timed call while it fits into ``--seconds`` (twice at least, unless
one call alone is over the budget), plus
``SETUP_SAMPLES - 1`` children that only set up, and reports the medians
as ``wall_s`` / ``setup_s`` (rescaled to the reference machine speed, see
``speed.py``) with the child's ``peak_rss_mb``. With
``--trace 1`` it starts one plain and one traced child, one timed call
each, and reports every per-layer metric. A bare ``--trace`` does the
``--reps`` timed runs first and one traced run per workload after them.

Children run strictly one at a time, round-robin over the workloads
(run 1 of each, then run 2 ...) so machine drift spreads evenly. Every
metric is printed by name with its unit; the last line of standard
output is the JSON object the driver reads. The exit code is non-zero
when any output failed validation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import layers

SETUP_SAMPLES = 3


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, scale: str,
              trace: int = 0, setup_only: bool = False) -> dict:
    command = [sys.executable, os.path.join(layers.HERE, "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--scale", scale,
               "--trace", str(trace)]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise ChildFailed(f"{workload}: child exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_run(workload: str, seed: int, seconds: float, scale: str) -> dict:
    child = run_child(workload, seed, seconds, scale)
    setups = [child]
    for _ in range(SETUP_SAMPLES - 1 if scale == "full" else 0):
        setups.append(run_child(workload, seed, seconds, scale,
                                setup_only=True))
    reps = child["reps"]
    digests = {rep["sim_digest"] for rep in reps}
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    return {
        "trace": 0,
        "correct": failed == 0 and (
            len(digests) == 1 or not child["deterministic"]
        ),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": statistics.median(rep["wall_s"] for rep in reps),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": child["peak_rss_mb"],
        },
        # As measured, before rescaling to the reference machine speed.
        "raw": {
            "wall_s": statistics.median(rep["raw_wall_s"] for rep in reps),
            "setup_s": statistics.median(s["raw_setup_s"] for s in setups),
        },
        "sim_s": statistics.median(rep["sim_s"] for rep in reps),
        "sim_digest": reps[0]["sim_digest"],
        "ref_err": max(rep["ref_err"] for rep in reps),
        "timed_calls": len(reps),
        "setup_samples": len(setups),
        "deterministic": child["deterministic"],
        "versions": child["versions"],
    }


def traced_run(workload: str, seed: int, scale: str) -> dict:
    plain = run_child(workload, seed, 0.0, scale)
    traced = run_child(workload, seed, 0.0, scale, trace=1)
    plain_rep, traced_rep = plain["reps"][0], traced["reps"][0]
    attempted = plain_rep["attempted"] + traced_rep["attempted"]
    failed = plain_rep["failed"] + traced_rep["failed"]
    same_sim = plain_rep["sim_digest"] == traced_rep["sim_digest"]
    metrics = traced["per_layer"]
    metrics["harness.trace_overhead_x"] = (
        traced_rep["wall_s"] / plain_rep["wall_s"]
    )
    metrics["sim_s"] = traced_rep["sim_s"]
    metrics["ref_err"] = traced_rep["ref_err"]
    metrics["failed_frac"] = failed / attempted
    return {
        "trace": 1,
        "correct": failed == 0 and (same_sim or not traced["deterministic"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "sim_digest": traced_rep["sim_digest"],
        "sim_digest_untraced": plain_rep["sim_digest"],
        "trace_file": traced["trace_file"],
        "versions": traced["versions"],
    }


def units() -> dict[str, str]:
    table = {name: unit for name, unit, _, _ in layers.END_TO_END}
    table.update({name: spec[0] for name, spec in layers.PER_LAYER.items()})
    return table


def report(workload: str, seed: int, run: dict) -> None:
    """Every metric by name with its unit, then the driver's JSON line."""
    unit = units()
    kind = "traced" if run["trace"] else "timed"
    print(f"== {workload} seed={seed} ({kind} run)")
    for name, value in run["metrics"].items():
        raw = run.get("raw", {}).get(name)
        note = f"  (as measured: {raw:.6g})" if raw is not None else ""
        print(f"  {name:<40} {value:.6g} {unit[name]}{note}")
    if not run["trace"]:
        print(f"  {'sim_s':<40} {run['sim_s']!r} s  "
              f"digest {run['sim_digest'][:16]}")
        print(f"  {'ref_err':<40} {run['ref_err']:.6g} ratio")
        print(f"  {'failed_frac':<40} "
              f"{run['failed'] / run['attempted']:.6g} ratio  "
              f"({run['failed']}/{run['attempted']} operations, "
              f"{run['timed_calls']} timed calls)")
    elif run["sim_digest"] != run["sim_digest_untraced"]:
        print("  traced and untraced sim_digest differ")
    if not run["correct"]:
        print(f"  FAILED validation: {run['failed']} of {run['attempted']} "
              "operations")
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in run["metrics"].items()},
    }), flush=True)


def load_average() -> float:
    return os.getloadavg()[0]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", layers.REPO_ROOT, "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def summarize(runs: list[dict]) -> dict:
    """Median / min / max / n per end-to-end metric over the timed runs."""
    timed = [run for run in runs if not run["trace"]]
    traced = [run for run in runs if run["trace"]]
    summary: dict = {"runs": runs}
    if timed:
        def stats(values):
            return {"median": statistics.median(values), "min": min(values),
                    "max": max(values), "n": len(values),
                    "values": list(values)}

        summary["end_to_end"] = {
            name: stats([run["metrics"][name] for run in timed])
            for name, _, _, _ in layers.END_TO_END
        }
        summary["deterministic"] = timed[0]["deterministic"]
        summary["sim_s"] = stats([run["sim_s"] for run in timed])
        summary["sim_digest"] = sorted({run["sim_digest"] for run in timed})
        summary["ref_err"] = max(run["ref_err"] for run in timed)
        summary["attempted"] = sum(run["attempted"] for run in timed)
        summary["failed"] = sum(run["failed"] for run in timed)
        summary["failed_frac"] = summary["failed"] / summary["attempted"]
    if traced:
        summary["per_layer"] = traced[-1]["metrics"]
    return summary


def main() -> int:
    with open(os.path.join(layers.REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=layers.WORKLOADS,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="budget of timed calls in one run")
    parser.add_argument("--reps", type=int, default=1,
                        help="timed runs per workload")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="0: timed runs; 1: one traced run; bare "
                             "--trace: timed runs, then one traced run")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="write all results to this JSON file")
    args = parser.parse_args()

    if not os.path.isdir(layers.REPRO_DIR):
        print(f"run.py: no program to measure at {layers.REPRO_DIR}",
              file=sys.stderr)
        return 2
    selected = args.workload or list(layers.WORKLOADS)
    load_start = load_average()
    if load_start > (os.cpu_count() or 1):
        print(f"warning: 1-min load average {load_start:.2f} exceeds "
              f"{os.cpu_count()} cores; timings will be noisy",
              file=sys.stderr)

    runs: dict[str, list] = {name: [] for name in selected}
    plan = []
    if args.trace != "1":
        plan += [("timed", w) for _ in range(args.reps) for w in selected]
    if args.trace != "0":
        plan += [("traced", w) for w in selected]
    ok = True
    for kind, workload in plan:
        try:
            if kind == "timed":
                run = timed_run(workload, args.seed, args.seconds, args.scale)
            else:
                run = traced_run(workload, args.seed, args.scale)
        except ChildFailed as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        runs[workload].append(run)
        report(workload, args.seed, run)
        ok = ok and run["correct"]

    if args.out:
        versions = next(run["versions"] for rs in runs.values() for run in rs)
        result = {
            "claim": None,
            "environment": {
                "nproc": os.cpu_count(),
                "cpu": cpu_model(),
                **versions,
                "blas_threads": layers.BLAS_PINS,
                "load_1min_start": load_start,
                "load_1min_end": load_average(),
                "seed": args.seed,
                "reps": args.reps,
                "run_seconds": args.seconds,
                "scale": args.scale,
                "git_commit": git_commit(),
            },
            "workloads": {name: summarize(rs) for name, rs in runs.items()},
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
