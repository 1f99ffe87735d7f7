"""``python -m repro.analysis`` — verify every example graph and a
seeded corpus of fuzz-generator programs.

The CLI is the CI verifier lane's entry point and a local burn-in tool:

* each script under ``examples/`` runs in a subprocess; every plan it
  builds goes through the full static-analysis layer, as every plan
  does (graph invariants after every optimizer pass, plan
  races/pairing/collective order before caching).
  ``REPRO_VERIFY_REPORT`` collects one JSON line per verified plan, so
  the summary can say how many plans were actually proven, not just
  that scripts exited zero;
* ``--corpus N`` additionally draws N programs from the fuzz generator
  (:func:`repro.fuzz.generate`, seeds ``--seed`` onward) and runs each
  through the fuzz harness's Session cells: optimized against the
  unoptimized baseline, byte for byte. Both verify, and any diagnostic
  on a generated program is, by construction, a verifier false
  positive;
* ``--json PATH`` writes the machine-readable report CI uploads as an
  artifact, and ``--rules`` prints the registered rule catalog.

Exit status is non-zero when any example fails, any diagnostic fires, or
any corpus graph miscompares — the lane is red precisely when the
verifier or an optimizer pass regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis import rule_catalog


def _repo_root() -> Path:
    # src/repro/analysis/__main__.py -> repo root three levels up from src/
    return Path(__file__).resolve().parents[3]


def _verify_example(script: Path, timeout: float) -> dict:
    env = dict(os.environ)
    src_dir = str(_repo_root() / "src")
    env["PYTHONPATH"] = (
        src_dir + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src_dir
    )
    with tempfile.NamedTemporaryFile(
        mode="r", suffix=".jsonl", delete=False
    ) as tmp:
        report_path = tmp.name
    env["REPRO_VERIFY_REPORT"] = report_path
    started = time.perf_counter()
    result: dict = {"example": script.name, "plans": 0, "diagnostics": []}
    try:
        proc = subprocess.run(
            [sys.executable, str(script)],
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        result["returncode"] = proc.returncode
        if proc.returncode != 0:
            result["stderr"] = proc.stderr[-2000:]
        records = []
        with open(report_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        result["plans"] = len(records)
        for record in records:
            result["diagnostics"].extend(record.get("diagnostics", ()))
    except subprocess.TimeoutExpired:
        result["returncode"] = -1
        result["stderr"] = f"timed out after {timeout:.0f}s"
    finally:
        try:
            os.unlink(report_path)
        except OSError:
            pass
    result["seconds"] = round(time.perf_counter() - started, 2)
    result["ok"] = result["returncode"] == 0 and not any(
        d["severity"] != "INFO" for d in result["diagnostics"]
    )
    return result


def run_corpus(count: int, seed: int) -> dict:
    """Verify and differential-test ``count`` generated programs.

    Returns the ``corpus`` section of the JSON report.
    """
    from repro.fuzz.generator import GeneratorOptions, generate
    from repro.fuzz.harness import BASELINE, Cell, compare_runs, run_cell

    optimized = Cell(frontend="session", optimize=True)
    options = GeneratorOptions(max_ops=24, max_world=4)
    result: dict = {
        "graphs": 0, "ops": 0, "plans_verified": 0,
        "false_positives": [], "mismatches": [], "seed": seed,
    }
    for program_seed in range(seed, seed + count):
        program = generate(program_seed, options)
        result["graphs"] += 1
        result["ops"] += program.op_count()
        baseline = run_cell(program, BASELINE)
        run = run_cell(program, optimized)
        rejected = [r.error for r in (baseline, run) if r.verifier_rejected]
        if rejected:
            result["false_positives"].append(
                f"seed {program_seed}: {rejected[0]}"
            )
            continue
        result["plans_verified"] += 1
        result["mismatches"].extend(
            f"seed {program_seed}: {divergence.describe()}"
            for divergence in compare_runs(baseline, run)
        )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="statically verify example graphs and a random corpus",
    )
    parser.add_argument(
        "--examples-dir", type=Path, default=None,
        help="directory of example scripts (default: <repo>/examples)",
    )
    parser.add_argument(
        "--skip-examples", action="store_true",
        help="only run the generated-program corpus",
    )
    parser.add_argument(
        "--corpus", type=int, default=0, metavar="N",
        help="also verify N generated programs (differential-tested)",
    )
    parser.add_argument("--seed", type=int, default=20190520,
                        help="first generator seed of the corpus")
    parser.add_argument(
        "--timeout", type=float, default=300.0,
        help="per-example subprocess timeout in seconds",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write the machine-readable report here (CI artifact)",
    )
    parser.add_argument(
        "--rules", action="store_true",
        help="print the registered rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.rules:
        for rule in rule_catalog():
            print(f"{rule.name:35s} {rule.severity.name:8s} "
                  f"{rule.description}")
        return 0

    report: dict = {"examples": [], "corpus": None}
    failures = 0

    if not args.skip_examples:
        examples_dir = args.examples_dir or _repo_root() / "examples"
        scripts = sorted(examples_dir.glob("*.py"))
        if not scripts:
            print(f"no example scripts under {examples_dir}", file=sys.stderr)
            return 2
        for script in scripts:
            outcome = _verify_example(script, args.timeout)
            report["examples"].append(outcome)
            status = "ok" if outcome["ok"] else "FAIL"
            print(
                f"{status:4s} {outcome['example']:28s} "
                f"{outcome['plans']:3d} plan(s) verified  "
                f"[{outcome['seconds']:.1f}s]"
            )
            if not outcome["ok"]:
                failures += 1
                for diag in outcome["diagnostics"]:
                    print(f"     {diag['severity']}: {diag['rule']}: "
                          f"{diag['message']}")
                if outcome.get("stderr"):
                    print(f"     {outcome['stderr']}")

    if args.corpus > 0:
        started = time.perf_counter()
        corpus = run_corpus(args.corpus, args.seed)
        elapsed = time.perf_counter() - started
        report["corpus"] = corpus
        problems = [
            *(f"false positive: {d}" for d in corpus["false_positives"]),
            *corpus["mismatches"],
        ]
        print(
            f"{'FAIL' if problems else 'ok':4s} corpus: {corpus['graphs']} "
            f"graph(s), {corpus['ops']} op(s), {corpus['plans_verified']} "
            f"plan(s) verified, {len(corpus['mismatches'])} mismatch(es)  "
            f"[{elapsed:.1f}s]"
        )
        if problems:
            failures += 1
            for problem in problems:
                print(f"     {problem}")

    if args.json is not None:
        report["ok"] = failures == 0
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2), encoding="utf-8")
        print(f"report written to {args.json}")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
