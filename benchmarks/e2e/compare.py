"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians, the change, the
run-to-run spread (distance between the quartiles over the median, the
larger of the two files) and a verdict:

* ``ok`` / ``regressed`` / ``improved`` — B's median against A's, by
  the bound ``BENCHMARK.json`` fixes for the metric;
* ``unresolved`` — the spread exceeds the bound and the two files' runs
  overlap, so the medians say nothing either way.

``sim_s`` and ``sim_digest`` are compared exactly on the deterministic
workloads (``serving_closed``'s ``sim_s`` gets a 0.10 band instead),
``ref_err`` may not rise by more than 1e-12 and ``failed_frac`` may not
rise at all. Where both files hold a traced run, the exact counts a
host-only change must keep are listed too (``ok`` / ``changed``). Exit
code 1 on any ``regressed`` row.
"""

from __future__ import annotations

import json
import statistics
import sys

import layers

REF_ERR_FLOOR = 1e-12
EXACT_COUNTS = ("simnet.events.steps", "core.partition.plans_built",
                "core.partition.plan_items", "core.graph.ops_created")


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def bounded(a: dict, b: dict, bound: float) -> tuple[float, str]:
    """Verdict for a lower-is-better metric that may worsen by ``bound``."""
    noise = max(spread(a["values"]), spread(b["values"]))
    overlap = b["min"] <= a["max"] and a["min"] <= b["max"]
    change = (b["median"] - a["median"]) / a["median"]
    if noise > bound and overlap:
        return noise, "unresolved"
    if change > bound:
        return noise, "regressed"
    if change < -bound:
        return noise, "improved"
    return noise, "ok"


def exact(a: float, b: float, floor: float = 0.0) -> str:
    if b > a + floor:
        return "regressed"
    if b < a - floor:
        return "improved"
    return "ok"


def compare(a: dict, b: dict) -> list[tuple]:
    """Rows of (workload, metric, A, B, spread, bound, verdict)."""
    rows = []
    for name in layers.WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if not wa or not wb or "end_to_end" not in wa \
                or "end_to_end" not in wb:
            continue
        for metric, _unit, _better, bound in layers.END_TO_END:
            ma, mb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            noise, verdict = bounded(ma, mb, bound)
            rows.append((name, metric, ma["median"], mb["median"], noise,
                         bound, verdict))
        sa, sb = wa["sim_s"], wb["sim_s"]
        if wa["deterministic"]:
            rows.append((name, "sim_s", sa["median"], sb["median"], 0.0, 0.0,
                         exact(sa["median"], sb["median"])))
            same = wa["sim_digest"] == wb["sim_digest"]
            rows.append((name, "sim_digest", wa["sim_digest"][0][:12],
                         wb["sim_digest"][0][:12], 0.0, 0.0,
                         "ok" if same else "changed"))
        else:
            noise, verdict = bounded(sa, sb, layers.SERVING_SIM_BOUND)
            rows.append((name, "sim_s", sa["median"], sb["median"], noise,
                         layers.SERVING_SIM_BOUND, verdict))
        rows.append((name, "ref_err", wa["ref_err"], wb["ref_err"], 0.0, 0.0,
                     exact(wa["ref_err"], wb["ref_err"], REF_ERR_FLOOR)))
        rows.append((name, "failed_frac", wa["failed_frac"],
                     wb["failed_frac"], 0.0, 0.0,
                     exact(wa["failed_frac"], wb["failed_frac"])))
        if wa["deterministic"] and "per_layer" in wa and "per_layer" in wb:
            for count in EXACT_COUNTS:
                ca, cb = wa["per_layer"][count], wb["per_layer"][count]
                rows.append((name, count, ca, cb, 0.0, 0.0,
                             "ok" if ca == cb else "changed"))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    files = []
    for path in argv[1:]:
        with open(path, encoding="utf-8") as handle:
            files.append(json.load(handle))
    rows = compare(*files)
    print(f"{'workload':<18}{'metric':<28}{'A':>14}{'B':>14}{'change':>9}"
          f"{'spread':>8}{'bound':>7}  verdict")
    for name, metric, va, vb, noise, bound, verdict in rows:
        if isinstance(va, str):
            change = ""
        else:
            change = f"{(vb - va) / va:+.1%}" if va else f"{vb - va:+.3g}"
            va, vb = f"{va:.8g}", f"{vb:.8g}"
        print(f"{name:<18}{metric:<28}{va:>14}{vb:>14}{change:>9}"
              f"{noise:>8.1%}{bound:>7.2f}  {verdict}")
    if not rows:
        print("compare.py: the files share no workload with timed runs",
              file=sys.stderr)
        return 2
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
