"""Fig. 8 — tiled matrix-multiplication strong scaling.

Sweeps the paper's configurations ("number of reducers + number of GPUs"
on the x-axis, two reducers throughout):

* Tegner K420, tile 4096², problem sizes 16384/32768/65536, 2-8 GPUs;
* Tegner K80, tile 8192², sizes 32768/65536, 2-8 GPUs;
* Kebnekaise K80, tile 8192², sizes 32768/65536, 2-16 GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.matmul import MatmulResult, run_matmul
from repro.errors import ResourceExhaustedError
from repro.perf.reporting import comparison_table, format_table

__all__ = ["run_fig8", "run_point", "format_fig8", "paper_comparison", "SWEEP"]

NUM_REDUCERS = 2

SWEEP = {
    "tegner-k420": dict(tile=4096, sizes=(16384, 32768, 65536), gpus=(2, 4, 8)),
    "tegner-k80": dict(tile=8192, sizes=(32768, 65536), gpus=(2, 4, 8)),
    "kebnekaise-k80": dict(tile=8192, sizes=(32768, 65536), gpus=(2, 4, 8, 16)),
}

# The 65536 problem at tile 4096 means 4096 tile products; it is the one
# slow sweep point, so quick mode (the e2e benchmark's) drops it.
QUICK_SKIP = {("tegner-k420", 65536)}


@dataclass
class Fig8Point:
    system: str
    n: int
    gpus: int
    result: Optional[MatmulResult]  # None => OOM (paper omits the bar)

    @property
    def key(self) -> tuple:
        return (self.system, self.n, self.gpus)

    @property
    def value(self) -> Optional[float]:
        return None if self.result is None else self.result.gflops


def run_point(system: str, n: int, gpus: int) -> Fig8Point:
    """One point of Fig. 8 at the system's sweep tile size."""
    try:
        result = run_matmul(
            system=system,
            n=n,
            tile=SWEEP[system]["tile"],
            num_gpus=gpus,
            num_reducers=NUM_REDUCERS,
            shape_only=True,
        )
    except ResourceExhaustedError:
        result = None
    return Fig8Point(system, n, gpus, result)


def run_fig8(quick: bool = True) -> list[Fig8Point]:
    return [
        run_point(system, n, gpus)
        for system, params in SWEEP.items()
        for n in params["sizes"]
        if not (quick and (system, n) in QUICK_SKIP)
        for gpus in params["gpus"]
    ]


def format_fig8(points: list[Fig8Point]) -> str:
    headers = ["System", "N", "Reducers+GPUs", "Gflops/s", "Elapsed [s]"]
    rows = []
    for p in points:
        if p.result is None:
            rows.append([p.system, p.n, f"{NUM_REDUCERS}+{p.gpus}", "OOM", "-"])
        else:
            rows.append([
                p.system, p.n, f"{NUM_REDUCERS}+{p.gpus}",
                p.result.gflops, p.result.elapsed,
            ])
    return format_table(headers, rows, title="Fig. 8 — tiled matmul")


def paper_comparison(points: list[Fig8Point]) -> str:
    return comparison_table("Fig. 8", {p.key: p.value for p in points})


def main(quick: bool = True) -> None:
    points = run_fig8(quick=quick)
    print(format_fig8(points))
    print()
    print(paper_comparison(points))


if __name__ == "__main__":
    import sys

    main(quick="--full" not in sys.argv)
