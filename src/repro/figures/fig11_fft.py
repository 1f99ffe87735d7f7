"""Fig. 11 — distributed FFT strong scaling.

Paper configurations: one merger plus 2/4/8 GPUs; Tegner K420 transforms
N = 2^29 in 64 tiles, Tegner K80 transforms N = 2^31 in 128 tiles. The
metric is Gflops/s measured to the point all tiles are collected by the
merger (the serial Python merge is excluded, as the paper explains).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.fft import FFTResult, run_fft
from repro.errors import ResourceExhaustedError
from repro.perf.reporting import comparison_table, format_table

__all__ = ["run_fig11", "run_point", "format_fig11", "paper_comparison",
           "SWEEP"]

SWEEP = {
    "tegner-k420": dict(n=1 << 29, tiles=64, gpus=(2, 4, 8)),
    "tegner-k80": dict(n=1 << 31, tiles=128, gpus=(2, 4, 8)),
}


@dataclass
class Fig11Point:
    system: str
    n: int
    gpus: int
    result: Optional[FFTResult]

    @property
    def key(self) -> tuple:
        return (self.system, self.gpus)

    @property
    def value(self) -> Optional[float]:
        return None if self.result is None else self.result.gflops


def run_point(system: str, gpus: int) -> Fig11Point:
    """One point of Fig. 11 at the system's problem size and tile count."""
    params = SWEEP[system]
    try:
        result = run_fft(
            system=system,
            n=params["n"],
            num_tiles=params["tiles"],
            num_gpus=gpus,
            shape_only=True,
        )
    except ResourceExhaustedError:
        result = None
    return Fig11Point(system, params["n"], gpus, result)


def run_fig11(quick: bool = True) -> list[Fig11Point]:
    return [
        run_point(system, gpus)
        for system, params in SWEEP.items()
        for gpus in params["gpus"]
    ]


def format_fig11(points: list[Fig11Point]) -> str:
    headers = ["System", "N", "Mergers+GPUs", "Gflops/s (collect)",
               "collect [s]", "merge [s]"]
    rows = []
    for p in points:
        if p.result is None:
            rows.append([p.system, p.n, f"1+{p.gpus}", "OOM", "-", "-"])
        else:
            rows.append([
                p.system, p.n, f"1+{p.gpus}", p.result.gflops,
                p.result.collect_seconds, p.result.merge_seconds,
            ])
    return format_table(headers, rows, title="Fig. 11 — FFT")


def paper_comparison(points: list[Fig11Point]) -> str:
    return comparison_table("Fig. 11", {p.key: p.value for p in points})


def main() -> None:
    points = run_fig11()
    print(format_fig11(points))
    print()
    print(paper_comparison(points))


if __name__ == "__main__":
    main()
