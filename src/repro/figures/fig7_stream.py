"""Fig. 7 — STREAM communication performance.

Sweeps the three transports (gRPC, MPI, RDMA verbs) over the paper's
three placements (Tegner GPU, Tegner CPU, Kebnekaise GPU) and transfer
sizes (2, 16, 128 MB), reporting MB/s like the paper's grouped bars.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.stream import StreamResult, run_stream
from repro.perf.reporting import comparison_table, format_table

__all__ = ["run_fig7", "run_point", "format_fig7", "paper_comparison",
           "PLATFORMS", "PROTOCOLS", "SIZES_MB"]

# (label, system, device) — the paper's three bar groups.
PLATFORMS = [
    ("Tegner GPU", "tegner-k420", "gpu"),
    ("Tegner CPU", "tegner-k420", "cpu"),
    ("Kebnekaise GPU", "kebnekaise-k80", "gpu"),
]
PROTOCOLS = [("gRPC", "grpc"), ("MPI", "grpc+mpi"), ("RDMA", "grpc+verbs")]
SIZES_MB = (2, 16, 128)


@dataclass
class Fig7Point:
    platform: str
    protocol: str
    size_mb: float
    result: StreamResult

    @property
    def key(self) -> tuple:
        return (self.platform, self.protocol, self.size_mb)

    @property
    def value(self) -> float:
        return self.result.bandwidth_mbs


def run_point(platform: str, protocol: str, size_mb: float,
              iterations: int = 25) -> Fig7Point:
    """One bar of Fig. 7, by its labels (``"Tegner GPU", "RDMA", 128``)."""
    system, device = {label: (system, device)
                      for label, system, device in PLATFORMS}[platform]
    result = run_stream(
        system=system,
        device=device,
        size_mb=size_mb,
        protocol=dict(PROTOCOLS)[protocol],
        iterations=iterations,
        shape_only=True,
    )
    return Fig7Point(platform, protocol, size_mb, result)


def run_fig7(iterations: int = 25, sizes=SIZES_MB) -> list[Fig7Point]:
    """Run the full Fig. 7 sweep (27 bars)."""
    return [
        run_point(platform, proto_label, size, iterations)
        for platform, _sys, _dev in PLATFORMS
        for proto_label, _proto in PROTOCOLS
        for size in sizes
    ]


def format_fig7(points: list[Fig7Point]) -> str:
    """The figure as a table: rows = platform x protocol, cols = sizes."""
    sizes = sorted({p.size_mb for p in points})
    measured = {p.key: p.value for p in points}
    headers = ["Platform", "Protocol"] + [f"{s:g} MB [MB/s]" for s in sizes]
    rows = []
    for platform, _sys, _dev in PLATFORMS:
        for proto_label, _proto in PROTOCOLS:
            rows.append([platform, proto_label] + [
                measured.get((platform, proto_label, size), "-")
                for size in sizes
            ])
    return format_table(headers, rows, title="Fig. 7 — STREAM bandwidth")


def paper_comparison(points: list[Fig7Point]) -> str:
    """Paper-vs-measured rows for the quantities the paper states."""
    return comparison_table("Fig. 7", {p.key: p.value for p in points})


def main() -> None:
    points = run_fig7()
    print(format_fig7(points))
    print()
    print(paper_comparison(points))


if __name__ == "__main__":
    main()
