"""Calibration provenance: every paper number the model is pinned against.

The simulator's constants (GPU efficiencies, link rates, staging paths,
serialization throughput) live with their hardware models in
``repro.simnet``; this module records the *measurements from the paper*
they were calibrated against, each with the figure and sweep point it
is read at, so every figure renders its paper-vs-measured table from
these rows (``repro.perf.reporting.comparison_table``).

Target values were read off the paper's text where stated numerically and
off the figures where only bars/curves are given (marked ``approx=True``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import NotFoundError

__all__ = ["PaperTarget", "PAPER_TARGETS", "paper_target"]


@dataclass(frozen=True)
class PaperTarget:
    """One number reported by the paper, and the sweep point it is read at.

    ``point`` is a key of the figure's sweep (``FigNPoint.key``) whose
    measured value the number is compared with; with ``over`` set the
    measured value is ``point``'s divided by ``over``'s (a scaling
    factor). A target without a point is cited, not measured.
    """

    key: str
    value: float
    unit: str
    figure: str  # the paper-vs-measured table the row belongs to
    point: Optional[tuple]
    source: str  # where in the paper
    over: Optional[tuple] = None
    approx: bool = False  # read off a figure rather than stated in text


_T = PaperTarget

PAPER_TARGETS: dict[str, PaperTarget] = {t.key: t for t in [
    # ---- Fig. 7 / Section VI-A: STREAM ---------------------------------
    _T("stream/tegner-cpu/rdma/128MB", 6000, "MB/s",
       "Fig. 7", ("Tegner CPU", "RDMA", 128),
       "VI-A: 'we record peak bandwidth of over 6 GB/s on Tegner when "
       "tensors are placed in CPU host memory'"),
    _T("stream/tegner/theoretical", 12000, "MB/s", "Fig. 7", None,
       "VI-A: 'The theoretical bandwidth on Tegner is 12 GB/s'"),
    _T("stream/tegner-gpu/rdma/128MB", 1300, "MB/s",
       "Fig. 7", ("Tegner GPU", "RDMA", 128),
       "VI-A: 'bandwidth saturates at approximately 1300 MB/s on Tegner "
       "where tensors are hosted on K420 GPUs'"),
    _T("stream/kebnekaise-gpu/rdma/128MB", 2300, "MB/s",
       "Fig. 7", ("Kebnekaise GPU", "RDMA", 128),
       "VI-A: 'bandwidth saturates at below 2300 MB/s where tensors are "
       "hosted on K80 GPUs'"),
    _T("stream/tegner-gpu/mpi/128MB", 318, "MB/s",
       "Fig. 7", ("Tegner GPU", "MPI", 128),
       "VI-A: 'approximately 318 MB/s on Tegner ... MPI is used'"),
    _T("stream/kebnekaise-gpu/mpi/128MB", 480, "MB/s",
       "Fig. 7", ("Kebnekaise GPU", "MPI", 128),
       "VI-A: 'approximately 480 MB/s ... on Kebnekaise'"),
    _T("stream/tegner-gpu/grpc/128MB", 110, "MB/s",
       "Fig. 7", ("Tegner GPU", "gRPC", 128),
       "VI-A: 'gRPC gives the lowest bandwidth on Tegner ... resolved to "
       "communicate through Ethernet' (bar read off Fig. 7)", approx=True),
    # ---- Fig. 8 / Section VI-B: tiled matmul ---------------------------
    _T("matmul/tegner-k420/32768/scaling-2to4", 2.0, "x",
       "Fig. 8", ("tegner-k420", 32768, 4),
       "VI-B: 'approximately 2x increase in performance when increasing "
       "the number of GPUs from two to four with K420 GPUs ... 32768'",
       over=("tegner-k420", 32768, 2)),
    _T("matmul/tegner-k420/32768/scaling-4to8", 2.0, "x",
       "Fig. 8", ("tegner-k420", 32768, 8),
       "VI-B: 'similar performance improvement for this setting when "
       "increasing the number of GPUs in use from four to eight'",
       over=("tegner-k420", 32768, 4)),
    _T("matmul/tegner-k80/65536/scaling-2to4", 1.8, "x",
       "Fig. 8", ("tegner-k80", 65536, 4),
       "VI-B: 'roughly 1.8x improvement when scaling from two to four "
       "GPUs with problem size 65536'",
       over=("tegner-k80", 65536, 2)),
    _T("matmul/kebnekaise-k80/32768/scaling-2to4", 1.4, "x",
       "Fig. 8", ("kebnekaise-k80", 32768, 4),
       "VI-B: 'scaling of 1.4x when scaling from two to four GPUs'",
       over=("kebnekaise-k80", 32768, 2)),
    _T("matmul/kebnekaise-k80/32768/peak-16gpu", 2478, "Gflops/s",
       "Fig. 8", ("kebnekaise-k80", 32768, 16),
       "VI-B: 'peak performance of 2478 Gflops/s when running on 16 K80 "
       "GPUs for problem size 32768'"),
    # ---- Fig. 10 / Section VI-C: CG ------------------------------------
    _T("cg/tegner-k80/32768/scaling-2to4", 1.74, "x",
       "Fig. 10", ("tegner-k80", 32768, 4),
       "VI-C: 'approximately 1.74x improvement ... from two to four K80 "
       "GPUs with problem size 32768'",
       over=("tegner-k80", 32768, 2)),
    _T("cg/kebnekaise-k80/32768/scaling-2to4", 1.6, "x",
       "Fig. 10", ("kebnekaise-k80", 32768, 4),
       "VI-C: 'a scaling of 1.6x in performance when increasing from two "
       "to four K80 GPUs on Kebnekaise with problem size 32768'",
       over=("kebnekaise-k80", 32768, 2)),
    _T("cg/kebnekaise-k80/32768/scaling-4to8", 1.3, "x",
       "Fig. 10", ("kebnekaise-k80", 32768, 8),
       "VI-C: 'scaling drops to 1.3x, which is consistent with the "
       "expected behaviour of strong scaling'",
       over=("kebnekaise-k80", 32768, 4)),
    _T("cg/kebnekaise-k80/65536/scaling-8to16", 1.36, "x",
       "Fig. 10", ("kebnekaise-k80", 65536, 16),
       "VI-C: 'improvement of 1.36x when scaling from eight to 16 K80 GPUs'",
       over=("kebnekaise-k80", 65536, 8)),
    _T("cg/kebnekaise-v100/32768/scaling-2to4", 1.26, "x",
       "Fig. 10", ("kebnekaise-v100", 32768, 4),
       "VI-C: 'V100 nodes ... give 1.26x improvement ... from two to four'",
       over=("kebnekaise-v100", 32768, 2)),
    _T("cg/kebnekaise-v100/32768/scaling-4to8", 1.16, "x",
       "Fig. 10", ("kebnekaise-v100", 32768, 8),
       "VI-C: 'from four to eight improvement drops to 1.16x'",
       over=("kebnekaise-v100", 32768, 4)),
    _T("cg/kebnekaise-v100/8gpu-gflops", 300, "Gflops/s",
       "Fig. 10", ("kebnekaise-v100", 32768, 8),
       "VI-C: 'our CG solver, running on eight V100 GPUs gave over 300 "
       "Gflops/s'"),
    # ---- Fig. 11 / Section VI-D: FFT -----------------------------------
    # One sentence covers both Tegner configurations; each is judged
    # against its midpoint.
    _T("fft/tegner-k420/scaling-2to4", 1.7, "x",
       "Fig. 11", ("tegner-k420", 4),
       "VI-D: 'approximately 1.6x to 1.8x increase in performance' from "
       "2 to 4 GPUs (midpoint)",
       over=("tegner-k420", 2)),
    _T("fft/tegner-k80/scaling-2to4", 1.7, "x",
       "Fig. 11", ("tegner-k80", 4),
       "VI-D: 'approximately 1.6x to 1.8x increase in performance' from "
       "2 to 4 GPUs (midpoint)",
       over=("tegner-k80", 2)),
    _T("fft/tegner-k80/peak-gflops", 32, "Gflops/s",
       "Fig. 11", ("tegner-k80", 8),
       "Fig. 11: K80 curve tops out at roughly 30-35 Gflops/s", approx=True),
]}


def paper_target(key: str) -> PaperTarget:
    """Look up a paper measurement by key."""
    try:
        return PAPER_TARGETS[key]
    except KeyError:
        raise NotFoundError(
            f"No paper target {key!r}; known keys: {sorted(PAPER_TARGETS)[:5]}..."
        ) from None
