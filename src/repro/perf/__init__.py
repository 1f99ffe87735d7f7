"""Performance accounting: flop conventions, calibration provenance, reports."""

from repro.perf.calibration import PAPER_TARGETS, paper_target
from repro.perf.metrics import (
    bandwidth_mbs,
    cg_flops,
    fft_flops,
    matmul_flops,
    scaling_factor,
)
from repro.perf.reporting import format_table

__all__ = [
    "matmul_flops",
    "cg_flops",
    "fft_flops",
    "bandwidth_mbs",
    "scaling_factor",
    "PAPER_TARGETS",
    "paper_target",
    "format_table",
]
