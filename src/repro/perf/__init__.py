"""Performance accounting: calibration provenance and reports. The paper's
flop conventions live on the app results (``MatmulResult.flops``,
``CGResult.flops``, ``FFTResult.flops``)."""

from repro.perf.calibration import PAPER_TARGETS, paper_target
from repro.perf.reporting import format_table

__all__ = [
    "PAPER_TARGETS",
    "paper_target",
    "format_table",
]
