"""Run metadata: per-op execution statistics and transfer records.

The analog of TF's ``RunMetadata``/``StepStats``, consumed by
:mod:`repro.core.timeline` to produce Chrome-trace visualisations like the
paper's Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["NodeStats", "PassStats", "TransferStats", "RunMetadata", "RunOptions"]


@dataclass
class RunOptions:
    """Per-run options (trace collection)."""

    trace_level: int = 0  # 0 = NO_TRACE, 1 = FULL_TRACE

    NO_TRACE = 0
    FULL_TRACE = 1


@dataclass
class NodeStats:
    """Timing of one op execution on one device."""

    device: str
    op_name: str
    op_type: str
    start: float  # simulated seconds
    end: float
    out_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class TransferStats:
    """One cross-device tensor movement."""

    tensor_name: str
    src_device: str
    dst_device: str
    nbytes: int
    start: float
    end: float
    protocol: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def bandwidth(self) -> float:
        """Achieved bytes/second (0 for instantaneous/zero-byte moves)."""
        if self.end <= self.start:
            return 0.0
        return self.nbytes / (self.end - self.start)


@dataclass
class PassStats:
    """Effect of one plan-time optimization pass (Grappler-style).

    ``nodes_before``/``nodes_after`` count schedulable units (graph ops for
    graph-level passes, plan items for plan-level passes); ``detail`` holds
    per-pass counters such as folded/merged/spliced node counts.
    """

    name: str
    nodes_before: int = 0
    nodes_after: int = 0
    detail: dict = field(default_factory=dict)

    @property
    def nodes_removed(self) -> int:
        return self.nodes_before - self.nodes_after


@dataclass
class RunMetadata:
    """Everything recorded during one session run."""

    step_stats: list[NodeStats] = field(default_factory=list)
    transfers: list[TransferStats] = field(default_factory=list)
    start_time: float = 0.0
    end_time: float = 0.0
    # Plan-time optimizer effects (one entry per pass that ran when the
    # plan for this run was built; empty when optimization is disabled).
    pass_stats: list[PassStats] = field(default_factory=list)
    # Executor accounting: total schedulable items in the plan, how many
    # were dispatched inline off the ready list (zero-cost fast path) and
    # how many ran as full simulator processes.
    plan_items: int = 0
    fast_path_items: int = 0
    process_items: int = 0
    # Rank legs of lowered collective ops executed during the run (one
    # CollectiveAllReduce over W workers contributes W).
    collective_items: int = 0
    # Collective op name -> the communication schedule the lowering chose
    # ("ring"/"tree"/...), with the builders' algorithm="auto" resolved
    # per payload and world size at plan-build time.
    collective_algorithms: dict = field(default_factory=dict)
    # Frontend cache accounting. ``plan_cache_hit`` says whether *this*
    # run reused a cached execution plan; the ``*_hits``/``*_misses``
    # pairs are the owning session's / traced function's cumulative
    # counters at the time of the run, so callers can watch cache
    # behaviour without reaching into Session.plan_cache_info().
    plan_cache_hit: bool = False
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    trace_cache_hits: int = 0
    trace_cache_misses: int = 0
    # Non-fatal findings (e.g. unordered commutative accumulations) the
    # static verifier attached to the plan this run executed.
    verifier_warnings: int = 0
    # Fault-tolerance accounting: deadline expiries observed during the
    # run (collective join / recv / run watchdog), transport sends
    # retried under the session's RetryPolicy, and plan items parked
    # because their task was down when they became ready.
    deadline_exceeded: int = 0
    retries: int = 0
    stalled_items: int = 0

    @property
    def wall_time(self) -> float:
        return self.end_time - self.start_time

    def stats_for_device(self, device: str) -> list[NodeStats]:
        return [s for s in self.step_stats if s.device == device]

    def total_bytes_transferred(self) -> int:
        return sum(t.nbytes for t in self.transfers)

    def busiest_ops(self, n: int = 10) -> list[NodeStats]:
        return sorted(self.step_stats, key=lambda s: s.duration, reverse=True)[:n]
