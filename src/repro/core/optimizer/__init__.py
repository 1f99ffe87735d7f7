"""Plan-time graph optimization — a Grappler-style pass pipeline.

Sessions run this pipeline over each pruned fetch closure before placement
(:func:`repro.core.partition.build_plan`):

* :mod:`~repro.core.optimizer.dead_code` — identity/NoOp chain collapsing,
  redundant control-edge pruning and the final unreachable-op sweep;
* :mod:`~repro.core.optimizer.cse` — common-subexpression elimination via
  structural hashing;
* :mod:`~repro.core.optimizer.constant_folding` — const-only subtrees are
  evaluated once through the kernel registry and memoized on the graph;
* :mod:`~repro.core.optimizer.collective_fusion` — opt-in Horovod-style
  gradient-bucket fusion: small same-group allreduces merge into one
  collective over a concatenated buffer (byte-identical values, fewer
  latency steps);
* :mod:`~repro.core.optimizer.coalescing` — post-placement merging of
  duplicate constants and ``_Send``/``_Recv`` pairs.

Every pass can be disabled individually through
``SessionConfig.optimizer`` (:class:`OptimizerOptions`), and the whole
pipeline through ``SessionConfig.graph_optimization``. Per-pass node
savings are reported in ``RunMetadata.pass_stats``.
"""

from repro.core.optimizer.pipeline import (
    OptimizationResult,
    OptimizerOptions,
    Subgraph,
    run_pipeline,
)

__all__ = [
    "OptimizationResult",
    "OptimizerOptions",
    "Subgraph",
    "run_pipeline",
]
