"""Plan-time graph optimization — a Grappler-style pass pipeline.

Sessions run this pipeline over each pruned fetch closure before placement
(:func:`repro.core.partition.build_plan`):

* :mod:`~repro.core.optimizer.dead_code` — identity/NoOp chain collapsing,
  redundant control-edge pruning and the final unreachable-op sweep;
* :mod:`~repro.core.optimizer.cse` — common-subexpression elimination via
  structural hashing;
* :mod:`~repro.core.optimizer.constant_folding` — const-only subtrees are
  evaluated once through the kernel registry and memoized on the graph.

Equal constants that only placement makes equal (different partial
device scopes) are merged by ``build_plan`` as it lowers, and share one
``_Send``/``_Recv`` pair per destination; their savings are reported as
the ``transfer_coalescing`` pass.

The pass sequence is fixed; ``SessionConfig.graph_optimization`` is the
one switch and turns the whole pipeline (constant merging included) on
or off.
No pass touches the user's graph, so plan building is read-only on it.
Per-pass node savings are reported in ``RunMetadata.pass_stats``.
"""

from repro.core.optimizer.pipeline import (
    OptimizationResult,
    Subgraph,
    run_pipeline,
)

__all__ = [
    "OptimizationResult",
    "Subgraph",
    "run_pipeline",
]
