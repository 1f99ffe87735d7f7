"""Static analysis of graphs and execution plans.

This package is the repo's verification layer: pure, read-only checkers
that prove structural and concurrency invariants of a :class:`Graph` (or
an optimizer-pass :class:`Subgraph`) and of the lowered
:class:`ExecutionPlan` before anything executes on the simulated cluster.

Entry points:

* :func:`verify_graph` — shape/dtype re-inference plus structural
  invariants (acyclicity, no dangling value/control references, valid
  device strings, variables initialized before reads).
* :func:`verify_plan` — variable-race detection over happens-before
  reachability, send/recv pairing, and collective
  world-membership / issue-order deadlock proofs.
* ``python -m repro.analysis`` — CLI that builds and verifies every
  example graph plus a seeded random-graph corpus (see ``__main__``).

Every plan a session builds runs both (``partition.build_plan``):
``verify_graph`` on the pruned graph and after every optimizer pass that
rewrote something — attributing violations to the offending pass — and
``verify_plan`` on the lowered plan before it enters the plan cache.
There is no switch: a plan is verified or it does not run.
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    Report,
    Rule,
    Severity,
    get_rule,
    register_rule,
    rule_catalog,
)
from repro.analysis.graph_verifier import verify_graph
from repro.analysis.plan_verifier import verify_plan

__all__ = [
    "Diagnostic",
    "Report",
    "Rule",
    "Severity",
    "get_rule",
    "register_rule",
    "rule_catalog",
    "verify_graph",
    "verify_plan",
]
