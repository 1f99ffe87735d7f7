"""The pass pipeline run over the pruned subgraph before placement.

This is the analog of TensorFlow's Grappler meta-optimizer (OSDI'16): after
a session prunes the graph to the fetch-reachable subset, the pipeline
rewrites that subset — collapsing identity/NoOp chains, merging common
subexpressions, folding constant subtrees and dropping redundant control
edges — and hands :func:`repro.core.partition.build_plan` a smaller,
equivalent set of ops to schedule.

Passes never mutate :class:`~repro.core.graph.Operation` objects (they are
shared, immutable graph state). Instead they edit a :class:`Subgraph`
working set: a surviving-op list plus substitution maps that the
partitioner consults while routing values and control edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro import analysis
from repro.core.graph import Graph, Operation
from repro.core.metadata import PassStats
from repro.core.tensor import Tensor

__all__ = [
    "OptimizationResult",
    "Subgraph",
    "run_pipeline",
]


@dataclass
class Subgraph:
    """The pipeline's working set over one pruned fetch closure."""

    graph: Graph
    ops: list[Operation]  # survivors, topological (node_id) order
    feeds: frozenset  # fed tensor names — edges already cut by pruning
    fetch_op_names: frozenset
    symbolic: bool  # session runs shape-only (affects folding only)
    # The fetched Tensor objects themselves; passes needing fetched *names*
    # must resolve through value_subs first (see constant_folding's roots).
    fetch_tensors: tuple = ()
    # tensor name -> replacement Tensor (identity collapse, CSE); chains
    # are allowed while passes run and flattened in the final result.
    value_subs: dict = field(default_factory=dict)
    # op name -> replacement control deps (NoOp splice, CSE merge target).
    control_subs: dict = field(default_factory=dict)
    # op name -> frozenset of control-dep op names dropped as redundant.
    control_drops: dict = field(default_factory=dict)
    # op name -> evaluated output values (constant-folded roots).
    folded: dict = field(default_factory=dict)

    def resolve(self, tensor: Tensor) -> Tensor:
        """Follow value substitutions to the canonical producing tensor."""
        while tensor.name in self.value_subs:
            tensor = self.value_subs[tensor.name]
        return tensor

    def effective_control_deps(self, op: Operation) -> list[Operation]:
        """Control inputs after splices, merges and redundancy drops."""
        if not op.control_inputs:
            return []
        dropped = self.control_drops.get(op.name, frozenset())
        out: list[Operation] = []
        seen: set[str] = set()
        stack = list(reversed(op.control_inputs))
        while stack:
            dep = stack.pop()
            if dep.name in dropped or dep.name in seen:
                continue
            replacement = self.control_subs.get(dep.name)
            if replacement is not None:
                seen.add(dep.name)
                stack.extend(reversed(replacement))
                continue
            seen.add(dep.name)
            out.append(dep)
        return out


@dataclass
class OptimizationResult:
    """Flattened rewrite maps consumed by ``build_plan``."""

    ops: list[Operation]
    value_subs: dict  # tensor name -> canonical Tensor (fully resolved)
    control_deps: dict  # op name -> tuple of effective control-dep Operations
    folded: dict  # op name -> list of evaluated output values
    stats: list[PassStats]


def _sweep_unreachable(sg: Subgraph) -> PassStats:
    """Drop ops no longer reachable from the fetches via rewritten edges.

    This is dead-op elimination *beyond* fetch-reachability: the session's
    pruning already cut fetch-unreachable ops, but identity collapse, CSE
    and folding orphan further nodes (a folded root has no runtime inputs,
    so its constant subtree dies here).
    """
    before = len(sg.ops)
    index = {op.name: op for op in sg.ops}
    needed: set[str] = set()
    stack: list[Operation] = []
    for name in sg.fetch_op_names:
        if name in index:
            stack.append(index[name])
    for tensor in sg.fetch_tensors:
        if tensor.name in sg.feeds:
            continue
        resolved = sg.resolve(tensor)
        if resolved.name not in sg.feeds and resolved.op.name in index:
            stack.append(resolved.op)
    while stack:
        op = stack.pop()
        if op.name in needed or op.name not in index:
            continue
        needed.add(op.name)
        if op.name not in sg.folded:  # folded roots have no runtime inputs
            for tensor in op.inputs:
                if tensor.name in sg.feeds:
                    continue
                resolved = sg.resolve(tensor)
                if resolved.name in sg.feeds:
                    continue
                if resolved.op.name not in needed:
                    stack.append(resolved.op)
        for dep in sg.effective_control_deps(op):
            if dep.name not in needed:
                stack.append(dep)
    sg.ops = [op for op in sg.ops if op.name in needed]
    return PassStats(
        name="dead_code_sweep", nodes_before=before, nodes_after=len(sg.ops)
    )


_EDITABLE = ("ops", "value_subs", "control_subs", "control_drops", "folded")


def _rewrite_fingerprint(sg: Subgraph) -> tuple:
    """Sizes of every structure a pass can edit, in ``_EDITABLE`` order.

    Passes only ever *add* substitutions/drops/folds and *remove* ops, so
    equal sizes before and after a pass mean the pass rewrote nothing —
    and re-verifying an unchanged working set cannot find anything new.
    A size that moved names a structure the pass edited.
    """
    return (len(sg.ops), len(sg.value_subs), len(sg.control_subs),
            len(sg.control_drops), len(sg.folded))


def _verify_last_pass(sg: Subgraph, stats: list[PassStats],
                      edited: set) -> None:
    """Re-verify the working set after the pass that produced ``stats[-1]``.

    Violations are attributed to that pass: the finding's ``opt_pass``
    field and the pass's ``detail["diagnostics"]`` both name it, so a
    buggy rewrite is caught at the exact pipeline stage that broke the
    graph rather than at plan-build (or worse, execution) time. This is
    :func:`repro.analysis.verify_graph` over the whole working set — the
    same rules, in the same code, that the verifier's own tests drive;
    ``edited`` names the structures the pass changed, so checks that
    none of those edits can fail are not repeated.
    """
    pass_name = stats[-1].name
    report = analysis.verify_graph(
        sg, opt_pass=pass_name, edited=edited,
        context=f"after optimizer pass {pass_name!r}",
    )
    if report.diagnostics:
        stats[-1].detail["diagnostics"] = [
            d.to_dict() for d in report.diagnostics
        ]
    report.raise_if_errors()


def run_pipeline(
    graph: Graph,
    ordered: Sequence[Operation],
    fetch_ops: Sequence[Operation],
    fetch_tensors: Sequence[Tensor],
    feeds: dict,
    symbolic: bool = False,
) -> OptimizationResult:
    """Run the fixed pass sequence over the pruned op set ``ordered``.

    The sequence has no switches (``SessionConfig.graph_optimization``
    decides whether the pipeline runs at all) and never touches ``graph``:
    every pass edits only the :class:`Subgraph` working set.

    The working set is statically re-verified after every pass that
    rewrote something, and a :class:`~repro.errors.VerificationError`
    naming the offending pass is raised the moment a rewrite breaks an
    invariant.
    """
    from repro.core.optimizer import constant_folding, cse, dead_code

    sg = Subgraph(
        graph=graph,
        ops=list(ordered),
        feeds=frozenset(feeds),
        fetch_op_names=frozenset(op.name for op in fetch_ops),
        fetch_tensors=tuple(fetch_tensors),
        symbolic=symbolic,
    )
    stats: list[PassStats] = []
    fingerprint = _rewrite_fingerprint(sg)

    def ran(pass_stats: PassStats) -> None:
        nonlocal fingerprint
        stats.append(pass_stats)
        after = _rewrite_fingerprint(sg)
        if after != fingerprint:
            # A pass that rewrote nothing leaves the previous
            # verification standing.
            edited = {name for name, old, new
                      in zip(_EDITABLE, fingerprint, after) if old != new}
            fingerprint = after
            _verify_last_pass(sg, stats, edited)

    for optimizer_pass in (
        dead_code.collapse_identities,
        dead_code.splice_noops,
        cse.merge_common_subexpressions,
        constant_folding.fold_constants,
        dead_code.prune_redundant_control_deps,
        _sweep_unreachable,
    ):
        ran(optimizer_pass(sg))

    # Flatten substitution chains so the partitioner does one lookup.
    flat_subs = {
        name: sg.resolve(tensor) for name, tensor in sg.value_subs.items()
    }
    control_deps = {}
    for op in sg.ops:
        effective = sg.effective_control_deps(op)
        if [d.name for d in effective] != [d.name for d in op.control_inputs]:
            control_deps[op.name] = tuple(effective)
    return OptimizationResult(
        ops=sg.ops,
        value_subs=flat_subs,
        control_deps=control_deps,
        folded=dict(sg.folded),
        stats=stats,
    )
