"""Structural and shape/dtype verification of graphs and optimizer rewrites.

:func:`verify_graph` accepts either a :class:`~repro.core.graph.Graph`
(or an explicit op subset of one) or an optimizer
:class:`~repro.core.optimizer.pipeline.Subgraph` working set, and checks:

* no dangling value/control references — every edge points at an op the
  graph (or the surviving working set) still knows;
* no cycles over data + control edges (including cycles introduced
  through substitution maps by a buggy pass);
* device strings parse, and resolve against the cluster when a
  :class:`~repro.core.placement.Placer` is supplied;
* variables can be initialized before they are read (whole-graph checks
  only: a pruned fetch closure legitimately omits the initializer that
  ran in an earlier ``session.run``);
* recorded output specs agree with shape/dtype re-inference — the op
  type's own registered shape function, run again on the op's current
  inputs and attrs — and, for optimizer working sets,
  every value substitution and folded constant preserves the dtype and a
  compatible shape of the tensor it replaces.

The checks only read; they never mutate the graph or the working set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional, Union

from repro.analysis.diagnostics import (
    Report,
    Severity,
    register_rule,
    unsorted_nodes,
)
from repro.core.graph import Graph, Operation
from repro.core.kernels.registry import op_def
from repro.core.placement import DeviceSpec, Placer
from repro.core.tensor import TensorShape
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.core.optimizer.pipeline import Subgraph

__all__ = ["verify_graph"]

register_rule(
    "graph/dangling-ref", Severity.ERROR, "graph",
    "Every value/control edge must point at an op the graph still contains",
)
register_rule(
    "graph/cycle", Severity.ERROR, "graph",
    "The graph must stay acyclic over data and control edges",
)
register_rule(
    "graph/invalid-device", Severity.ERROR, "graph",
    "Device strings must parse and resolve against the cluster",
)
register_rule(
    "graph/uninitialized-variable", Severity.ERROR, "graph",
    "Every VariableV2 needs an Assign initializer somewhere in the graph",
)
register_rule(
    "graph/shape-dtype", Severity.ERROR, "graph",
    "Recorded output specs must match shape/dtype re-inference",
)
register_rule(
    "graph/substitution-type", Severity.ERROR, "graph",
    "Optimizer value substitutions must preserve dtype and a compatible shape",
)
register_rule(
    "graph/substitution-cycle", Severity.ERROR, "graph",
    "Optimizer substitution chains must terminate",
)
register_rule(
    "graph/fetch-dropped", Severity.ERROR, "graph",
    "No optimizer pass may drop an op the run fetches",
)
register_rule(
    "graph/folded-spec", Severity.ERROR, "graph",
    "Constant-folded values must match the folded op's output specs",
)


def verify_graph(
    target: Union[Graph, "Subgraph"],
    *,
    ops: Optional[Iterable[Operation]] = None,
    placer: Optional[Placer] = None,
    opt_pass: Optional[str] = None,
    context: str = "",
    cache: bool = False,
    edited: Optional[Iterable[str]] = None,
) -> Report:
    """Statically verify a graph or an optimizer working set.

    Args:
        target: a :class:`Graph`, or the optimizer pipeline's
            :class:`Subgraph` working set (post-pass verification).
        ops: optional op subset to check (graphs only). When given, the
            whole-graph-only rules (variable init-before-read) are
            skipped: a pruned closure legitimately reads variables whose
            initializer ran in an earlier ``session.run``.
        placer: when supplied, device strings are resolved against the
            cluster it describes; otherwise they are only parsed.
        opt_pass: attribute findings to this optimizer pass name.
        context: label for the report (defaults to something sensible).
        cache: trust the specs ``create_op`` cached on an op: one it
            inferred at the graph's current ``spec_epoch`` is not
            re-inferred, since its record is its shape function's output
            for its inputs' current specs (a ``Tensor.set_shape``
            refinement bumps the epoch). Graphs are append-only through
            the public API, so this is sound unless the caller mutates
            existing operations in place (what the adversarial tests do;
            they verify with ``cache=False``, the default).
        edited: working sets only. For a working set that verified clean
            before, the names of the :class:`Subgraph` fields a pass has
            edited since (``"ops"``, ``"value_subs"``, ``"control_subs"``,
            ``"control_drops"``, ``"folded"``); a check that no edit of
            those fields can fail is not repeated. Passes only *add*
            rewrites and *remove* ops — the pipeline's contract — so a
            fold adds no edge or substitution, a removal adds no edge,
            and a control drop only removes edges.
            ``None`` (the default) runs every check.

    Returns:
        A :class:`Report`; call ``raise_if_errors()`` to fail on findings.
    """
    if isinstance(target, Graph):
        report = Report(context=context or "graph verification")
        subset = list(ops) if ops is not None else target.operations
        _verify_ops(target, subset, placer, report,
                    whole_graph=ops is None, cache=cache)
    else:
        report = Report(context=context or "subgraph verification")
        _verify_subgraph(target, report,
                         None if edited is None else frozenset(edited))
    if opt_pass is not None:
        report.attribute(opt_pass)
    return report


# ---------------------------------------------------------------------------
# whole-graph / op-subset checks
# ---------------------------------------------------------------------------
#
# Acyclicity is proved by order: ``create_op`` numbers ops in creation
# order and an op's inputs and control inputs exist before it does, so in
# a graph built through the public API every edge points at a lower
# ``node_id``. When every edge of the subset does, ``node_id`` order is a
# topological order and the subset is acyclic; only a graph whose edges
# were rewired in place (a forward or self edge) pays for Kahn's
# algorithm, which then names the ops that form the cycle.

def _verify_ops(
    graph: Graph,
    ops: list[Operation],
    placer: Optional[Placer],
    report: Report,
    whole_graph: bool,
    cache: bool = False,
) -> None:
    # Under the append-only contract, an op inferred at the current epoch
    # holds its shape function's answer; -1 matches no op.
    epoch = graph.spec_epoch if cache else -1
    in_order = True
    contains = graph.contains
    parsed: set[str] = set()  # device strings that parsed (no placer)
    for op in ops:
        # The order proof's per-op condition, tested inline: every edge
        # points at a registered op with a lower ``node_id``. Only an op
        # that fails it pays for ``_check_edges``, which names the edge.
        node_id = op.node_id
        for tensor in op.inputs:
            producer = tensor.op
            if not (producer.node_id < node_id and contains(producer)
                    and tensor.value_index < len(producer.outputs)):
                in_order = _check_edges(graph, op, report) and in_order
                break
        else:
            for dep in op.control_inputs:
                if not (dep.node_id < node_id and contains(dep)):
                    in_order = _check_edges(graph, op, report) and in_order
                    break
        if placer is not None:
            _check_device(op, placer, report)
        elif op.device and op.device not in parsed:
            # A parse depends on the string alone: one per string.
            if _check_device(op, None, report):
                parsed.add(op.device)
        if op.inferred_at != epoch:
            _check_specs(op, report)
    if not in_order:
        _check_cycles(ops, report)
    if whole_graph:
        _check_variable_initializers(ops, report)


def _check_edges(graph: Graph, op: Operation, report: Report) -> bool:
    """Report dangling edges; True when every edge points at a registered
    op with a lower ``node_id`` (the order proof's per-op condition)."""
    backward = True
    for tensor in op.inputs:
        producer = tensor.op
        if not graph.contains(producer):
            backward = False
            report.emit(
                "graph/dangling-ref",
                f"input {tensor.name!r} of {op.name!r} comes from an op the "
                f"graph does not contain",
                op=op.name,
                hint="rebuild the edge from a live op of the same graph",
            )
            continue
        if producer.node_id >= op.node_id:
            backward = False
        if tensor.value_index >= len(producer.outputs):
            report.emit(
                "graph/dangling-ref",
                f"input {tensor.name!r} of {op.name!r} indexes output "
                f"{tensor.value_index} of {producer.name!r}, which has only "
                f"{len(producer.outputs)} output(s)",
                op=op.name,
            )
    for dep in op.control_inputs:
        if not graph.contains(dep):
            backward = False
            report.emit(
                "graph/dangling-ref",
                f"control input {dep.name!r} of {op.name!r} is not an op of "
                f"this graph",
                op=op.name,
            )
        elif dep.node_id >= op.node_id:
            backward = False
    return backward


def _check_device(op: Operation, placer: Optional[Placer],
                  report: Report) -> bool:
    """True when ``op``'s device places (or, with no placer, parses)."""
    try:
        if placer is not None:
            placer.place(op)
        else:
            DeviceSpec.parse(op.device)
        return True
    except ReproError as exc:
        report.emit(
            "graph/invalid-device",
            str(exc),
            op=op.name,
            device=op.device or None,
            hint="fix the tf.device() scope string, or add the missing "
                 "job/task to the cluster spec",
        )
        return False


def _check_specs(op: Operation, report: Report) -> None:
    try:
        definition = op_def(op.type)
        if definition.shape_fn is None:
            return  # the op's recorded specs are the authority
        inferred = definition.output_specs(op.inputs, op.attrs)
    except ReproError as exc:
        report.emit(
            "graph/shape-dtype",
            f"shape inference for {op.type} op {op.name!r} failed: {exc}",
            op=op.name,
            hint="the op's inputs/attrs no longer describe a valid "
                 "application of this op type",
        )
        return
    outputs = op.outputs
    if len(inferred) != len(outputs):
        report.emit(
            "graph/shape-dtype",
            f"{op.name!r} records {len(outputs)} output(s); inference "
            f"derives {len(inferred)}",
            op=op.name,
        )
        return
    for (dtype, shape), tensor in zip(inferred, outputs):
        if (dtype is not tensor.dtype or shape is None
                or tuple(shape) != tensor.shape.dims):
            break
    else:
        return  # the common case: inference reproduces the record exactly
    for idx, ((dtype, shape), tensor) in enumerate(zip(inferred, outputs)):
        if tensor.dtype != dtype:
            report.emit(
                "graph/shape-dtype",
                f"output {idx} of {op.name!r} records dtype "
                f"{tensor.dtype.name}; inference derives {dtype.name}",
                op=op.name,
            )
        if not tensor.shape.is_compatible_with(TensorShape(shape)):
            report.emit(
                "graph/shape-dtype",
                f"output {idx} of {op.name!r} records shape {tensor.shape}; "
                f"inference derives incompatible {TensorShape(shape)}",
                op=op.name,
            )


def _check_cycles(ops: list[Operation], report: Report) -> None:
    """Kahn's topological sort over data + control edges within the set."""
    names = {op.name for op in ops}
    stuck = sorted(unsorted_nodes({
        op.name: {dep.name for dep in _op_deps(op) if dep.name in names}
        for op in ops
    }))
    if not stuck:
        return
    report.emit(
        "graph/cycle",
        f"{len(stuck)} op(s) form at least one data/control cycle: "
        f"{', '.join(stuck[:8])}{'...' if len(stuck) > 8 else ''}",
        op=stuck[0] if stuck else None,
        hint="break the cycle; dataflow graphs must be acyclic",
    )


def _op_deps(op: Operation) -> Iterable[Operation]:
    for tensor in op.inputs:
        yield tensor.op
    yield from op.control_inputs


def _check_variable_initializers(ops: list[Operation],
                                 report: Report) -> None:
    variables = [op for op in ops if op.type == "VariableV2"]
    if not variables:
        return
    initialized = {
        op.get_attr("var_name")
        for op in ops
        if op.type == "Assign" and op.get_attr("var_name") is not None
    }
    for var in variables:
        if var.name not in initialized:
            report.emit(
                "graph/uninitialized-variable",
                f"variable {var.name!r} has no Assign initializer anywhere "
                f"in the graph: every read will fail with "
                f"FailedPreconditionError",
                op=var.name,
                device=var.device or None,
                hint="create variables through repro.Variable (which builds "
                     "the initializer), or add an explicit repro.assign",
            )


# ---------------------------------------------------------------------------
# optimizer working-set (post-pass) checks
# ---------------------------------------------------------------------------

# Working-set edits that only remove edges (a folded root loses its
# inputs, a control drop its dep): neither can leave a reference
# dangling, drop a fetch or close a cycle.
_EDGE_REMOVING_EDITS = frozenset({"folded", "control_drops"})


def _verify_subgraph(sg: Any, report: Report,
                     edited: Optional[frozenset]) -> None:
    if edited is None or "value_subs" in edited:
        if not _check_substitutions(sg, report):
            return  # resolution unsafe: skip the remaining checks
    unordered = None
    if edited is None or not edited <= _EDGE_REMOVING_EDITS:
        unordered = _check_resolved_edges(sg, report)
    if edited is None or "folded" in edited:
        # Folded values still match the folded op's recorded output specs.
        for name, values in sg.folded.items():
            _check_folded_entry(sg.graph, name, values, report)
    if unordered is not None:
        # The rewritten edge relation stays acyclic.
        _check_resolved_cycles(unordered, report)


def _check_substitutions(sg: Any, report: Report) -> bool:
    """Chains terminate and preserve type; False when resolving would
    loop forever."""
    # Substitution chains must terminate: sg.resolve() follows value_subs
    # unboundedly, so a cycle here would hang the pipeline — detect it
    # with a visited set and bail out before using resolve().
    for name in sg.value_subs:
        seen = {name}
        tensor = sg.value_subs[name]
        while tensor.name in sg.value_subs:
            if tensor.name in seen:
                report.emit(
                    "graph/substitution-cycle",
                    f"value substitution chain starting at {name!r} loops "
                    f"through {tensor.name!r}",
                    op=tensor.op.name,
                    hint="a rewrite substituted a tensor for (transitively) "
                         "itself",
                )
                return False
            seen.add(tensor.name)
            tensor = sg.value_subs[tensor.name]

    # Every substitution preserves dtype and a compatible shape.
    subs = _flat_subs(sg)
    for name in sg.value_subs:
        try:
            original = sg.graph.get_tensor_by_name(name)
        except ReproError:
            report.emit(
                "graph/dangling-ref",
                f"value substitution keyed on unknown tensor {name!r}",
            )
            continue
        replacement = subs[name]
        if replacement.dtype != original.dtype:
            report.emit(
                "graph/substitution-type",
                f"substituting {replacement.name!r} for {name!r} changes "
                f"dtype {original.dtype.name} -> {replacement.dtype.name}",
                op=replacement.op.name,
                hint="rewrites may only replace a tensor with an "
                     "equal-dtype equivalent",
            )
        elif not original.shape.is_compatible_with(replacement.shape):
            report.emit(
                "graph/substitution-type",
                f"substituting {replacement.name!r} for {name!r} changes "
                f"shape {original.shape} -> incompatible {replacement.shape}",
                op=replacement.op.name,
            )
    return True


def _check_resolved_edges(sg: Any, report: Report
                          ) -> Optional[list[tuple[str, list[str]]]]:
    """Report dangling edges and dropped fetches; return the resolved
    relation when ``node_id`` order does not prove it acyclic."""
    # Surviving ops only reference surviving ops, feeds, or folded roots;
    # fetches still resolve into the surviving set. This hook runs after
    # every pass that rewrote something, so one scan checks every edge.
    # Rewrites resolve to earlier ops (a CSE survivor, an identity's
    # input, a spliced NoOp's own deps), so the relation normally runs
    # backward in ``node_id`` order, which proves it acyclic (see the
    # op-subset checks above); only a relation with a forward edge is
    # collected, by ``_resolved_relation``, for the cycle check below.
    subs = _flat_subs(sg)
    feeds = sg.feeds
    folded = sg.folded
    surviving = {op.name: op.node_id for op in sg.ops}
    in_order = True
    for op in sg.ops:
        node_id = op.node_id
        # A folded root materializes pre-evaluated values: it has no
        # runtime inputs, and its constant subtree legitimately dies in
        # the dead-code sweep.
        for tensor in () if op.name in folded else op.inputs:
            if tensor.name in feeds:
                continue
            resolved = subs.get(tensor.name, tensor) if subs else tensor
            if resolved is not tensor and resolved.name in feeds:
                continue
            position = surviving.get(resolved.op.name)
            if position is None:
                report.emit(
                    "graph/dangling-ref",
                    f"input {tensor.name!r} of surviving op {op.name!r} "
                    f"resolves to {resolved.name!r}, whose producer the "
                    f"pipeline dropped",
                    op=op.name,
                    hint="the pass removed an op that still has consumers",
                )
            elif position >= node_id and resolved.op.name != op.name:
                in_order = False
        if op.control_inputs:
            for dep in sg.effective_control_deps(op):
                position = surviving.get(dep.name)
                if position is None:
                    report.emit(
                        "graph/dangling-ref",
                        f"control dep {dep.name!r} of surviving op "
                        f"{op.name!r} was dropped by the pipeline",
                        op=op.name,
                    )
                elif position >= node_id and dep.name != op.name:
                    in_order = False
    for tensor in sg.fetch_tensors:
        if tensor.name in sg.feeds:
            continue
        resolved = subs.get(tensor.name, tensor)
        if resolved.name not in sg.feeds and resolved.op.name not in surviving:
            report.emit(
                "graph/fetch-dropped",
                f"fetched tensor {tensor.name!r} resolves to "
                f"{resolved.name!r}, which no surviving op produces",
                op=resolved.op.name,
                hint="a pass eliminated a fetched value; fetches are roots "
                     "and must survive every rewrite",
            )
    for name in sg.fetch_op_names:
        if name not in surviving:
            report.emit(
                "graph/fetch-dropped",
                f"fetched operation {name!r} was dropped by the pipeline",
                op=name,
            )
    if in_order and len(surviving) == len(sg.ops):
        return None
    return _resolved_relation(sg, subs, surviving)


def _resolved_relation(sg: Any, subs: dict,
                       surviving: dict) -> list[tuple[str, list[str]]]:
    """Each surviving op's name and the surviving ops it depends on."""
    relation = []
    for op in sg.ops:
        inputs = () if op.name in sg.folded else op.inputs
        resolved = [subs.get(t.name, t) for t in inputs
                    if t.name not in sg.feeds]
        deps = [t.op.name for t in resolved
                if t.name not in sg.feeds and t.op.name in surviving]
        if op.control_inputs:
            deps += [dep.name for dep in sg.effective_control_deps(op)
                     if dep.name in surviving]
        relation.append((op.name, deps))
    return relation


def _check_folded_entry(graph: Any, name: str, values: Any,
                        report: Report) -> None:
    try:
        op = graph.get_operation_by_name(name)
    except ReproError:
        report.emit(
            "graph/dangling-ref",
            f"constant-folding recorded values for unknown op {name!r}",
        )
        return
    if len(values) != len(op.outputs):
        report.emit(
            "graph/folded-spec",
            f"folded op {name!r} has {len(op.outputs)} output(s) but "
            f"{len(values)} folded value(s)",
            op=name,
        )
        return
    for idx, (value, tensor) in enumerate(zip(values, op.outputs)):
        shape = getattr(value, "shape", None)
        if shape is None or shape == tensor.shape.dims:
            continue
        if not tensor.shape.is_compatible_with(TensorShape(shape)):
            report.emit(
                "graph/folded-spec",
                f"folded value {idx} of {name!r} has shape "
                f"{tuple(shape)}, incompatible with recorded "
                f"{tensor.shape}",
                op=name,
            )


def _flat_subs(sg: Any) -> dict:
    """Each substituted tensor's name -> the tensor its substitution chain
    ends at, each chain walked once (chains were checked to terminate)."""
    value_subs = sg.value_subs
    flat: dict = {}
    for name, tensor in value_subs.items():
        chain = [name]
        while tensor.name in value_subs:
            if tensor.name in flat:
                tensor = flat[tensor.name]
                break
            chain.append(tensor.name)
            tensor = value_subs[tensor.name]
        for link in chain:
            flat[link] = tensor
    return flat


def _check_resolved_cycles(relation: list[tuple[str, list[str]]],
                           report: Report) -> None:
    """Kahn's algorithm over the resolved relation (self-edges excluded)."""
    stuck = sorted(unsorted_nodes(
        {name: set(deps) - {name} for name, deps in relation}
    ))
    if not stuck:
        return
    report.emit(
        "graph/cycle",
        f"optimizer rewrites created a cycle through "
        f"{', '.join(stuck[:8])}{'...' if len(stuck) > 8 else ''}",
        op=stuck[0] if stuck else None,
        hint="a substitution or control merge made an op depend on itself",
    )
