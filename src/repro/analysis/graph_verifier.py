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

import weakref
from typing import Any, Callable, Iterable, Optional, Union

from repro.analysis.diagnostics import Report, Severity, register_rule
from repro.core.graph import Graph, Operation
from repro.core.kernels.registry import op_def
from repro.core.placement import DeviceSpec, Placer
from repro.core.tensor import TensorShape
from repro.errors import ReproError

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
        cache: memoize per-op results per graph version, so re-verifying
            an unchanged graph (the session hot path: a new plan for new
            fetches over the same graph) only checks ops not seen clean
            before. Graphs are append-only through the public API — each
            ``create_op`` bumps ``graph.version``, which invalidates the
            memo — so the cache is sound unless the caller mutates
            existing operations in place (what the adversarial tests do;
            they verify with ``cache=False``, the default).

    Returns:
        A :class:`Report`; call ``raise_if_errors()`` to fail on findings.
    """
    # Imported here: the optimizer pipeline imports this module's package
    # lazily, and this module must not import the pipeline at load time.
    from repro.core.optimizer.pipeline import Subgraph

    if isinstance(target, Subgraph):
        report = Report(context=context or "subgraph verification")
        _verify_subgraph(target, report)
    else:
        report = Report(context=context or "graph verification")
        subset = list(ops) if ops is not None else target.operations
        _verify_ops(target, subset, placer, report,
                    whole_graph=ops is None, cache=cache)
    if opt_pass is not None:
        report.attribute(opt_pass)
    return report


# ---------------------------------------------------------------------------
# whole-graph / op-subset checks
# ---------------------------------------------------------------------------

def _registered(graph: Graph, op: Operation) -> bool:
    try:
        return graph.get_operation_by_name(op.name) is op
    except ReproError:
        return False


# graph -> [version, clean op names, whole-graph-acyclic flag]. Keyed
# weakly so dropping a Graph drops its memo. Only consulted for
# placer-less verification: per-op results depend on the cluster when a
# placer resolves devices, and the memo does not key on it. ``clean``
# holds ops whose per-op checks passed; the flag records that one Kahn
# pass proved the *whole* graph acyclic at this version — graphs are
# append-only through the public API, so the verdict covers every op
# subset until ``create_op`` bumps the version.
_CLEAN_OPS_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _verify_ops(
    graph: Graph,
    ops: list[Operation],
    placer: Optional[Placer],
    report: Report,
    whole_graph: bool,
    cache: bool = False,
) -> None:
    entry: Optional[list] = None
    clean: Optional[set] = None
    if cache and placer is None:
        entry = _CLEAN_OPS_CACHE.get(graph)
        if entry is None or entry[0] != graph.version:
            entry = [graph.version, set(), False]
            _CLEAN_OPS_CACHE[graph] = entry
        clean = entry[1]
    for op in ops:
        if clean is not None and op.name in clean:
            continue
        found_before = len(report.diagnostics)
        _check_edges(graph, op, report)
        _check_device(op, placer, report)
        _check_specs(op, report)
        if clean is not None and len(report.diagnostics) == found_before:
            clean.add(op.name)
    if entry is not None and entry[2]:
        pass  # a subset of a proven-acyclic graph is acyclic
    elif entry is not None:
        all_ops = graph.operations
        scratch = Report(context="whole-graph cycle check")
        _check_cycles(all_ops, {op.name for op in all_ops}, scratch)
        if scratch.ok:
            entry[2] = True
        else:
            # The cycle may live outside this subset: report only what
            # the requested op set actually exhibits.
            _check_cycles(ops, {op.name for op in ops}, report)
    else:
        _check_cycles(ops, {op.name for op in ops}, report)
    if whole_graph:
        _check_variable_initializers(ops, report)


def _check_edges(graph: Graph, op: Operation, report: Report) -> None:
    for tensor in op.inputs:
        producer = tensor.op
        if not _registered(graph, producer):
            report.emit(
                "graph/dangling-ref",
                f"input {tensor.name!r} of {op.name!r} comes from an op the "
                f"graph does not contain",
                op=op.name,
                hint="rebuild the edge from a live op of the same graph",
            )
        elif tensor.value_index >= len(producer.outputs):
            report.emit(
                "graph/dangling-ref",
                f"input {tensor.name!r} of {op.name!r} indexes output "
                f"{tensor.value_index} of {producer.name!r}, which has only "
                f"{len(producer.outputs)} output(s)",
                op=op.name,
            )
    for dep in op.control_inputs:
        if not _registered(graph, dep):
            report.emit(
                "graph/dangling-ref",
                f"control input {dep.name!r} of {op.name!r} is not an op of "
                f"this graph",
                op=op.name,
            )


def _check_device(op: Operation, placer: Optional[Placer],
                  report: Report) -> None:
    try:
        if placer is not None:
            placer.place(op)
        elif op.device:
            DeviceSpec.parse(op.device)
    except ReproError as exc:
        report.emit(
            "graph/invalid-device",
            str(exc),
            op=op.name,
            device=op.device or None,
            hint="fix the tf.device() scope string, or add the missing "
                 "job/task to the cluster spec",
        )


def _check_specs(op: Operation, report: Report) -> None:
    try:
        shape_fn = op_def(op.type).shape_fn
        if shape_fn is None:
            return  # the op's recorded specs are the authority
        inferred = shape_fn(op.inputs, op.attrs)
    except ReproError as exc:
        report.emit(
            "graph/shape-dtype",
            f"shape inference for {op.type} op {op.name!r} failed: {exc}",
            op=op.name,
            hint="the op's inputs/attrs no longer describe a valid "
                 "application of this op type",
        )
        return
    if len(inferred) != len(op.outputs):
        report.emit(
            "graph/shape-dtype",
            f"{op.name!r} records {len(op.outputs)} output(s); inference "
            f"derives {len(inferred)}",
            op=op.name,
        )
        return
    for idx, ((dtype, shape), tensor) in enumerate(zip(inferred, op.outputs)):
        if tensor.dtype != dtype:
            report.emit(
                "graph/shape-dtype",
                f"output {idx} of {op.name!r} records dtype "
                f"{tensor.dtype.name}; inference derives {dtype.name}",
                op=op.name,
            )
        if not tensor.shape.is_compatible_with(shape):
            report.emit(
                "graph/shape-dtype",
                f"output {idx} of {op.name!r} records shape {tensor.shape}; "
                f"inference derives incompatible {shape}",
                op=op.name,
            )


def _check_cycles(ops: list[Operation], names: set, report: Report) -> None:
    """Kahn's topological sort over data + control edges within the set."""
    indegree: dict[str, int] = {}
    dependents: dict[str, list[Operation]] = {}
    for op in ops:
        count = 0
        seen: set[str] = set()
        for dep in _op_deps(op):
            if dep.name in names and dep.name not in seen:
                seen.add(dep.name)
                count += 1
                dependents.setdefault(dep.name, []).append(op)
        indegree[op.name] = count
    queue = [op for op in ops if indegree[op.name] == 0]
    visited = 0
    while queue:
        op = queue.pop()
        visited += 1
        for consumer in dependents.get(op.name, ()):
            indegree[consumer.name] -= 1
            if indegree[consumer.name] == 0:
                queue.append(consumer)
    if visited == len(ops):
        return
    stuck = sorted(name for name, deg in indegree.items() if deg > 0)
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

def _verify_subgraph(sg: Any, report: Report) -> None:
    graph = sg.graph
    # 1. Substitution chains must terminate: sg.resolve() follows
    #    value_subs unboundedly, so a cycle here would hang the pipeline —
    #    detect it with a visited set and bail out before using resolve().
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
                return  # resolution unsafe: skip the remaining checks
            seen.add(tensor.name)
            tensor = sg.value_subs[tensor.name]

    # 2. Every substitution preserves dtype and a compatible shape.
    resolve = _flat_resolver(sg)
    for name in sg.value_subs:
        try:
            original = graph.get_tensor_by_name(name)
        except ReproError:
            report.emit(
                "graph/dangling-ref",
                f"value substitution keyed on unknown tensor {name!r}",
            )
            continue
        replacement = resolve(original)
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

    # 3. Surviving ops only reference surviving ops, feeds, or folded
    #    roots; fetches still resolve into the surviving set. One scan
    #    builds the resolved dependency relation used by both the
    #    dangling-ref check here and the cycle check below — this hook
    #    runs after *every* pass, so the scan count matters.
    surviving = {op.name for op in sg.ops}
    indegree: dict[str, int] = {}
    dependents: dict[str, list] = {}
    for op in sg.ops:
        deps: set[str] = set()
        # A folded root materializes pre-evaluated values: it has no
        # runtime inputs, and its constant subtree legitimately dies in
        # the dead-code sweep.
        inputs = () if op.name in sg.folded else op.inputs
        for tensor in inputs:
            if tensor.name in sg.feeds:
                continue
            resolved = resolve(tensor)
            if resolved.name in sg.feeds:
                continue
            producer = resolved.op.name
            if producer not in surviving:
                report.emit(
                    "graph/dangling-ref",
                    f"input {tensor.name!r} of surviving op {op.name!r} "
                    f"resolves to {resolved.name!r}, whose producer the "
                    f"pipeline dropped",
                    op=op.name,
                    hint="the pass removed an op that still has consumers",
                )
            else:
                deps.add(producer)
        for dep in sg.effective_control_deps(op):
            if dep.name not in surviving:
                report.emit(
                    "graph/dangling-ref",
                    f"control dep {dep.name!r} of surviving op {op.name!r} "
                    f"was dropped by the pipeline",
                    op=op.name,
                )
            else:
                deps.add(dep.name)
        deps.discard(op.name)
        indegree[op.name] = len(deps)
        for dep in deps:
            dependents.setdefault(dep, []).append(op.name)
    for tensor in sg.fetch_tensors:
        if tensor.name in sg.feeds:
            continue
        resolved = resolve(tensor)
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

    # 4. Folded values still match the folded op's recorded output specs.
    for name, values in sg.folded.items():
        _check_folded_entry(graph, name, values, report)

    # 5. The rewritten edge relation stays acyclic (over the dependency
    #    relation collected in the scan above).
    _check_resolved_cycles(sg, indegree, dependents, report)


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
        if shape is None:
            continue
        if not tensor.shape.is_compatible_with(TensorShape(shape)):
            report.emit(
                "graph/folded-spec",
                f"folded value {idx} of {name!r} has shape "
                f"{tuple(shape)}, incompatible with recorded "
                f"{tensor.shape}",
                op=name,
            )


def _flat_resolver(sg: Any) -> Callable[[Any], Any]:
    """A memoizing substitute for ``sg.resolve`` (chains walked once)."""
    value_subs = sg.value_subs
    if not value_subs:
        return lambda tensor: tensor
    flat: dict[str, object] = {}

    def resolve(tensor: Any) -> Any:
        if tensor.name not in value_subs:
            return tensor
        chain = []
        while True:
            name = tensor.name
            cached = flat.get(name)
            if cached is not None:
                tensor = cached
                break
            if name not in value_subs:
                break
            chain.append(name)
            tensor = value_subs[name]
        for name in chain:
            flat[name] = tensor
        return tensor

    return resolve


def _check_resolved_cycles(sg: Any, indegree: dict, dependents: dict,
                           report: Report) -> None:
    indegree = dict(indegree)
    queue = [name for name, deg in indegree.items() if deg == 0]
    visited = 0
    while queue:
        name = queue.pop()
        visited += 1
        for consumer in dependents.get(name, ()):
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                queue.append(consumer)
    if visited == len(sg.ops):
        return
    stuck = sorted(name for name, deg in indegree.items() if deg > 0)
    report.emit(
        "graph/cycle",
        f"optimizer rewrites created a cycle through "
        f"{', '.join(stuck[:8])}{'...' if len(stuck) > 8 else ''}",
        op=stuck[0] if stuck else None,
        hint="a substitution or control merge made an op depend on itself",
    )
