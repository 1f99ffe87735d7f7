"""Constant folding: evaluate const-only pure subtrees once at plan time.

Foldable ops run through their registered kernels with a plain
:class:`~repro.core.kernels.registry.KernelContext` (honouring the
session's shape-only flag, so symbolic runs fold to the same symbolic
values execution would produce). Results are memoized on the graph object:
operations are immutable and never removed, so a folded value stays valid
for the graph's lifetime no matter how many fetch/feed combinations a
session issues.

Fold *roots* — folded ops still consumed by unfolded ops, awaited via a
control edge, or fetched — stay in the plan as zero-cost ``const`` items
(they materialize the value on their placed device, keep memory accounting
and trace visibility, and feed the normal send/recv routing). Interior
folded ops die in the dead-code sweep; the simulated time their kernels
would have charged disappears with them, which is why run comparisons
report simulated-time deltas alongside pass statistics.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.registry import KernelContext, get_kernel, is_pure
from repro.core.metadata import PassStats
from repro.core.optimizer.pipeline import Subgraph

__all__ = ["fold_constants"]

_MEMO_ATTR = "_constant_fold_memo"
# Folding materializes values at plan time: cap the total static output
# bytes of any folded op so huge Fill/MatMul results never materialize.
MAX_FOLDED_BYTES = 1 << 20
_FAILED = object()  # memoized "kernel raised / not evaluable" marker


def _memo(graph, symbolic: bool) -> dict:
    store = getattr(graph, _MEMO_ATTR, None)
    if store is None:
        store = {False: {}, True: {}}
        setattr(graph, _MEMO_ATTR, store)
    return store[bool(symbolic)]


def _static_nbytes(op) -> int:
    """Total static output bytes, or -1 if any shape is not fully defined."""
    total = 0
    for tensor in op.outputs:
        if not tensor.shape.is_fully_defined:
            return -1
        total += tensor.shape.num_elements() * tensor.dtype.size
    return total


def fold_constants(sg: Subgraph) -> PassStats:
    foldable: dict[str, list] = {}  # op name -> evaluated outputs
    memo = _memo(sg.graph, sg.symbolic)
    ctx = KernelContext(symbolic=sg.symbolic)

    for op in sg.ops:
        if (
            op.type == "Const"
            or not is_pure(op.type)
            or op.name in sg.fetch_op_names
            or sg.effective_control_deps(op)
        ):
            continue
        nbytes = _static_nbytes(op)
        if nbytes < 0 or nbytes > MAX_FOLDED_BYTES:
            continue
        inputs = []
        for tensor in op.inputs:
            if tensor.name in sg.feeds:
                inputs = None
                break
            resolved = sg.resolve(tensor)
            if resolved.name in sg.feeds:
                inputs = None
                break
            producer = resolved.op
            if producer.type == "Const":
                inputs.append(producer.get_attr("value"))
            elif producer.name in foldable:
                inputs.append(foldable[producer.name][resolved.value_index])
            else:
                inputs = None
                break
        if inputs is None:
            continue
        cached = memo.get(op.name)
        if cached is _FAILED:
            continue
        if cached is None:
            try:
                result = get_kernel(op.type)(op, inputs, ctx)
                outputs, _cost = result
            except Exception:
                memo[op.name] = _FAILED
                continue
            for value in outputs:
                if isinstance(value, np.ndarray):
                    value.setflags(write=False)
            memo[op.name] = cached = list(outputs)
        foldable[op.name] = cached

    # Roots: folded ops the unfolded world still observes.
    value_consumers: dict[str, bool] = {}
    for op in sg.ops:
        is_folded = op.name in foldable
        for tensor in op.inputs:
            if tensor.name in sg.feeds:
                continue
            resolved = sg.resolve(tensor)
            if resolved.name in sg.feeds:
                continue
            if not is_folded and resolved.op.name in foldable:
                value_consumers[resolved.op.name] = True
        if not is_folded:
            for dep in sg.effective_control_deps(op):
                if dep.name in foldable:
                    value_consumers[dep.name] = True
    resolved_fetch_names = {
        sg.resolve(t).name for t in sg.fetch_tensors if t.name not in sg.feeds
    }
    roots = 0
    for name, outputs in foldable.items():
        op = sg.graph.get_operation_by_name(name)
        fetched = any(t.name in resolved_fetch_names for t in op.outputs)
        if value_consumers.get(name) or fetched:
            sg.folded[name] = outputs
            roots += 1
    return PassStats(
        name="constant_folding",
        nodes_before=len(sg.ops),
        nodes_after=len(sg.ops),  # removal happens in the dead-code sweep
        detail={"folded": len(foldable), "materialized_roots": roots},
    )
