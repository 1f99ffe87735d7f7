"""Common-subexpression elimination via structural hashing.

Two pure ops are merged when they agree on ``(type, resolved inputs,
attrs, requested device)`` and their static output specs match. Attribute
freezing is exact: constant payloads compare by dtype/shape/bytes, so two
separately-built but identical ``Const`` ops merge too (which in turn lets
the partitioner's transfer cache share one send per destination).
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.registry import is_pure
from repro.core.metadata import PassStats
from repro.core.optimizer.pipeline import Subgraph

__all__ = ["merge_common_subexpressions"]


def _freeze(value):
    """A hashable, exact fingerprint of one attribute value."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, np.generic):
        return ("npscalar", value.dtype.str, value.item())
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_freeze(v) for v in value))
    if isinstance(value, dict):
        return ("map", tuple(sorted((k, _freeze(v)) for k, v in value.items())))
    if isinstance(value, (str, int, float, bool, bytes, type(None))):
        return value
    return ("repr", repr(value))


def _freeze_attrs(attrs: dict):
    return tuple(sorted((k, _freeze(v)) for k, v in attrs.items()))


def merge_common_subexpressions(sg: Subgraph) -> PassStats:
    before = len(sg.ops)
    table: dict = {}
    kept: list = []
    merged = 0
    for op in sg.ops:  # topo order: the first structural twin is canonical
        if (
            not is_pure(op.type)
            or op.name in sg.fetch_op_names
            or sg.effective_control_deps(op)
        ):
            kept.append(op)
            continue
        input_keys = []
        for tensor in op.inputs:
            if tensor.name in sg.feeds:
                input_keys.append(("feed", tensor.name))
                continue
            resolved = sg.resolve(tensor)
            if resolved.name in sg.feeds:
                input_keys.append(("feed", resolved.name))
            else:
                input_keys.append(("tensor", resolved.name))
        key = (op.type, op.device, tuple(input_keys), _freeze_attrs(op.attrs))
        canonical = table.get(key)
        if canonical is None:
            table[key] = op
            kept.append(op)
            continue
        specs_match = len(canonical.outputs) == len(op.outputs) and all(
            mine.dtype == theirs.dtype and mine.shape.dims == theirs.shape.dims
            for mine, theirs in zip(op.outputs, canonical.outputs)
        )
        if not specs_match:
            kept.append(op)
            continue
        for mine, theirs in zip(op.outputs, canonical.outputs):
            sg.value_subs[mine.name] = theirs
        # Control consumers of the duplicate wait on the canonical op.
        sg.control_subs[op.name] = (canonical,)
        merged += 1
    sg.ops = kept
    return PassStats(
        name="common_subexpression",
        nodes_before=before,
        nodes_after=len(sg.ops),
        detail={"merged": merged},
    )
