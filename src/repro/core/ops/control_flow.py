"""Control-flow helpers: no-ops and grouping."""

from __future__ import annotations

from typing import Optional

from repro.core.graph import Graph, Operation, get_default_graph
from repro.core.kernels.registry import Cost, register_kernel
from repro.core.tensor import Tensor

__all__ = ["no_op", "group"]


def no_op(name: str = "NoOp", graph: Optional[Graph] = None) -> Operation:
    g = graph or get_default_graph()
    return g.create_op("NoOp", inputs=[], output_specs=[], name=name)


def group(*inputs, name: str = "group", graph: Optional[Graph] = None) -> Operation:
    """An op that completes only after every input op/tensor has run."""
    deps = []
    for item in inputs:
        if isinstance(item, Tensor):
            deps.append(item.op)
        elif isinstance(item, Operation):
            deps.append(item)
        else:
            raise TypeError(f"group expects ops/tensors, got {item!r}")
    g = graph or (deps[0].graph if deps else get_default_graph())
    with g.control_dependencies(deps):
        return g.create_op("NoOp", inputs=[], output_specs=[], name=name)


@register_kernel("NoOp", inline=True, builder="no_op")
def _no_op_kernel(op, inputs, ctx):
    return [], Cost.none()
