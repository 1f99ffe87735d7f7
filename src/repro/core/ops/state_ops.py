"""Stateful variables and assignment ops.

Variables are the only mutable tensors. Their storage lives in the
:class:`~repro.core.kernels.registry.ResourceManager` of the task owning
the variable's device — which is exactly why a variable placed on a
parameter-server task persists across sessions and is shared by all
workers, the mechanism both the paper's STREAM benchmark (remote
``assign_add``) and its CG solver (persistent tiles between iterations,
the 2 GB GraphDef workaround) are built on.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro import dtypes
from repro.core.graph import Graph, GraphKeys, get_default_graph
from repro.core.kernels.registry import Cost, memcpy_cost, no_cost, register_kernel
from repro.core.ops.common import (
    NUMERIC,
    OutputSpecs,
    graph_of,
    merge_dims,
    to_tensor,
)
from repro.core.tensor import SymbolicValue, Tensor, TensorShape, as_shape, dims_of
from repro.errors import FailedPreconditionError, InvalidArgumentError, NotFoundError

__all__ = [
    "Variable",
    "assign",
    "assign_add",
    "assign_sub",
    "global_variables_initializer",
]


class Variable:
    """A mutable tensor with an explicit initializer op.

    Usage mirrors TF 1.x::

        v = Variable(np.zeros(10), name="state")
        sess.run(v.initializer)
        sess.run(assign_add(v, update))
        value = sess.run(v.value())
    """

    def __init__(self, initial_value: Any, dtype=None, name: str = "Variable",
                 graph: Optional[Graph] = None, shape=None):
        g = graph_of(graph=graph)
        if isinstance(initial_value, Tensor):
            init = initial_value
            if dtype is not None and init.dtype != dtypes.as_dtype(dtype):
                raise InvalidArgumentError(
                    "initial_value dtype disagrees with requested dtype"
                )
        else:
            arr = np.asarray(initial_value)
            if dtype is not None:
                arr = arr.astype(dtypes.as_dtype(dtype).np_dtype)
            from repro.core.ops.array_ops import constant

            init = constant(arr, name=f"{name}/initial_value", graph=g)
        static_shape = init.shape if shape is None else as_shape(shape)
        self._var_op = g.create_op(
            "VariableV2",
            inputs=[],
            output_specs=[(init.dtype, static_shape)],
            attrs={},
            name=name,
        )
        # The initializer is an Operation (as in TF): running it must not
        # fetch the assigned value back to the client.
        self._initializer = _make_assign(
            self._var_op, init, name=f"{name}/Assign"
        ).op
        g.add_to_collection(GraphKeys.GLOBAL_VARIABLES, self)

    # -- graph handles -------------------------------------------------------
    @property
    def op(self):
        return self._var_op

    @property
    def name(self) -> str:
        return self._var_op.name

    @property
    def dtype(self) -> dtypes.DType:
        return self._var_op.outputs[0].dtype

    @property
    def shape(self) -> TensorShape:
        return self._var_op.outputs[0].shape

    @property
    def graph(self) -> Graph:
        return self._var_op.graph

    @property
    def device(self) -> str:
        return self._var_op.device

    @property
    def initializer(self):
        """The Operation that assigns the initial value."""
        return self._initializer

    def value(self) -> Tensor:
        """The tensor reading this variable's current value."""
        return self._var_op.outputs[0]

    # Arithmetic sugar so variables can appear directly in expressions.
    def __add__(self, other):
        return self.value() + other

    def __sub__(self, other):
        return self.value() - other

    def __mul__(self, other):
        return self.value() * other

    def __matmul__(self, other):
        return self.value() @ other

    def __repr__(self) -> str:
        return f"<Variable {self.name!r} shape={self.shape} dtype={self.dtype.name}>"


def _var_op_of(ref) -> "Operation":
    from repro.core.graph import Operation

    if isinstance(ref, Variable):
        return ref.op
    if isinstance(ref, Tensor) and ref.op.type == "VariableV2":
        return ref.op
    if isinstance(ref, Operation) and ref.type == "VariableV2":
        return ref
    raise InvalidArgumentError(f"Expected a Variable, got {ref!r}")


def _make_assign(var_op, value: Tensor, name: str, op_type: str = "Assign") -> Tensor:
    op = var_op.graph.create_op(
        op_type,
        inputs=[value],
        attrs={"var_name": var_op.name},
        name=name,
        # Assign ops are colocated with the variable, as in TF.
        device=var_op.device,
    )
    return op.outputs[0]


def assign(ref, value, name: str = "Assign") -> Tensor:
    """``ref = value``; output is the freshly assigned value."""
    var_op = _var_op_of(ref)
    return _make_assign(var_op, to_tensor(value, graph=var_op.graph), name)


def assign_add(ref, value, name: str = "AssignAdd") -> Tensor:
    """``ref += value``; the paper's STREAM benchmark op."""
    var_op = _var_op_of(ref)
    return _make_assign(var_op, to_tensor(value, graph=var_op.graph), name,
                        op_type="AssignAdd")


def assign_sub(ref, value, name: str = "AssignSub") -> Tensor:
    var_op = _var_op_of(ref)
    return _make_assign(var_op, to_tensor(value, graph=var_op.graph), name,
                        op_type="AssignSub")


def global_variables_initializer(graph: Optional[Graph] = None, name: str = "init"):
    """Group op running every variable initializer in the graph."""
    from repro.core.ops.control_flow import group

    g = graph or get_default_graph()
    variables = g.get_collection(GraphKeys.GLOBAL_VARIABLES)
    return group(*[v.initializer for v in variables], name=name, graph=g)


# ---------------------------------------------------------------------------
# shape function (run by create_op and re-run by the graph verifier)
# ---------------------------------------------------------------------------

def _assign_shape(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    """The variable's dtype; its static shape merged with the value's."""
    var_name = attrs.get("var_name")
    if var_name is None:
        raise InvalidArgumentError("assign op lacks the var_name attr")
    try:
        var_op = inputs[0].graph.get_operation_by_name(var_name)
    except NotFoundError:
        raise InvalidArgumentError(
            f"assign op targets unknown variable {var_name!r}"
        ) from None
    var = var_op.outputs[0]
    return [(var.dtype, merge_dims(dims_of(var), dims_of(inputs[0])))]


def _accumulate_cost(in_specs, out_specs, attrs) -> Cost:
    """Read the variable and the delta, write the variable."""
    (updated,) = out_specs
    return Cost(flops=updated.size, mem_bytes=3 * updated.nbytes, kind="compute")


# ---------------------------------------------------------------------------
# kernels, each registered with its OpDef. The variable store decides what
# a read or an update delivers, so every one is ``kernel_spec``.
# ---------------------------------------------------------------------------

@register_kernel("VariableV2", inline=True, kernel_spec=True, cost=no_cost,
                 builder="Variable", arity=(1, 1), dtypes=NUMERIC,
                 shape_rule="variable_update")
def _variable_kernel(op, inputs, ctx):
    store = ctx.resources.variables
    if op.name not in store:
        raise FailedPreconditionError(
            f"Attempting to use uninitialized variable {op.name!r}",
            node_def=op.name,
        )
    value = store[op.name]
    # Reading a variable hands out a reference, not a copy (TF semantics);
    # the read itself is free, consumers pay for the bytes they touch.
    return [value]


@register_kernel("Assign", stateful=True, kernel_spec=True,
                 shape_fn=_assign_shape, cost=memcpy_cost(ins=2, outs=0),
                 builder="assign", arity=(1, 1), dtypes=NUMERIC,
                 shape_rule="variable_update")
def _assign_kernel(op, inputs, ctx):
    (value,) = inputs
    if isinstance(value, np.ndarray):
        value = value.copy()
    ctx.resources.variables[op.get_attr("var_name")] = value
    return [value]


def _accumulate_kernel(np_op):
    def kernel(op, inputs, ctx):
        (delta,) = inputs
        var_name = op.get_attr("var_name")
        store = ctx.resources.variables
        if var_name not in store:
            raise FailedPreconditionError(
                f"Attempting to update uninitialized variable {var_name!r}",
                node_def=op.name,
            )
        current = store[var_name]
        if isinstance(current, SymbolicValue) or isinstance(delta, SymbolicValue):
            updated = SymbolicValue.of(current)
        else:
            updated = np_op(np.asarray(current), np.asarray(delta)).astype(
                op.outputs[0].dtype.np_dtype, copy=False
            )
        store[var_name] = updated
        return [updated]

    return kernel


for _op, _builder, _np_op in (
    ("AssignAdd", "assign_add", np.add),
    ("AssignSub", "assign_sub", np.subtract),
):
    register_kernel(
        _op, stateful=True, kernel_spec=True, shape_fn=_assign_shape,
        cost=_accumulate_cost, builder=_builder, arity=(1, 1),
        dtypes=NUMERIC, shape_rule="variable_update",
    )(_accumulate_kernel(_np_op))
