"""Reverse-mode automatic differentiation over dataflow graphs.

The original TensorFlow system paper (Abadi et al., OSDI'16) builds
training on *graph-level* differentiation: walking the graph backward
from a scalar loss and emitting, for each traversed op, a gradient
subgraph looked up in a per-op-type registry. This module is that
mechanism for ``repro``: :func:`gradients` returns symbolic gradient
tensors (ordinary graph ops — they run through the same optimizer,
partitioner, executor and simulator as the forward pass), and
:func:`apply_gradients` turns ``(gradient, variable)`` pairs into the
SGD update ``var -= lr * grad`` via the existing ``state_ops`` assigns.

What is differentiable
======================

Gradient functions are registered per op *type* with
:class:`RegisterGradient`. The registry covers the dense-algebra core —
``MatMul`` (all transpose combinations, matrix x vector included),
``Dot``, ``Add``/``Sub``/``Mul``/``Div``/``Maximum`` (with NumPy-style
broadcast reduction), ``Neg``, ``Square``, ``Sqrt``, ``Exp``,
``Sigmoid``, ``AddN``, ``Sum``/``Mean`` reductions, ``Identity``,
``Reshape``, ``Concat``/``Slice`` (layout ops) — enough for
linear/logistic-style regression losses. ``Placeholder``, ``Variable`` reads, ``Const`` and
``Fill`` are *leaves*: they have no inputs, so differentiation stops
there and the accumulated gradient is simply returned for any of them
listed in ``xs``.

What is **not** differentiable: everything else, deliberately including
the collective ops (``CollectiveAllReduce`` & co.). Collectives belong
*on* the backward path, not *inside* it — compute local gradients with
:func:`gradients`, then sum them across workers with
``repro.all_reduce`` (the Horovod pattern; see ``repro.apps.sgd``).
Asking :func:`gradients` to differentiate *through* an op with no
registered gradient raises a descriptive
:class:`~repro.errors.InvalidArgumentError`, never a bare ``KeyError``.

Gradients are graph construction: call :func:`gradients` while building
a graph or inside a ``@repro.function`` trace. There is no eager tape —
under eager execution, wrap the computation in a traced function first.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence


import numpy as np

from repro.core.graph import Graph, Operation
from repro.core.kernels.registry import op_def, registered_op_types
from repro.core.ops import array_ops, control_flow, math_ops, state_ops
from repro.core.tensor import Tensor

from repro.errors import InvalidArgumentError

__all__ = [
    "RegisterGradient",
    "apply_gradients",
    "gradients",
    "minimize",
]


class RegisterGradient:
    """Decorator registering the gradient function for one op type
    (stored as the ``gradient`` field of the op's registry record).

    The decorated function receives ``(op, grad)`` — the forward
    :class:`~repro.core.graph.Operation` and the gradient flowing into
    its (single) output — and must return one gradient tensor per op
    input, in input order, using ``None`` for non-differentiable inputs.
    The returned tensors are ordinary graph ops built into ``op.graph``.

    Usage, exactly as in TF::

        @RegisterGradient("Square")
        def _square_grad(op, grad):
            x = op.inputs[0]
            return [math_ops.multiply(grad, 2.0 * x)]
    """

    def __init__(self, op_type: str):
        if not isinstance(op_type, str) or not op_type:
            raise InvalidArgumentError(
                f"RegisterGradient needs an op type string, got {op_type!r}"
            )
        if op_def(op_type).gradient is not None:
            raise InvalidArgumentError(
                f"Gradient for op type {op_type!r} is already registered"
            )
        self._op_type = op_type

    def __call__(self, fn: Callable) -> Callable:
        op_def(self._op_type).gradient = fn
        return fn


def registered_gradient_op_types() -> tuple[str, ...]:
    """Every op type with a gradient, sorted (drives coverage sweeps)."""
    return tuple(
        t for t in registered_op_types() if op_def(t).gradient is not None
    )


# ---------------------------------------------------------------------------
# the backward walk
# ---------------------------------------------------------------------------

def _as_tensor_list(values, what: str) -> list[Tensor]:
    if isinstance(values, (Tensor, state_ops.Variable)):
        values = [values]
    out = []
    for v in values:
        if isinstance(v, state_ops.Variable):
            v = v.value()
        if not isinstance(v, Tensor):
            raise InvalidArgumentError(
                f"{what} entries must be Tensors or Variables, got {v!r}"
            )
        out.append(v)
    if not out:
        raise InvalidArgumentError(f"{what} must be non-empty")
    return out


def _backward_reachable(ys: Sequence[Tensor]) -> set[Operation]:
    """Every op reachable from ``ys`` along data inputs."""
    reached: set[Operation] = set()
    stack = [y.op for y in ys]
    while stack:
        op = stack.pop()
        if op in reached:
            continue
        reached.add(op)
        stack.extend(t.op for t in op.inputs)
    return reached


def _ops_feeding_xs(
    reached: set[Operation], xs: Sequence[Tensor]
) -> set[Operation]:
    """The subset of ``reached`` with a data path from some ``x`` tensor
    *into* their inputs.

    Only these ops sit *between* ``xs`` and ``ys`` and therefore need a
    registered gradient; side branches (e.g. constant data feeding a
    loss) are never differentiated. Dependence starts at the ``x``
    tensors as *edges*, not at their producer ops: differentiation
    stops at an ``x`` (its accumulated gradient is the answer), so
    asking for the gradient with respect to, say, a collective's output
    works — the collective itself is never differentiated through.
    """
    x_tensors = set(xs)
    memo: dict[Operation, bool] = {}
    # Iterative post-order (graphs can be deeper than the Python
    # recursion limit): resolve an op only once all its inputs are.
    for root in reached:
        stack = [root]
        while stack:
            op = stack[-1]
            if op in memo:
                stack.pop()
                continue
            pending = [t.op for t in op.inputs if t.op not in memo]
            if pending:
                stack.extend(pending)
                continue
            memo[op] = any(
                t in x_tensors or memo[t.op] for t in op.inputs
            )
            stack.pop()
    return {op for op in reached if memo[op]}


def _default_grad_y(y: Tensor) -> Tensor:
    if not y.shape.is_fully_defined:
        raise InvalidArgumentError(
            f"gradients needs grad_ys for {y.name}: its static shape "
            f"{y.shape} is not fully defined"
        )
    ones = np.ones(y.shape.as_tuple(), dtype=y.dtype.np_dtype)
    return array_ops.constant(ones, name="grad_ys", graph=y.graph)


def _accumulate(graph: Graph, grads: list[Tensor]) -> Tensor:
    if len(grads) == 1:
        return grads[0]
    return math_ops.add_n(grads, name="grad_sum")


def gradients(
    ys,
    xs,
    grad_ys=None,
    name: str = "gradients",
) -> list[Tensor]:
    """Symbolic derivatives ``d(sum ys)/d(xs)``, as graph tensors.

    Walks the graph backward from ``ys``, emitting each traversed op's
    gradient subgraph via the :class:`RegisterGradient` registry and
    summing contributions where paths rejoin. The result is one tensor
    per ``x`` (``None`` where no differentiable path connects it to any
    ``y``) — plain graph ops that place, optimize, partition and
    simulate exactly like the forward pass.

    Args:
        ys: tensor or list of tensors to differentiate (typically one
            scalar loss).
        xs: tensor/``Variable`` or list thereof to differentiate *with
            respect to* — a ``Variable`` stands for its read tensor.
        grad_ys: optional incoming gradients, one per ``y`` (defaults to
            ones, which for a scalar loss is the usual seed of 1.0).
        name: name scope for the emitted backward ops.

    Raises:
        InvalidArgumentError: if a differentiable path runs through an
            op type with no registered gradient — including the
            collective ops, which are not differentiable (sum local
            gradients with ``repro.all_reduce`` *after* calling this;
            see the module docstring).
    """
    ys = _as_tensor_list(ys, "ys")
    xs = _as_tensor_list(xs, "xs")
    graph = ys[0].graph
    for t in (*ys, *xs):
        if t.graph is not graph:
            raise InvalidArgumentError(
                f"gradients got tensors from different graphs ({t.name})"
            )
    if grad_ys is None:
        grad_ys = [None] * len(ys)
    elif isinstance(grad_ys, (Tensor, np.ndarray, np.generic, int, float)):
        grad_ys = [grad_ys]
    else:
        try:
            grad_ys = list(grad_ys)
        except TypeError:
            raise InvalidArgumentError(
                f"grad_ys must be a tensor/array/number or a sequence of "
                f"them, got {grad_ys!r}"
            ) from None
    if len(grad_ys) != len(ys):
        raise InvalidArgumentError(
            f"gradients got {len(ys)} ys but {len(grad_ys)} grad_ys"
        )

    reached = _backward_reachable(ys)
    between = _ops_feeding_xs(reached, xs)
    x_tensors = set(xs)

    # tensor -> list of gradient contributions, summed lazily.
    accumulated: dict[Tensor, list[Tensor]] = {}
    with graph.name_scope(name):
        for y, gy in zip(ys, grad_ys):
            if gy is None:
                gy = _default_grad_y(y)
            elif not isinstance(gy, Tensor):
                gy = array_ops.constant(
                    np.asarray(gy, dtype=y.dtype.np_dtype),
                    name="grad_ys", graph=graph,
                )
            accumulated.setdefault(y, []).append(gy)

        # node_id order is a topological order (inputs are created before
        # their consumers), so descending node_id is a valid reverse walk.
        for op in sorted(between, key=lambda o: o.node_id, reverse=True):
            out_grads = [accumulated.get(t) for t in op.outputs]
            if not any(out_grads):
                continue  # y-independent op inside the between set
            if not op.inputs:
                continue  # leaf (Placeholder/Variable/Const): stop here
            grad_fn = op_def(op.type).gradient
            if grad_fn is None:
                raise InvalidArgumentError(
                    f"Operation {op.name!r} of type {op.type!r} is not "
                    f"differentiable: no gradient is registered for it. "
                    + (
                        "Collectives cannot be differentiated through - "
                        "compute local gradients first, then sum them "
                        "across ranks with repro.all_reduce (see "
                        "repro.core.gradients)."
                        if op.type.startswith("Collective")
                        else "Register one with "
                        "repro.core.gradients.RegisterGradient, or keep "
                        "this op off the differentiable path."
                    )
                )
            if len(op.outputs) != 1:
                raise InvalidArgumentError(
                    f"Cannot differentiate through multi-output op "
                    f"{op.name!r} ({op.type}); no registered gradient "
                    f"supports it"
                )
            grad = _accumulate(graph, out_grads[0])
            with graph.name_scope(f"{op.type}_grad"):
                in_grads = grad_fn(op, grad)
            if len(in_grads) != len(op.inputs):
                raise InvalidArgumentError(
                    f"Gradient for {op.type!r} returned {len(in_grads)} "
                    f"values for {len(op.inputs)} inputs"
                )
            for inp, g in zip(op.inputs, in_grads):
                if g is None:
                    continue
                if inp.op in between or inp in x_tensors:
                    accumulated.setdefault(inp, []).append(g)

        results: list[Optional[Tensor]] = []
        for x in xs:
            contributions = accumulated.get(x)
            results.append(
                _accumulate(graph, contributions) if contributions else None
            )
    return results


# ---------------------------------------------------------------------------
# SGD on top: apply_gradients / minimize
# ---------------------------------------------------------------------------

def _momentum_slot(var: state_ops.Variable, name: str) -> state_ops.Variable:
    """The per-variable velocity slot, created on the variable's device.

    Slot state rides the existing assign machinery: an ordinary zero-
    initialized ``Variable`` registered in the graph's global-variable
    collection, so ``global_variables_initializer`` (and the tracing
    frontend's automatic initializer handling) covers it like any other
    variable. Requires a fully-defined variable shape (there is no lazy
    slot allocation).
    """
    if not var.shape.is_fully_defined:
        raise InvalidArgumentError(
            f"momentum needs a fully-defined variable shape to build the "
            f"slot; {var.name} has shape {var.shape}"
        )
    g = var.graph
    init = array_ops.fill(
        var.shape.as_tuple(), 0, dtype=var.dtype,
        name=f"{name}/initial_value", graph=g,
    )
    return state_ops.Variable(init, name=name, graph=g)


def apply_gradients(
    grads_and_vars,
    learning_rate,
    momentum: float = 0.0,
    name: str = "SGD",
) -> list[Tensor]:
    """The SGD update ``var -= learning_rate * grad``, one assign per pair.

    Args:
        grads_and_vars: iterable of ``(gradient, Variable)`` pairs, as
            produced by zipping :func:`gradients` output with the
            variable list; pairs whose gradient is ``None`` are skipped.
        learning_rate: python scalar or scalar tensor.
        momentum: classic (Polyak) momentum coefficient. ``0.0`` (the
            default) is plain SGD. A positive value creates one velocity
            slot variable per applied pair — on the variable's device,
            through the ordinary assign machinery — and applies
            ``v = momentum * v + grad; var -= learning_rate * v``. Slot
            variables land in the graph's global-variable collection, so
            ``global_variables_initializer`` initializes them (the
            tracing frontend runs trace-created initializers
            automatically).
        name: name scope for the update ops.

    Returns:
        The freshly-assigned value tensors (``AssignSub`` outputs), one
        per applied pair — fetch any of them (or ``tf.group`` their
        ``.op``s into a single train op) to run the step. Each update is
        built under its variable's device, so the scale-and-subtract
        (and any slot update) executes where the weights live. Returning
        the updated values (instead of TF's bare op) lets a
        ``@repro.function`` body hand the post-update weights straight
        back to the caller.
    """
    pairs = list(grads_and_vars)
    if not pairs:
        raise InvalidArgumentError("apply_gradients got no (grad, var) pairs")
    if momentum < 0.0:
        raise InvalidArgumentError(f"momentum must be >= 0, got {momentum}")
    updates: list[Tensor] = []
    for grad, var in pairs:
        if not isinstance(var, state_ops.Variable):
            raise InvalidArgumentError(
                f"apply_gradients expects Variables, got {var!r}"
            )
        if grad is None:
            continue
        g = var.graph
        with g.name_scope(name), g.device(var.device or None):
            lr = learning_rate
            if not isinstance(lr, Tensor):
                lr = array_ops.constant(
                    np.asarray(lr, dtype=var.dtype.np_dtype),
                    name="learning_rate", graph=g,
                )
            if momentum:
                slot = _momentum_slot(var, name="momentum")
                m = array_ops.constant(
                    np.asarray(momentum, dtype=var.dtype.np_dtype),
                    name="momentum_coeff", graph=g,
                )
                # The Assign's output is the fresh velocity, so the
                # var update dataflow-depends on the slot write.
                velocity = state_ops.assign(
                    slot,
                    math_ops.add(
                        math_ops.multiply(m, slot.value(), name="decayed"),
                        grad, name="velocity",
                    ),
                )
            else:
                velocity = grad
            step = math_ops.multiply(lr, velocity, name="scaled_grad")
            updates.append(state_ops.assign_sub(var, step))
    if not updates:
        raise InvalidArgumentError(
            "apply_gradients: every gradient was None — nothing to apply"
        )
    return updates


def minimize(
    loss: Tensor,
    var_list: Sequence[state_ops.Variable],
    learning_rate,
    momentum: float = 0.0,
    name: str = "SGD",
):
    """One-call SGD: differentiate ``loss`` and apply the updates.

    Convenience wrapper chaining :func:`gradients` and
    :func:`apply_gradients` (with optional classic momentum); returns a
    single grouped train :class:`~repro.core.graph.Operation`. Raises if
    ``loss`` depends on none of ``var_list``.
    """
    var_list = list(var_list)
    grads = gradients([loss], var_list, name=f"{name}_gradients")
    updates = apply_gradients(zip(grads, var_list), learning_rate,
                              momentum=momentum, name=name)
    graph = loss.graph
    return control_flow.group(
        *[u.op for u in updates], name=f"{name}_train", graph=graph
    )


# ---------------------------------------------------------------------------
# gradient functions
# ---------------------------------------------------------------------------

def _static_dims(t: Tensor, what: str) -> tuple[int, ...]:
    if not t.shape.is_fully_defined:
        raise InvalidArgumentError(
            f"{what} gradient needs a fully-defined static shape, got "
            f"{t.shape} for {t.name}"
        )
    return t.shape.as_tuple()


def _sum_to_shape(grad: Tensor, target: Tensor) -> Tensor:
    """Reduce ``grad`` back to ``target``'s shape after broadcasting.

    The elementwise binaries broadcast NumPy-style, so the gradient
    flowing back may be larger than an input; summing over the
    broadcast axes restores the input's shape (static shapes only).
    """
    if grad.shape.is_fully_defined and grad.shape == target.shape:
        return grad
    gdims = _static_dims(grad, "broadcast")
    tdims = _static_dims(target, "broadcast")
    lead = len(gdims) - len(tdims)
    axes = list(range(lead)) + [
        lead + i for i, d in enumerate(tdims) if d == 1 and gdims[lead + i] != 1
    ]
    if not axes:
        return grad
    reduced = math_ops.reduce_sum(grad, axis=tuple(axes), keepdims=True,
                                  name="unbroadcast")
    return array_ops.reshape(reduced, tdims, name="unbroadcast_shape")


@RegisterGradient("Identity")
def _identity_grad(op, grad):
    return [grad]


@RegisterGradient("Reshape")
def _reshape_grad(op, grad):
    x = op.inputs[0]
    return [array_ops.reshape(grad, _static_dims(x, "Reshape"))]


@RegisterGradient("Add")
def _add_grad(op, grad):
    a, b = op.inputs
    return [_sum_to_shape(grad, a), _sum_to_shape(grad, b)]


@RegisterGradient("Sub")
def _sub_grad(op, grad):
    a, b = op.inputs
    return [
        _sum_to_shape(grad, a),
        _sum_to_shape(math_ops.negative(grad), b),
    ]


@RegisterGradient("Mul")
def _mul_grad(op, grad):
    a, b = op.inputs
    return [
        _sum_to_shape(math_ops.multiply(grad, b), a),
        _sum_to_shape(math_ops.multiply(grad, a), b),
    ]


@RegisterGradient("Div")
def _div_grad(op, grad):
    a, b = op.inputs
    z = op.outputs[0]  # a / b, reused: d/db = -grad * z / b
    return [
        _sum_to_shape(math_ops.divide(grad, b), a),
        _sum_to_shape(
            math_ops.negative(
                math_ops.divide(math_ops.multiply(grad, z), b)
            ),
            b,
        ),
    ]


@RegisterGradient("Neg")
def _neg_grad(op, grad):
    return [math_ops.negative(grad)]


@RegisterGradient("Square")
def _square_grad(op, grad):
    x = op.inputs[0]
    two = array_ops.constant(
        np.asarray(2, dtype=x.dtype.np_dtype), name="two", graph=x.graph
    )
    return [math_ops.multiply(grad, math_ops.multiply(two, x))]


@RegisterGradient("Sqrt")
def _sqrt_grad(op, grad):
    y = op.outputs[0]  # d sqrt(x)/dx = 1 / (2 sqrt(x))
    two = array_ops.constant(
        np.asarray(2, dtype=y.dtype.np_dtype), name="two", graph=y.graph
    )
    return [math_ops.divide(grad, math_ops.multiply(two, y))]


@RegisterGradient("Exp")
def _exp_grad(op, grad):
    y = op.outputs[0]  # d exp(x)/dx = exp(x), reused
    return [math_ops.multiply(grad, y)]


@RegisterGradient("Sigmoid")
def _sigmoid_grad(op, grad):
    y = op.outputs[0]  # d sigma(x)/dx = sigma (1 - sigma), reused
    one = array_ops.constant(
        np.asarray(1, dtype=y.dtype.np_dtype), name="one", graph=y.graph
    )
    return [
        math_ops.multiply(
            grad, math_ops.multiply(y, math_ops.subtract(one, y))
        )
    ]


@RegisterGradient("Maximum")
def _maximum_grad(op, grad):
    a, b = op.inputs
    # Subgradient: the larger input takes the gradient; exact ties route
    # to the first input (TF's GreaterEqual convention).
    mask = array_ops.cast(math_ops.greater_equal(a, b), a.dtype,
                          name="take_a")
    one = array_ops.constant(
        np.asarray(1, dtype=a.dtype.np_dtype), name="one", graph=a.graph
    )
    return [
        _sum_to_shape(math_ops.multiply(grad, mask), a),
        _sum_to_shape(
            math_ops.multiply(grad, math_ops.subtract(one, mask)), b
        ),
    ]


@RegisterGradient("AddN")
def _add_n_grad(op, grad):
    return [grad] * len(op.inputs)


@RegisterGradient("Dot")
def _dot_grad(op, grad):
    a, b = op.inputs  # grad is scalar; broadcast-multiply against each
    return [math_ops.multiply(grad, b), math_ops.multiply(grad, a)]


def _outer(u: Tensor, v: Tensor, name: str) -> Tensor:
    """Rank-1 outer product as a [m,1] @ [1,n] MatMul."""
    return math_ops.matmul(
        array_ops.expand_dims(u, 1), array_ops.expand_dims(v, 0), name=name
    )


@RegisterGradient("MatMul")
def _matmul_grad(op, grad):
    a, b = op.inputs
    ta = op.get_attr("transpose_a", False)
    tb = op.get_attr("transpose_b", False)
    if b.shape.rank == 1:
        # y = op(A) @ b with vector b; grad is rank 1.
        # dA = outer(grad, b) (transposed if A arrived transposed),
        # db = op(A)^T @ grad.
        grad_a = _outer(b, grad, "grad_a") if ta else _outer(grad, b, "grad_a")
        grad_b = math_ops.matmul(a, grad, transpose_a=not ta, name="grad_b")
        return [grad_a, grad_b]
    if not ta and not tb:
        grad_a = math_ops.matmul(grad, b, transpose_b=True, name="grad_a")
        grad_b = math_ops.matmul(a, grad, transpose_a=True, name="grad_b")
    elif not ta and tb:
        grad_a = math_ops.matmul(grad, b, name="grad_a")
        grad_b = math_ops.matmul(grad, a, transpose_a=True, name="grad_b")
    elif ta and not tb:
        grad_a = math_ops.matmul(b, grad, transpose_b=True, name="grad_a")
        grad_b = math_ops.matmul(a, grad, name="grad_b")
    else:
        grad_a = math_ops.matmul(b, grad, transpose_a=True, transpose_b=True,
                                 name="grad_a")
        grad_b = math_ops.matmul(grad, a, transpose_a=True, transpose_b=True,
                                 name="grad_b")
    return [grad_a, grad_b]


def _reduction_axes(op, dims: tuple[int, ...]) -> set[int]:
    axes = op.get_attr("axis")
    rank = len(dims)
    if axes is None:
        return set(range(rank))
    return {a % rank for a in axes}


def _broadcast_reduce_grad(op, grad) -> Tensor:
    """Spread a reduction's gradient back over the input's shape."""
    x = op.inputs[0]
    dims = _static_dims(x, op.type)
    norm = _reduction_axes(op, dims)
    if not op.get_attr("keepdims", False) and x.shape.rank:
        kept = tuple(1 if i in norm else d for i, d in enumerate(dims))
        grad = array_ops.reshape(grad, kept, name="keepdims")
    ones = array_ops.fill(dims, 1, dtype=x.dtype, name="spread",
                          graph=x.graph)
    return math_ops.multiply(grad, ones, name="spread_grad")


@RegisterGradient("Sum")
def _sum_grad(op, grad):
    return [_broadcast_reduce_grad(op, grad)]


@RegisterGradient("Mean")
def _mean_grad(op, grad):
    x = op.inputs[0]
    dims = _static_dims(x, "Mean")
    count = 1
    for i in _reduction_axes(op, dims):
        count *= dims[i]
    scale = array_ops.constant(
        np.asarray(1.0 / max(count, 1), dtype=x.dtype.np_dtype),
        name="inv_count", graph=x.graph,
    )
    return [math_ops.multiply(_broadcast_reduce_grad(op, grad), scale)]


@RegisterGradient("Concat")
def _concat_grad(op, grad):
    """Slice the incoming gradient back into per-input blocks."""
    axis = op.get_attr("axis")
    rank = len(_static_dims(grad, "Concat"))
    ax = axis % rank
    grads = []
    offset = 0
    for inp in op.inputs:
        dims = _static_dims(inp, "Concat")
        begin = [offset if i == ax else 0 for i in range(rank)]
        grads.append(
            array_ops.slice_(grad, begin, dims, name="unconcat")
        )
        offset += dims[ax]
    return grads


@RegisterGradient("Slice")
def _slice_grad(op, grad):
    """Pad the gradient back to the input's shape with zeros.

    Built from the existing layout ops: one ``Concat`` of zero blocks
    per dimension that was actually cut, innermost first — no dedicated
    Pad/scatter op needed.
    """
    x = op.inputs[0]
    begin = op.get_attr("begin")
    size = op.get_attr("size")
    dims = _static_dims(x, "Slice")
    out = grad
    # After processing dimension i (from the last to the first), ``out``
    # spans the full input extent on dims >= i and the slice extent on
    # dims < i; grown extents come from zero fills.
    for i in reversed(range(len(dims))):
        before = begin[i]
        after = dims[i] - begin[i] - size[i]
        if before == 0 and after == 0:
            continue
        grown = [
            dims[j] if j > i else (size[j] if j < i else None)
            for j in range(len(dims))
        ]
        parts = []
        if before:
            parts.append(array_ops.fill(
                [before if j == i else grown[j] for j in range(len(dims))],
                0, dtype=x.dtype, name="pad_before", graph=x.graph,
            ))
        parts.append(out)
        if after:
            parts.append(array_ops.fill(
                [after if j == i else grown[j] for j in range(len(dims))],
                0, dtype=x.dtype, name="pad_after", graph=x.graph,
            ))
        out = array_ops.concat(parts, axis=i, name="unslice")
    return [out]
