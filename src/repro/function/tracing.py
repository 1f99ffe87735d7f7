"""Tracing machinery: recording a Python function into a dataflow graph.

This is the mechanical half of ``@repro.function`` (see
:mod:`repro.function.concrete` for dispatch and caching): bind the
call's arguments, replace every tensor-like leaf with a placeholder,
run the Python function once while the target graph is the default
graph, and capture

* the flat placeholder list (in argument order),
* the structured outputs (arbitrary nesting of tensors/None/values),
* unconsumed *stateful* ops (``assign``, queue traffic, tile writes —
  identified through the kernel registry's ``stateful`` flag) so traced
  side effects survive fetch-reachability pruning, and
* variables created during the trace, whose initializers the concrete
  function runs lazily before its first step.

While a trace is active (``is_tracing()``), calling another traced
function *inlines* its Python body into the current graph instead of
dispatching a nested Session — the tf.function inlining behaviour.
"""

from __future__ import annotations

import inspect
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro import dtypes
from repro.core.graph import Graph, GraphKeys, Operation
from repro.core.kernels.registry import op_def
from repro.core.ops import array_ops
from repro.core.ops.state_ops import Variable
from repro.core.tensor import Tensor, TensorShape, as_shape
from repro.errors import InvalidArgumentError

__all__ = [
    "TensorSpec",
    "TraceResult",
    "bind_arguments",
    "is_tensor_like",
    "is_tracing",
    "leaf_key",
    "spec_of",
    "trace",
]


class TensorSpec:
    """Static description of an argument tensor: dtype + (partial) shape.

    Used in ``input_signature`` to pin one trace for a family of
    compatible call shapes (``TensorSpec([None, 128], float64)`` accepts
    any leading dimension without retracing).
    """

    __slots__ = ("shape", "dtype", "name")

    def __init__(self, shape=None, dtype=dtypes.float32, name: Optional[str] = None):
        self.shape = as_shape(shape)
        self.dtype = dtypes.as_dtype(dtype)
        self.name = name

    def is_compatible_with(self, value) -> bool:
        if isinstance(value, TensorSpec):
            return (
                value.dtype == self.dtype
                and self.shape.is_compatible_with(value.shape)
            )
        arr = np.asarray(value)
        # Shape must be compatible and the value's dtype must convert
        # without changing numeric kind (int->float fine; complex->float
        # would silently drop imaginary parts, so it is rejected).
        return self.shape.is_compatible_with(TensorShape(arr.shape)) and bool(
            np.can_cast(arr.dtype, self.dtype.np_dtype, casting="same_kind")
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorSpec):
            return NotImplemented
        return self.dtype == other.dtype and self.shape.dims == other.shape.dims

    def __hash__(self) -> int:
        return hash((self.dtype, self.shape.dims))

    def __repr__(self) -> str:
        return f"TensorSpec(shape={self.shape}, dtype={self.dtype.name})"


# -- trace nesting state ------------------------------------------------------

class _TraceState(threading.local):
    def __init__(self):
        self.stack: list = []


_trace_state = _TraceState()


def is_tracing() -> bool:
    """Whether a ``@repro.function`` trace is currently recording."""
    return bool(_trace_state.stack)


# -- argument handling ---------------------------------------------------------

def is_tensor_like(value: Any) -> bool:
    """Leaves that become placeholders (everything else is baked static)."""
    return isinstance(value, (np.ndarray, np.generic, list, TensorSpec))


def spec_of(value: Any) -> TensorSpec:
    if isinstance(value, TensorSpec):
        return value
    arr = np.asarray(value)
    return TensorSpec(TensorShape(arr.shape), dtypes.as_dtype(arr.dtype))


def leaf_key(name: str, value: Any):
    """The cache-key contribution of one bound argument."""
    if is_tensor_like(value):
        spec = spec_of(value)
        return ("tensor", name, spec.dtype.name, spec.shape.dims)
    try:
        hash(value)
    except TypeError:
        raise InvalidArgumentError(
            f"Argument {name!r} of a traced function must be tensor-like "
            f"(ndarray/list/TensorSpec) or hashable static metadata, got "
            f"{type(value).__name__}"
        ) from None
    return ("static", name, value)


def bind_arguments(
    fn: Callable, args: tuple, kwargs: dict,
    signature: Optional[inspect.Signature] = None,
) -> list[tuple[str, Any]]:
    """Flatten a call into ``[(argument name, value), ...]`` in order.

    ``*args``/``**kwargs`` parameters expand into one entry per element
    so each tensor gets its own placeholder and key contribution.
    ``signature`` lets callers on the per-call hot path reuse a cached
    ``inspect.Signature`` instead of recomputing it.
    """
    sig = signature if signature is not None else inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    entries: list[tuple[str, Any]] = []
    for pname, param in sig.parameters.items():
        if pname not in bound.arguments:
            continue
        value = bound.arguments[pname]
        if param.kind is inspect.Parameter.VAR_POSITIONAL:
            entries.extend((f"{pname}{i}", v) for i, v in enumerate(value))
        elif param.kind is inspect.Parameter.VAR_KEYWORD:
            entries.extend((k, value[k]) for k in sorted(value))
        else:
            entries.append((pname, value))
    return entries


def _substitute(fn: Callable, args: tuple, kwargs: dict, replacements: dict,
                signature: Optional[inspect.Signature] = None):
    """Rebuild (args, kwargs) with tensor leaves swapped for placeholders.

    ``replacements`` maps the entry names produced by
    :func:`bind_arguments` to their placeholder tensors.
    """
    sig = signature if signature is not None else inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    for pname, param in sig.parameters.items():
        if pname not in bound.arguments:
            continue
        value = bound.arguments[pname]
        if param.kind is inspect.Parameter.VAR_POSITIONAL:
            bound.arguments[pname] = tuple(
                replacements.get(f"{pname}{i}", v) for i, v in enumerate(value)
            )
        elif param.kind is inspect.Parameter.VAR_KEYWORD:
            bound.arguments[pname] = {
                k: replacements.get(k, v) for k, v in value.items()
            }
        elif pname in replacements:
            bound.arguments[pname] = replacements[pname]
    return bound.args, bound.kwargs


# -- output structure ----------------------------------------------------------

def flatten_outputs(value: Any, flat: list[Tensor]):
    """Record the output nesting; append tensor leaves to ``flat``.

    Must run while the trace graph is the default graph: concrete leaf
    values (a stray ndarray / python number returned by the function)
    are staged as captured constants.
    """
    if value is None:
        return ("none",)
    if isinstance(value, Variable):
        value = value.value()
    if isinstance(value, Tensor):
        flat.append(value)
        return ("tensor", len(flat) - 1)
    if isinstance(value, (list, tuple)):
        kind = "list" if isinstance(value, list) else "tuple"
        return (kind, [flatten_outputs(v, flat) for v in value])
    if isinstance(value, dict):
        return ("dict", [(k, flatten_outputs(v, flat)) for k, v in value.items()])
    # Concrete leaf: capture as a constant so it round-trips through run.
    from repro.core.graph import convert_to_tensor

    tensor = convert_to_tensor(value, name="captured")
    flat.append(tensor)
    return ("tensor", len(flat) - 1)


def pack_outputs(structure, values: Sequence[Any]):
    """Inverse of :func:`flatten_outputs` over fetched runtime values."""
    kind = structure[0]
    if kind == "none":
        return None
    if kind == "tensor":
        return values[structure[1]]
    if kind == "list":
        return [pack_outputs(s, values) for s in structure[1]]
    if kind == "tuple":
        return tuple(pack_outputs(s, values) for s in structure[1])
    if kind == "dict":
        return {k: pack_outputs(s, values) for k, s in structure[1]}
    raise InvalidArgumentError(f"Corrupt output structure {structure!r}")


# -- side-effect collection ----------------------------------------------------

def _ancestors(roots: Sequence[Operation]) -> set[Operation]:
    seen: set[Operation] = set()
    stack = list(roots)
    while stack:
        op = stack.pop()
        if op in seen:
            continue
        seen.add(op)
        stack.extend(t.op for t in op.inputs)
        stack.extend(op.control_inputs)
    return seen


def collect_side_effects(
    new_ops: Sequence[Operation], output_tensors: Sequence[Tensor]
) -> list[Operation]:
    """Stateful ops from this trace not already fetched via the outputs.

    Uses the registry's ``stateful`` flag (assignments, queue traffic,
    tile writes, RNG draws). Ops covered by a later stateful op's
    dependency closure are skipped, so one fetch per independent effect
    chain suffices.
    """
    covered = _ancestors([t.op for t in output_tensors])
    kept: list[Operation] = []
    for op in reversed(list(new_ops)):  # later ops depend on earlier ones
        if op in covered or not op_def(op.type).stateful:
            continue
        kept.append(op)
        covered |= _ancestors([op])
    kept.reverse()
    return kept


# -- the trace itself ----------------------------------------------------------

@dataclass
class TraceResult:
    """Everything one recording pass produced."""

    placeholders: list[Tensor]
    structure: tuple
    output_tensors: list[Tensor]
    side_effect_ops: list[Operation]
    variables: list = field(default_factory=list)
    scope: str = ""


def trace(
    fn: Callable,
    graph: Graph,
    name: str,
    args: tuple,
    kwargs: dict,
    entries: Optional[list[tuple[str, Any]]] = None,
    specs: Optional[list[TensorSpec]] = None,
    owner: Any = None,
    signature: Optional[inspect.Signature] = None,
) -> TraceResult:
    """Record one call of ``fn`` into ``graph``.

    Args:
        fn: the Python function to record.
        graph: target graph (made default for the duration).
        name: name-scope for this trace (uniquified by the graph).
        args/kwargs: the triggering call's arguments.
        entries: pre-bound ``[(name, value)]`` list (rebound if omitted).
        specs: placeholder specs overriding the values' own specs
            (the ``input_signature`` path); positional with the
            tensor-like entries.
        owner: pushed on the trace stack (the TracedFunction), so nested
            traced calls detect the recording and inline.
    """
    if entries is None:
        entries = bind_arguments(fn, args, kwargs, signature=signature)
    tensor_entries = [(n, v) for n, v in entries if is_tensor_like(v)]
    if specs is not None and len(specs) != len(tensor_entries):
        raise InvalidArgumentError(
            f"input_signature has {len(specs)} specs but the call supplies "
            f"{len(tensor_entries)} tensor arguments"
        )

    vars_before = len(graph.get_collection(GraphKeys.GLOBAL_VARIABLES))
    ops_before = len(graph.operations)
    placeholders: list[Tensor] = []
    replacements: dict[str, Tensor] = {}
    flat_outputs: list[Tensor] = []
    _trace_state.stack.append(owner if owner is not None else fn)
    try:
        with graph.as_default(), graph.name_scope(name) as scope:
            for index, (pname, value) in enumerate(tensor_entries):
                spec = specs[index] if specs is not None else spec_of(value)
                ph = array_ops.placeholder(
                    spec.dtype, shape=spec.shape, name=pname, graph=graph
                )
                placeholders.append(ph)
                replacements[pname] = ph
            call_args, call_kwargs = _substitute(
                fn, args, kwargs, replacements, signature=signature
            )
            outputs = fn(*call_args, **call_kwargs)
            structure = flatten_outputs(outputs, flat_outputs)
    finally:
        _trace_state.stack.pop()

    new_ops = graph.operations[ops_before:]
    variables = graph.get_collection(GraphKeys.GLOBAL_VARIABLES)[vars_before:]
    # Initializers of variables created by this trace run once, lazily,
    # before the concrete function's first step — never as per-call side
    # effects (they would reset state every invocation).
    initializers = {v.initializer for v in variables}
    side_effects = [
        op
        for op in collect_side_effects(new_ops, flat_outputs)
        if op not in initializers
    ]
    return TraceResult(
        placeholders=placeholders,
        structure=structure,
        output_tensors=flat_outputs,
        side_effect_ops=side_effects,
        variables=variables,
        scope=scope,
    )
