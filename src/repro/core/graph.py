"""Dataflow graphs: operations, edges, name scopes and device scopes.

A :class:`Graph` is a DAG of :class:`Operation` nodes whose edges are
:class:`~repro.core.tensor.Tensor` handles. Construction follows the
TF 1.x deferred-execution model the paper uses: ops are added to a default
graph under ``with g.as_default():`` and executed later by a Session.
"""

from __future__ import annotations

import contextlib
import threading
import weakref
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro import dtypes
from repro.core.kernels.registry import op_def
from repro.core.tensor import Tensor, TensorShape, as_shape
from repro.errors import FailedPreconditionError, InvalidArgumentError, NotFoundError

__all__ = [
    "Graph",
    "Operation",
    "get_default_graph",
    "reset_default_graph",
    "GraphKeys",
    "device",
]


class GraphKeys:
    """Well-known collection names (mirrors ``tf.GraphKeys``)."""

    GLOBAL_VARIABLES = "variables"
    LOCAL_VARIABLES = "local_variables"
    QUEUE_RUNNERS = "queue_runners"
    INIT_OP = "init_op"
    SAVERS = "savers"


class Operation:
    """A node in the dataflow graph.

    Attributes:
        graph: owning :class:`Graph`, or ``None`` once it is freed: an op
            refers to its graph weakly (the graph owns its ops), so a
            dropped graph dies by reference count.
        name: unique name within the graph.
        type: op type string (e.g. ``"MatMul"``); selects the kernel.
        inputs: data-input tensors.
        control_inputs: ops that must run before this one.
        device: (possibly partial) device specification string.
        attrs: static attributes consumed by the kernel.
        outputs: produced tensors.
        inferred_at: the graph's ``spec_epoch`` when ``create_op``
            derived ``outputs``' specs from the op type's shape function;
            ``None`` when the caller supplied them.
    """

    __slots__ = (
        "_graph_ref",
        "name",
        "type",
        "inputs",
        "control_inputs",
        "device",
        "attrs",
        "outputs",
        "node_id",
        "inferred_at",
    )

    def __init__(
        self,
        graph: "Graph",
        name: str,
        op_type: str,
        inputs: Sequence[Tensor],
        control_inputs: Sequence["Operation"],
        device: str,
        attrs: dict[str, Any],
        output_specs: Sequence[tuple[dtypes.DType, TensorShape]],
        node_id: int,
        inferred_at: Optional[int] = None,
    ):
        self._graph_ref = graph._ref
        self.name = name
        self.type = op_type
        self.inputs = tuple(inputs)
        self.control_inputs = tuple(control_inputs)
        self.device = device
        self.attrs = dict(attrs)
        self.node_id = node_id
        self.inferred_at = inferred_at
        self.outputs = tuple(
            Tensor(self, i, dt, shape) for i, (dt, shape) in enumerate(output_specs)
        )

    @property
    def graph(self):
        return self._graph_ref()

    def get_attr(self, key: str, default: Any = None) -> Any:
        return self.attrs.get(key, default)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    def __repr__(self) -> str:
        return f"<Operation {self.name!r} type={self.type} device={self.device!r}>"

    __hash__ = object.__hash__


class Graph:
    """A dataflow graph plus its construction-time context stacks.

    The graph owns its ops; an op and its tensors refer to it weakly
    (``Operation.graph`` is ``None`` once it is freed). Whatever must
    keep a graph alive holds it itself: a Session, an ExecutionPlan, or
    a ``with graph.as_default():`` block.
    """

    def __init__(self, seed: Optional[int] = None):
        # The one weak reference every op of this graph holds.
        self._ref = weakref.ref(self)
        self._nodes: dict[str, Operation] = {}
        self._node_order: list[Operation] = []
        self._names_in_use: dict[str, int] = {}
        self._name_stack: str = ""
        self._device_stack: list[str] = []
        self._control_dep_stack: list[tuple[Operation, ...]] = []
        self._collections: dict[str, list] = {}
        self._finalized = False
        self._next_id = 0
        self.seed = seed
        # Monotonic version, bumped on each added op and each
        # ``Tensor.set_shape`` refinement; lets sessions detect graph
        # changes between runs.
        self.version = 0
        # Bumped by each ``Tensor.set_shape`` refinement only: an op
        # inferred at the current epoch (``Operation.inferred_at``) holds
        # exactly what its shape function returns for its inputs' specs.
        self.spec_epoch = 0

    # -- default-graph management -------------------------------------------
    def as_default(self):
        return _default_graph_stack.get_controller(self)

    # -- scopes ---------------------------------------------------------------
    @contextlib.contextmanager
    def device(self, device_spec: Optional[str]):
        """Pin ops created in this scope to ``device_spec``.

        ``None`` clears the device for the scope (TF semantics).
        """
        self._device_stack.append(device_spec if device_spec is not None else "")
        try:
            yield
        finally:
            self._device_stack.pop()

    @contextlib.contextmanager
    def name_scope(self, name: str):
        if not name:
            raise InvalidArgumentError("name_scope requires a non-empty name")
        old = self._name_stack
        scoped = f"{old}/{name}" if old else name
        # Uniquify the scope itself so two identical with-blocks don't
        # collide. The candidate is already fully qualified, so bypass the
        # prefix logic of unique_name.
        count = self._names_in_use.get(scoped, 0)
        self._names_in_use[scoped] = count + 1
        if count:
            while f"{scoped}_{count}" in self._names_in_use:
                count += 1
            scoped = f"{scoped}_{count}"
            self._names_in_use[scoped] = 1
        self._name_stack = scoped
        try:
            yield scoped + "/"
        finally:
            self._name_stack = old

    @contextlib.contextmanager
    def control_dependencies(self, ops: Iterable[Any]):
        deps = []
        for item in ops:
            if isinstance(item, Tensor):
                deps.append(item.op)
            elif isinstance(item, Operation):
                deps.append(item)
            else:
                raise InvalidArgumentError(
                    f"control_dependencies expects ops/tensors, got {item!r}"
                )
        self._control_dep_stack.append(tuple(deps))
        try:
            yield
        finally:
            self._control_dep_stack.pop()

    @property
    def current_device(self) -> str:
        for spec in reversed(self._device_stack):
            return spec
        return ""

    # -- naming ----------------------------------------------------------------
    def unique_name(self, base: str, mark_as_used: bool = True) -> str:
        full = f"{self._name_stack}/{base}" if self._name_stack else base
        count = self._names_in_use.get(full, 0)
        if mark_as_used:
            self._names_in_use[full] = count + 1
        if count == 0:
            return full
        # Find the next free suffixed name.
        while f"{full}_{count}" in self._names_in_use:
            count += 1
        name = f"{full}_{count}"
        if mark_as_used:
            self._names_in_use[name] = 1
        return name

    # -- op construction ---------------------------------------------------------
    def create_op(
        self,
        op_type: str,
        inputs: Sequence[Tensor],
        output_specs: Optional[Sequence[tuple[dtypes.DType, Any]]] = None,
        attrs: Optional[dict[str, Any]] = None,
        name: Optional[str] = None,
        device: Optional[str] = None,
    ) -> Operation:
        """Add an operation to the graph and return it.

        Without ``output_specs`` the op type's registered shape function
        derives them from ``inputs`` and ``attrs`` (and rejects an invalid
        application with :class:`InvalidArgumentError`). Op types that
        have none — placeholders, variables, queues, datasets, tile I/O —
        are their own spec authority and must pass ``output_specs``.
        """
        if self._finalized:
            raise FailedPreconditionError(
                "Graph is finalized and cannot be modified"
            )
        for tensor in inputs:
            if not isinstance(tensor, Tensor):
                raise InvalidArgumentError(
                    f"Graph inputs must be Tensors, got {tensor!r} "
                    f"(use ops.constant to wrap python values)"
                )
            if tensor.op._graph_ref is not self._ref:
                raise InvalidArgumentError(
                    f"Input {tensor.name} belongs to a different graph"
                )
        attrs = attrs or {}
        inferred_at = None
        if output_specs is None:
            definition = op_def(op_type)
            if definition.shape_fn is None:
                raise InvalidArgumentError(
                    f"{op_type} has no shape function; pass output_specs"
                )
            output_specs = definition.output_specs(inputs, attrs)
            inferred_at = self.spec_epoch
        op_name = self.unique_name(name or op_type)
        if device is None:
            device = self.current_device
        control_inputs: list[Operation] = []
        seen: set[int] = set()
        for frame in self._control_dep_stack:
            for dep in frame:
                if id(dep) not in seen:
                    seen.add(id(dep))
                    control_inputs.append(dep)
        specs = [(dtypes.as_dtype(dt), as_shape(shape)) for dt, shape in output_specs]
        op = Operation(
            graph=self,
            name=op_name,
            op_type=op_type,
            inputs=inputs,
            control_inputs=control_inputs,
            device=device,
            attrs=attrs,
            output_specs=specs,
            node_id=self._next_id,
            inferred_at=inferred_at,
        )
        self._next_id += 1
        self._nodes[op_name] = op
        self._node_order.append(op)
        self.version += 1
        return op

    # -- lookup -----------------------------------------------------------------
    @property
    def operations(self) -> list[Operation]:
        return list(self._node_order)

    def get_operation_by_name(self, name: str) -> Operation:
        try:
            return self._nodes[name]
        except KeyError:
            raise NotFoundError(f"No operation named {name!r} in graph") from None

    def contains(self, op: Operation) -> bool:
        """Whether ``op`` is the operation this graph registers under its
        name (not a dropped op or one of another graph)."""
        return self._nodes.get(op.name) is op

    def get_tensor_by_name(self, name: str) -> Tensor:
        if ":" not in name:
            raise InvalidArgumentError(
                f"Tensor names have the form 'op:index', got {name!r}"
            )
        op_name, _, index_str = name.rpartition(":")
        op = self.get_operation_by_name(op_name)
        try:
            index = int(index_str)
        except ValueError:
            raise InvalidArgumentError(f"Bad tensor index in {name!r}") from None
        if not 0 <= index < len(op.outputs):
            raise InvalidArgumentError(
                f"Operation {op_name!r} has {len(op.outputs)} outputs; "
                f"index {index} is out of range"
            )
        return op.outputs[index]

    # -- collections ----------------------------------------------------------
    def add_to_collection(self, key: str, value: Any) -> None:
        self._collections.setdefault(key, []).append(value)

    def get_collection(self, key: str) -> list:
        return list(self._collections.get(key, []))

    # -- lifecycle ---------------------------------------------------------------
    def finalize(self) -> None:
        """Freeze the graph; further op creation raises."""
        self._finalized = True

    @property
    def finalized(self) -> bool:
        return self._finalized

    def __repr__(self) -> str:
        return f"<Graph with {len(self._node_order)} operations>"

    def __del__(self) -> None:
        # An op's tensors name it back (``Tensor.op``): unlinking them
        # frees every op/tensor pair by reference count. A tensor kept
        # past its graph still names its op; the op has no outputs left.
        for op in self._node_order:
            op.outputs = ()


class _DefaultGraphStack(threading.local):
    """Thread-local stack of default graphs (mirrors TF's graph stack)."""

    def __init__(self):
        self.stack: list[Graph] = []
        self.global_default: Optional[Graph] = None

    @contextlib.contextmanager
    def get_controller(self, graph: Graph):
        self.stack.append(graph)
        try:
            yield graph
        finally:
            self.stack.pop()

    def get_default(self) -> Graph:
        if self.stack:
            return self.stack[-1]
        if self.global_default is None:
            self.global_default = Graph()
        return self.global_default

    def reset(self) -> None:
        if self.stack:
            raise FailedPreconditionError(
                "Cannot reset the default graph inside an as_default() scope"
            )
        self.global_default = Graph()


_default_graph_stack = _DefaultGraphStack()


def get_default_graph() -> Graph:
    """The innermost graph made default via ``as_default()`` (or the global)."""
    return _default_graph_stack.get_default()


def reset_default_graph() -> None:
    """Replace the global default graph with a fresh one."""
    _default_graph_stack.reset()


def device(device_spec: Optional[str]):
    """Pin ops created in this scope to ``device_spec``.

    Module-level form of :meth:`Graph.device` targeting the *current*
    default graph — inside a ``@repro.function`` trace that is the
    function's graph, so imperative code annotates placement the same
    way hand-built graph code does::

        with repro.device("/job:worker/task:0/device:gpu:0"):
            q = repro.matmul(a, p)
    """
    return get_default_graph().device(device_spec)


def convert_to_tensor(value: Any, dtype=None, name: str = "Const", graph: Optional[Graph] = None) -> Tensor:
    """Wrap python values / ndarrays as constant tensors; pass Tensors through."""
    if isinstance(value, Tensor):
        if dtype is not None and value.dtype != dtypes.as_dtype(dtype):
            from repro.core.ops import math_ops

            return math_ops.cast(value, dtype)
        return value
    from repro.core.ops import array_ops

    arr = np.asarray(value)
    if dtype is not None:
        arr = arr.astype(dtypes.as_dtype(dtype).np_dtype)
    elif arr.dtype == np.float64 and not isinstance(value, np.ndarray):
        # Python floats default to float32, matching TF's literal handling.
        arr = arr.astype(np.float32)
    elif arr.dtype == np.int64 and not isinstance(value, np.ndarray):
        arr = arr.astype(np.int32)
    return array_ops.constant(arr, name=name, graph=graph)
