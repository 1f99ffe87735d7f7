"""Op registry, cost accounting, and per-task runtime state.

One :class:`OpDef` per op type — kernel, device support, flags, shape
function, cost, generation contract, gradient — in one table. The record,
not the kernel, states what an application of the op produces and what it
costs:

* ``shape_fn(specs, attrs)`` derives one ``(dtype, dims)`` pair per output
  from input *specs* — anything with ``.dtype`` and ``.shape``: the input
  :class:`~repro.core.tensor.Tensor` s when ``create_op`` builds the op and
  the verifier re-checks it, :class:`~repro.core.tensor.SymbolicValue` s
  when it runs;
* ``cost(in_specs, out_specs, attrs)`` prices one execution as a
  :class:`Cost`, which the executing device model converts to simulated
  seconds.

An op is priced at plan time where shapes are static. When every input
and output tensor of an op has a fully defined static shape,
``build_plan`` prices it once (:func:`static_price`): the outputs' specs
are the tensors' own — derived by ``create_op`` with the same
``shape_fn``, or declared by the caller of a ``kernel_spec`` op — and
``cost`` runs once. A run over static shapes then calls no shape function
and no cost function; constant folding prices what it folds the same way.
Every other execution — partially static shapes, eager — is priced by
the same function (:func:`price_of`) each time it runs.

A *kernel* computes values and nothing else. Its signature is::

    kernel(op, inputs, ctx) -> outputs

A kernel may instead be a *generator* that yields DES events (for blocking
ops such as queue dequeue or file I/O) and finally returns its outputs.
:func:`dispatch` is every kernel's one caller: it reads the op's price (or
derives it) and calls the kernel only when there are values to compute.
What a planned kernel returns must be exactly the price's specs, the ones
its priced consumers read; what an unplanned ``kernel_spec`` kernel
returns must be compatible with its declared static specs. Kernels never
sleep on their own except by yielding events.
"""

from __future__ import annotations

import contextlib
import inspect
from dataclasses import dataclass, field
from types import GeneratorType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generator,
    Iterator,
    Mapping,
    Optional,
    Sequence,
)

from repro.core.tensor import SymbolicValue, TensorShape, dims_of
from repro.errors import (
    InternalError,
    InvalidArgumentError,
    NotFoundError,
    UnimplementedError,
)

if TYPE_CHECKING:
    from repro.dtypes import DType

__all__ = [
    "Cost",
    "CostFn",
    "KernelContext",
    "OpDef",
    "Price",
    "ResourceManager",
    "ShapeFn",
    "dispatch",
    "price_of",
    "static_price",
    "register_kernel",
    "op_def",
    "get_kernel",
    "registered_op_types",
    "is_pure",
    "override_kernel",
    "total_nbytes",
    "no_cost",
    "memcpy_cost",
    "elementwise_cost",
    "reduction_cost",
]

# (dtype, dims) per output, from the inputs' specs and static attributes.
ShapeFn = Callable[
    [Sequence[Any], Mapping[str, Any]],
    "list[tuple[DType, Optional[Sequence[Optional[int]]]]]",
]


@dataclass
class Cost:
    """Resource demand of one kernel execution.

    Attributes:
        flops: floating point operations performed on the device.
        mem_bytes: device-memory bytes streamed (drives memory-bound ops).
        io_bytes: parallel-filesystem bytes moved (tile load/store).
        host_bytes: bytes processed by host Python/NumPy (merge loops); the
            paper shows these serial host phases dominating the FFT app.
        kind: "compute" | "memcpy" | "io" | "sync" | "none". "sync" ops do
            not occupy the device while they block.
    """

    flops: float = 0.0
    mem_bytes: float = 0.0
    io_bytes: float = 0.0
    host_bytes: float = 0.0
    kind: str = "compute"


# One execution's Cost from its input and output specs and static attrs.
CostFn = Callable[
    [Sequence[SymbolicValue], Sequence[SymbolicValue], Mapping[str, Any]],
    Cost,
]


# -- the shared cost shapes --------------------------------------------------

Specs = Sequence[SymbolicValue]


def total_nbytes(specs: Specs) -> int:
    """The specs' bytes, summed (a loop: twice as fast as ``sum`` over a
    generator, and every priced op pays it)."""
    n = 0
    for spec in specs:
        n += spec.nbytes
    return n


def no_cost(in_specs: Specs, out_specs: Specs, attrs: Mapping[str, Any]) -> Cost:
    """Zero simulated seconds: metadata, handles, reads of held values."""
    return Cost(kind="none")


def memcpy_cost(ins: int = 1, outs: int = 1) -> CostFn:
    """Bytes streamed: ``ins`` times the inputs' plus ``outs`` times the
    outputs'."""
    def cost(in_specs: Specs, out_specs: Specs, attrs: Mapping[str, Any]) -> Cost:
        nbytes = 0
        if ins:
            nbytes += ins * total_nbytes(in_specs)
        if outs:
            nbytes += outs * total_nbytes(out_specs)
        return Cost(mem_bytes=nbytes, kind="memcpy")

    return cost


def elementwise_cost(flops_per_element: float = 1.0) -> CostFn:
    """``flops_per_element`` per output element; every operand read and the
    output written once."""
    def cost(in_specs: Specs, out_specs: Specs, attrs: Mapping[str, Any]) -> Cost:
        (out,) = out_specs
        return Cost(flops=flops_per_element * out.size,
                    mem_bytes=total_nbytes(in_specs) + out.nbytes,
                    kind="compute")

    return cost


def reduction_cost(in_specs: Specs, out_specs: Specs,
                   attrs: Mapping[str, Any]) -> Cost:
    """One flop per input element; the input streamed once."""
    (x,) = in_specs
    return Cost(flops=1.0 * x.size, mem_bytes=x.nbytes, kind="compute")


class ResourceManager:
    """Stateful resources owned by one task (server): variables, queues,
    dataset iterators, and saved RNG lanes.

    In TensorFlow these live in the C++ runtime's per-worker resource
    manager, which is why variables placed on a parameter server persist
    across sessions — the same semantics apply here.
    """

    def __init__(self, name: str = "local"):
        self.name = name
        self.variables: dict[str, Any] = {}
        self.queues: dict[str, Any] = {}
        self.iterators: dict[str, Any] = {}
        self.rng_counters: dict[str, int] = {}

    def next_rng_counter(self, op_name: str) -> int:
        value = self.rng_counters.get(op_name, 0)
        self.rng_counters[op_name] = value + 1
        return value

    def clear(self) -> None:
        self.variables.clear()
        self.queues.clear()
        self.iterators.clear()
        self.rng_counters.clear()


@dataclass
class KernelContext:
    """Everything a kernel may need at execution time."""

    symbolic: bool = False
    feeds: dict[str, Any] = field(default_factory=dict)
    resources: ResourceManager = field(default_factory=ResourceManager)
    env: Any = None  # simnet Environment, None in pure-eager unit tests
    device: Any = None  # simulated device executing the op
    worker: Any = None  # TaskRuntime: node/machine access for io kernels
    graph_seed: Optional[int] = None

    def filesystem(self) -> Any:
        """The simulated parallel filesystem, if a machine is attached."""
        if self.worker is not None and getattr(self.worker, "node", None) is not None:
            return self.worker.node.machine.filesystem
        return None


@dataclass
class OpDef:
    """Everything the system knows about one op type, registered once.

    Filled by :func:`register_kernel` next to the kernel; every other
    layer — ``Graph.create_op``, the graph verifier, placement, the
    optimizer, the executor, the tracing frontend, autodiff and the fuzz
    catalog — queries this record instead of keeping a table of its own.

    Attributes:
        op_type: the graph op type the record describes.
        kernel: ``kernel(op, inputs, ctx) -> outputs``, values only
            (swapped by :func:`override_kernel`).
        devices: device types with an implementation.
        pure, stateful, graph_only, inline: see :func:`register_kernel`.
        shape_fn: ``shape_fn(specs, attrs)`` returns one ``(dtype, dims)``
            pair per output, or raises
            :class:`~repro.errors.InvalidArgumentError` when the inputs'
            specs and attrs do not describe a valid application of the op.
            ``create_op`` runs it on the input tensors and the verifier
            again on a built op — one rule and one message
            (:meth:`output_specs`) in every mode. Where the op's tensors
            are fully static that is the last time it runs: the plan
            holds the price (:func:`static_price`). Otherwise
            :func:`dispatch` runs it on every execution, over the run-time
            values' specs. ``None`` only for ``kernel_spec`` ops whose
            caller is the spec authority (``Placeholder``, ``VariableV2``,
            queues, iterators, tile I/O): they pass ``output_specs=``
            explicitly.
        cost: ``cost(in_specs, out_specs, attrs)`` prices one execution
            from :class:`SymbolicValue` specs — once per plan where shapes
            are static, on every execution otherwise (:func:`price_of`).
        kernel_spec: the kernel runs in every mode, shape-only included,
            and its outputs are their own specs. Only these kernels may
            meet a :class:`SymbolicValue`: their outputs come from data (a
            feed, a constant's array, the variable store, a queue, an
            iterator, a tile file), they act on state a shape-only run must
            still change (assign, enqueue, close, tile write), or — the
            collectives — their one value function
            (:func:`repro.runtime.collective.collective_values`) checks
            every rank at run time in every lane. What the kernel delivers
            must be compatible with the op's declared static specs —
            exactly them where they are fully static, as the plan priced
            the op from them — or :func:`dispatch` raises
            ``InvalidArgumentError``: a priced consumer reads the declared
            spec, not the value's.
        builder: name of the flat-namespace builder
            (``repro.core.ops.__all__``) that constructs the op.
        arity: ``(min, max)`` count of *tensor* inputs the builder
            accepts; ``max`` is a practical cap for generation, not a
            builder limit (``add_n`` takes any number).
        dtypes: input element-type names the kernel supports bit-exactly
            (subset of ``{"float32", "float64", "int32", "bool",
            "complex128"}``).
        shape_rule: how output shapes relate to input shapes — the
            dispatch key a generator uses to sample valid input shapes
            and static attributes (``"source"``, ``"unary_same"``,
            ``"elementwise_broadcast"``, ``"same_shape_n"``,
            ``"matmul"``, ``"dot"``, ``"reduce"``, ``"cast"``,
            ``"reshape"``, ``"transpose"``, ``"concat"``, ``"split"``,
            ``"stack"``, ``"squeeze"``, ``"expand_dims"``, ``"slice"``,
            ``"variable_update"``, ``"collective"``). ``None`` (with
            ``arity``/``dtypes``) for ops nothing generates.
        gradient: ``grad_fn(op, grad)`` written by
            :class:`repro.RegisterGradient`, or ``None``.
    """

    op_type: str
    kernel: Callable
    devices: tuple[str, ...]
    pure: bool
    stateful: bool
    graph_only: bool
    inline: bool
    shape_fn: Optional[ShapeFn]
    cost: CostFn
    kernel_spec: bool
    builder: str
    arity: Optional[tuple[int, int]]
    dtypes: Optional[tuple[str, ...]]
    shape_rule: Optional[str]
    gradient: Optional[Callable] = None

    def output_specs(self, specs: Sequence[Any], attrs: Mapping[str, Any],
                     name: Optional[str] = None) -> list:
        """``shape_fn(specs, attrs)``. A rejection names the op type, its
        operand shapes and the reason — the same text at build, verify and
        run time; at run time ``name`` tags the op as well."""
        try:
            return self.shape_fn(specs, attrs)  # type: ignore[misc]
        except InvalidArgumentError as exc:
            shapes = ", ".join(str(TensorShape(dims_of(s))) for s in specs)
            raise InvalidArgumentError(
                f"{self.op_type} operand shapes [{shapes}]: {exc.message}",
                node_def=name,
            ) from None


_OPS: dict[str, OpDef] = {}


def register_kernel(
    op_type: str,
    devices: tuple[str, ...] = ("cpu", "gpu"),
    *,
    builder: str,
    cost: Optional[CostFn] = None,
    pure: bool = False,
    stateful: bool = False,
    graph_only: bool = False,
    inline: bool = False,
    kernel_spec: bool = False,
    shape_fn: Optional[ShapeFn] = None,
    arity: Optional[tuple[int, int]] = None,
    dtypes: Optional[tuple[str, ...]] = None,
    shape_rule: Optional[str] = None,
) -> Callable[[Callable], Callable]:
    """Class/function decorator registering ``op_type``'s :class:`OpDef`.

    ``devices`` lists device types with an implementation; placement uses
    it for soft-placement decisions (ops with CPU-only kernels fall back to
    the host, mirroring TF soft device placement).

    The flags make the registry the single source of op metadata,
    consumed across layers instead of per-module allowlists:

    * ``pure`` — the kernel is a pure function of its inputs and static
      attributes (no resources, RNG lanes, queues, I/O, or sim-time side
      effects). Only pure ops may be constant-folded or CSE-merged by the
      plan-time optimizer.
    * ``stateful`` — executing the kernel mutates task state (variable
      writes, queue traffic, file writes). The tracing frontend fetches
      unconsumed stateful ops so traced side effects are not pruned.
    * ``graph_only`` — the op only makes sense under a Session (it blocks
      on simulated runtime events or manages runtime resources). Kernels
      written as generators are graph-only implicitly; this flag marks the
      non-generator stragglers (queue bookkeeping, iterators).
    * ``inline`` — the kernel is a plain function that never yields,
      never blocks, and costs nothing (``cost=no_cost``): metadata ops,
      constants, variable reads. The executor dispatches these
      synchronously off its ready list (no calendar events) while still
      honouring device-FIFO order, so the flag is a promise about *cost*,
      not just purity.

    ``cost`` is required; ``shape_fn`` is required unless ``kernel_spec``.
    They, ``kernel_spec``, ``builder`` and the generation fields
    (``arity``, ``dtypes``, ``shape_rule``) are described on
    :class:`OpDef`.
    """

    def wrap(fn: Callable) -> Callable:
        if op_type in _OPS:
            raise UnimplementedError(f"Duplicate kernel registration: {op_type}")
        if cost is None or (shape_fn is None and not kernel_spec):
            raise UnimplementedError(
                f"{op_type}: register a cost, and a shape_fn unless the "
                f"kernel decides its specs (kernel_spec=True)"
            )
        is_generator = inspect.isgeneratorfunction(fn)
        if inline and (graph_only or is_generator or cost is not no_cost):
            raise UnimplementedError(
                f"{op_type}: inline=True needs a non-blocking plain-function "
                f"kernel that costs nothing (generator/graph_only kernels "
                f"and priced ops advance the clock)"
            )
        _OPS[op_type] = OpDef(
            op_type=op_type,
            kernel=fn,
            devices=tuple(devices),
            pure=pure,
            stateful=stateful,
            graph_only=graph_only or is_generator,
            inline=inline,
            shape_fn=shape_fn,
            cost=cost,
            kernel_spec=kernel_spec,
            builder=builder,
            arity=arity,
            dtypes=dtypes,
            shape_rule=shape_rule,
        )
        return fn

    return wrap


# An op item's price: its outputs' specs and the Cost of one execution.
Price = tuple[list[SymbolicValue], Cost]


def price_of(definition: OpDef, in_specs: Specs,
             out_dims: Sequence[tuple[Any, Sequence[int]]],
             attrs: Mapping[str, Any]) -> Price:
    """The outputs' specs from their ``(dtype, dims)`` pairs, and the Cost
    of one execution. The one pricing function: :func:`static_price` calls
    it once per statically shaped op when the plan is built, :func:`dispatch`
    on every execution of any other op its record describes."""
    out_specs = [SymbolicValue.derived(dims, dtype) for dtype, dims in out_dims]
    return out_specs, definition.cost(in_specs, out_specs, attrs)


def static_price(op: Any) -> Optional[Price]:
    """``op``'s price from its tensors' static specs, or ``None`` when every
    run must derive it: some input or output shape is not fully defined.

    ``create_op`` derived the output specs with the op's ``shape_fn`` over
    these very input shapes — or, for a ``kernel_spec`` op, its caller
    declared them — and a run's values have exactly their tensors' static
    specs (feeds are validated, :func:`dispatch` checks every kernel's
    outputs against the price), so this is the price the run-time path
    would compute on every execution, bit for bit.
    """
    definition = _OPS[op.type]
    in_specs: list[SymbolicValue] = []
    for tensor in op.inputs:
        dims = tensor.shape.dims
        if dims is None or None in dims:
            return None
        in_specs.append(SymbolicValue.derived(dims, tensor.dtype))
    out_dims: list[tuple[Any, Sequence[int]]] = []
    for tensor in op.outputs:
        dims = tensor.shape.dims
        if dims is None or None in dims:
            return None
        out_dims.append((tensor.dtype, dims))
    return price_of(definition, in_specs, out_dims, op.attrs)


def dispatch(op: Any, inputs: list, ctx: KernelContext,
             price: Optional[Price] = None) -> Any:
    """Run ``op`` on ``inputs``: ``(outputs, Cost)``, or — for a blocking
    kernel — a generator that returns them.

    The one caller of every kernel (both executors, the eager interpreter
    and constant folding). ``price`` is the plan's price for an op item
    whose tensors are all fully static (``Item.price``): the run calls no
    shape or cost function, and the kernel's outputs must be exactly the
    price's specs (:func:`_checked`). Without one the op's record derives
    the price here — ``shape_fn`` over the inputs' specs, then ``cost`` —
    or, for a ``kernel_spec`` op, prices its outputs once its kernel
    returned them (:func:`_declared`). A kernel is called only when there
    are values to compute: every input is concrete, or — for a source —
    the run is. Otherwise the outputs *are* the specs (a fresh list), so a
    shape-only run never calls such a kernel. A ``kernel_spec`` op's
    kernel always runs.
    """
    definition = _OPS[op.type]
    if price is not None:
        if not definition.kernel_spec and (
                SymbolicValue in map(type, inputs) if inputs else ctx.symbolic):
            out_specs, cost = price
            return list(out_specs), cost
        outputs = definition.kernel(op, inputs, ctx)
        if isinstance(outputs, GeneratorType):
            return _settled_later(outputs, _checked, op, definition, price)
        return _checked(op, definition, price, outputs)
    in_specs = [SymbolicValue.of(v) for v in inputs]
    if definition.kernel_spec:
        outputs = definition.kernel(op, inputs, ctx)
        if isinstance(outputs, GeneratorType):
            return _settled_later(outputs, _declared, op, definition, in_specs)
        return _declared(op, definition, in_specs, outputs)
    attrs = op.attrs
    out_specs, cost = price_of(
        definition, in_specs, definition.output_specs(in_specs, attrs, op.name),
        attrs)
    if SymbolicValue in map(type, inputs) if inputs else ctx.symbolic:
        return out_specs, cost
    outputs = definition.kernel(op, inputs, ctx)
    if isinstance(outputs, GeneratorType):
        return _settled_later(outputs, lambda values: (values, cost))
    return outputs, cost


def _checked(op: Any, definition: OpDef, price: Price,
             outputs: list) -> tuple[list, Cost]:
    """A planned op's outputs with its Cost, once each was found to be
    exactly the spec the price states — the spec every priced consumer
    reads. For an op its record describes, a contradiction is a wrong
    kernel: an ``InternalError`` here, not a wrong spec downstream. For a
    ``kernel_spec`` op the specs are its caller's declaration, and data
    that contradicts it is an ``InvalidArgumentError``."""
    out_specs, cost = price
    if len(outputs) != len(out_specs):
        raise _contradiction(op, definition, outputs, out_specs)
    for value, spec in zip(outputs, out_specs):
        # NumPy hands out one dtype object per lane width, and specs hold
        # the seven DType singletons: ``is`` decides all but a
        # contradiction.
        dtype = value.dtype
        if value.shape != spec.shape or (
                dtype is not spec.dtype.np_dtype
                and dtype is not spec.dtype
                and dtype != spec.dtype.np_dtype):
            raise _contradiction(op, definition, outputs, out_specs)
    return outputs, cost


def _declared(op: Any, definition: OpDef, in_specs: Specs,
              outputs: list) -> tuple[list, Cost]:
    """An unplanned ``kernel_spec`` op's outputs, priced from their own
    specs once each was found compatible with the op's declared static
    spec (some declared dim is unknown, or the caller is eager)."""
    out_specs = [SymbolicValue.of(v) for v in outputs]
    for tensor, spec in zip(op.outputs, out_specs):
        declared = tensor.shape
        if (spec.dtype is not tensor.dtype
                and spec.dtype != tensor.dtype) or (
                spec.shape != declared.dims
                and not declared.is_compatible_with(spec.shape)):
            raise _undeclared(op, out_specs)
    return outputs, definition.cost(in_specs, out_specs, op.attrs)


def _settled_later(gen: Generator, settle: Callable[..., tuple[list, Cost]],
                   *args: Any) -> Generator:
    """A blocking kernel's generator, returning ``settle(*args, outputs)``
    once the kernel returned its outputs."""
    outputs = yield from gen
    return settle(*args, outputs)


def _contradiction(op: Any, definition: OpDef, outputs: list,
                   out_specs: Specs) -> Exception:
    got = [SymbolicValue.of(v) for v in outputs]
    if definition.kernel_spec:
        return _undeclared(op, got)

    def describe(specs: Specs) -> str:
        return ", ".join(f"{s.dtype.name} {TensorShape(s.shape)}" for s in specs)

    return InternalError(
        f"{op.type} kernel returned [{describe(got)}]; its record states "
        f"[{describe(out_specs)}]",
        node_def=op.name,
    )


def _undeclared(op: Any, out_specs: Specs) -> InvalidArgumentError:
    for index, (tensor, spec) in enumerate(zip(op.outputs, out_specs)):
        if spec.dtype != tensor.dtype or not tensor.shape.is_compatible_with(
                spec.shape):
            return InvalidArgumentError(
                f"{op.type} delivered output {index} as {spec.dtype.name} "
                f"{TensorShape(spec.shape)}, incompatible with its declared "
                f"{tensor.dtype.name} {tensor.shape}",
                node_def=op.name,
            )
    return InvalidArgumentError(
        f"{op.type} delivered {len(out_specs)} outputs; it declares "
        f"{len(op.outputs)}",
        node_def=op.name,
    )


def op_def(op_type: str) -> OpDef:
    """The one record describing ``op_type``."""
    try:
        return _OPS[op_type]
    except KeyError:
        raise NotFoundError(f"No kernel registered for op type {op_type!r}") from None


def get_kernel(op_type: str) -> Callable:
    return op_def(op_type).kernel


def registered_op_types() -> tuple[str, ...]:
    """Every registered op type, sorted (drives coverage sweeps)."""
    return tuple(sorted(_OPS))


def is_pure(op_type: str) -> bool:
    """Whether the op is a pure function of inputs + static attributes."""
    definition = _OPS.get(op_type)
    return definition is not None and definition.pure


@contextlib.contextmanager
def override_kernel(op_type: str, fn: Callable) -> Iterator[Callable]:
    """Temporarily replace ``op_type``'s kernel (restores on exit).

    Test-only: the fuzz harness's planted-defect tests register a
    deliberately wrong kernel, prove the differential matrix catches it
    and the shrinker minimizes it, then restore the real kernel. Every
    other field of the :class:`OpDef` is left untouched — a planted
    bug must look exactly like the op it impersonates (its shape function
    and cost still describe the op, so the clock does not move).

    Caveat: plan-time constant folding memoizes folded values on the
    *graph object*, so a graph executed before the override can replay
    stale results under it. Build a fresh graph inside the override
    scope (the fuzz harness materializes one per cell run).
    """
    definition = op_def(op_type)
    original = definition.kernel
    definition.kernel = fn
    try:
        yield original
    finally:
        definition.kernel = original
