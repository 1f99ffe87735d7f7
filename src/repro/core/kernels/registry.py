"""Op registry, cost accounting, and per-task runtime state.

One :class:`OpDef` per op type — kernel, device support, flags, shape
function, generation contract, gradient — in one table. A *kernel*
implements one op type. Its signature is::

    kernel(op, inputs, ctx) -> (outputs, Cost)

where ``inputs``/``outputs`` are lists of runtime values (ndarrays or
:class:`~repro.core.tensor.SymbolicValue`). A kernel may instead be a
*generator* that yields DES events (for blocking ops such as queue dequeue
or file I/O) and finally returns the same ``(outputs, Cost)`` pair.

The :class:`Cost` describes the work done; the executing device model
converts it to simulated time. Kernels never sleep on their own except by
yielding events.
"""

from __future__ import annotations

import contextlib
import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Optional, Sequence

from repro.errors import NotFoundError, UnimplementedError

if TYPE_CHECKING:
    from repro.core.tensor import Tensor, TensorShape
    from repro.dtypes import DType

__all__ = [
    "Cost",
    "KernelContext",
    "OpDef",
    "ResourceManager",
    "ShapeFn",
    "register_kernel",
    "op_def",
    "get_kernel",
    "registered_op_types",
    "is_pure",
    "override_kernel",
]

# (dtype, shape) per output, from the op's inputs and static attributes.
ShapeFn = Callable[
    [Sequence["Tensor"], Mapping[str, Any]],
    "list[tuple[DType, TensorShape]]",
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

    @staticmethod
    def none() -> "Cost":
        return Cost(kind="none")

    @staticmethod
    def sync() -> "Cost":
        return Cost(kind="sync")


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
        kernel: the implementation (swapped by :func:`override_kernel`).
        devices: device types with an implementation.
        pure, stateful, graph_only, inline: see :func:`register_kernel`.
        shape_fn: ``shape_fn(inputs, attrs)`` returns one
            ``(dtype, shape)`` pair per output, or raises
            :class:`~repro.errors.InvalidArgumentError` when inputs and
            attrs do not describe a valid application of the op. The
            builders (through ``Graph.create_op``) and the verifier run
            this same function. ``None`` for ops whose caller *is* the
            spec authority (``Placeholder``, ``VariableV2``, queues,
            datasets, tile I/O): they pass ``output_specs=`` explicitly.
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
    builder: str
    arity: Optional[tuple[int, int]]
    dtypes: Optional[tuple[str, ...]]
    shape_rule: Optional[str]
    gradient: Optional[Callable] = None


_OPS: dict[str, OpDef] = {}


def register_kernel(
    op_type: str,
    devices: tuple[str, ...] = ("cpu", "gpu"),
    *,
    builder: str,
    pure: bool = False,
    stateful: bool = False,
    graph_only: bool = False,
    inline: bool = False,
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
      never blocks, and always resolves to a zero-duration cost (kind
      "none"/"sync" with no device seconds): metadata ops, constants,
      variable reads. The executor dispatches these synchronously off its
      ready list (no calendar events) while still honouring device-FIFO
      order, so the flag is a promise about *cost*, not just purity.

    ``shape_fn``, ``builder`` and the generation fields (``arity``,
    ``dtypes``, ``shape_rule``) are described on :class:`OpDef`.
    """

    def wrap(fn: Callable) -> Callable:
        if op_type in _OPS:
            raise UnimplementedError(f"Duplicate kernel registration: {op_type}")
        is_generator = inspect.isgeneratorfunction(fn)
        if inline and (graph_only or is_generator):
            raise UnimplementedError(
                f"{op_type}: inline=True needs a non-blocking plain-function "
                f"kernel (generator/graph_only kernels advance the clock)"
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
            builder=builder,
            arity=arity,
            dtypes=dtypes,
            shape_rule=shape_rule,
        )
        return fn

    return wrap


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
    bug must look exactly like the op it impersonates.

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
