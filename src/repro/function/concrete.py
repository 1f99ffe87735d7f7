"""Concrete functions and the ``@repro.function`` decorator.

A :class:`TracedFunction` wraps a Python function. Each call signature
(argument dtypes + static shapes, or one pinned ``input_signature``)
is traced once into the function's graph; the resulting
:class:`ConcreteFunction` is cached and every later compatible call
dispatches through a lazily-created :class:`~repro.core.session.Session`
— so plan-time graph optimization, the session plan cache, RunMetadata
tracing and multi-job cluster placement all apply to code written in
plain imperative style.

Dispatch rules, in order:

1. **Inlining** — called while another trace is recording, or with
   symbolic :class:`~repro.core.tensor.Tensor` arguments during manual
   graph construction, the Python body runs directly and its ops land in
   the current default graph (no nested Session).
2. **Eager escape** — after ``run_functions_eagerly(True)``, calls
   evaluate immediately through the kernel registry (no simulator), the
   debugging workflow TF2 offers under the same name.
3. **Traced dispatch** — otherwise: look up / record the
   ConcreteFunction for the call signature and run it in the Session.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Optional

import numpy as np

from repro.core.graph import Graph
from repro.core.metadata import RunMetadata, RunOptions
from repro.core.session import Session, SessionConfig
from repro.core.tensor import Tensor
from repro.errors import InvalidArgumentError
from repro.function import tracing
from repro.function.tracing import TensorSpec, TraceResult

__all__ = [
    "ConcreteFunction",
    "TracedFunction",
    "function",
    "functions_run_eagerly",
    "run_functions_eagerly",
]

_RUN_EAGERLY = False


def run_functions_eagerly(enable: bool) -> None:
    """Globally force traced functions to execute eagerly (debugging)."""
    global _RUN_EAGERLY
    _RUN_EAGERLY = bool(enable)


def functions_run_eagerly() -> bool:
    return _RUN_EAGERLY


def _contains_symbolic(value: Any) -> bool:
    from repro.core.ops.state_ops import Variable

    if isinstance(value, (Tensor, Variable)):
        return True
    if isinstance(value, (list, tuple)):
        return any(_contains_symbolic(v) for v in value)
    if isinstance(value, dict):
        return any(_contains_symbolic(v) for v in value.values())
    return False


class _Shared:
    """What every trace of one ``@repro.function`` shares: the Python
    function and its signature, one graph, one lazily created Session and
    the trace-cache counters.

    The TracedFunction and each of its ConcreteFunctions hold this, and
    it holds neither of them. So no cycle runs through a traced function:
    one that is dropped frees its graph, plans, session and any machine
    the session built by reference count, and a ConcreteFunction still
    runs after its TracedFunction is gone.
    """

    def __init__(self, python_function: Callable, seed: Optional[int],
                 session_kwargs: dict):
        self.python_function = python_function
        # inspect.signature is costly; computed once, reused on the
        # per-call dispatch hot path.
        self.signature = inspect.signature(python_function)
        self.seed = seed
        self.session_kwargs = session_kwargs
        self.graph: Optional[Graph] = None
        self.session: Optional[Session] = None
        self.cache_hits = 0
        self.cache_misses = 0

    def ensure_graph(self) -> Graph:
        if self.graph is None:
            self.graph = Graph(seed=self.seed)
        return self.graph

    def ensure_session(self) -> Session:
        if self.session is None:
            self.session = Session(graph=self.ensure_graph(),
                                   **self.session_kwargs)
        return self.session

    def bind(self, args, kwargs):
        return tracing.bind_arguments(
            self.python_function, args, kwargs, signature=self.signature
        )

    def record_trace_stats(self, metadata: RunMetadata) -> None:
        metadata.trace_cache_hits = self.cache_hits
        metadata.trace_cache_misses = self.cache_misses


class ConcreteFunction:
    """One trace of a Python function, executable through a Session."""

    def __init__(self, shared: _Shared, key, result: TraceResult):
        self._shared = shared
        self._key = key
        self._result = result
        self._initialized = not result.variables

    # -- introspection ------------------------------------------------------
    @property
    def graph(self) -> Graph:
        return self._shared.ensure_graph()

    @property
    def inputs(self) -> list[Tensor]:
        """The placeholder tensors, in argument order."""
        return list(self._result.placeholders)

    @property
    def structured_outputs(self):
        return tracing.pack_outputs(
            self._result.structure, self._result.output_tensors
        )

    @property
    def name(self) -> str:
        return self._result.scope.rstrip("/")

    def __repr__(self) -> str:
        return (
            f"<ConcreteFunction {self.name!r} "
            f"inputs={[t.name for t in self._result.placeholders]}>"
        )

    # -- execution -----------------------------------------------------------
    def __call__(self, *args, options: Optional[RunOptions] = None,
                 run_metadata: Optional[RunMetadata] = None, **kwargs):
        entries = self._shared.bind(args, kwargs)
        leaves = [v for _, v in entries if tracing.is_tensor_like(v)]
        return self.call_flat(leaves, options=options, run_metadata=run_metadata)

    def call_flat(self, leaf_values, options: Optional[RunOptions] = None,
                  run_metadata: Optional[RunMetadata] = None):
        """Run with one concrete value per placeholder, repacking outputs."""
        result = self._result
        if len(leaf_values) != len(result.placeholders):
            raise InvalidArgumentError(
                f"{self!r} expects {len(result.placeholders)} tensor "
                f"arguments, got {len(leaf_values)}"
            )
        sess = self._shared.ensure_session()
        if not self._initialized:
            init_ops = [v.initializer for v in result.variables]
            sess.run(init_ops if len(init_ops) > 1 else init_ops[0])
            self._initialized = True
        feed = {
            ph.name: np.asarray(value, dtype=ph.dtype.np_dtype)
            for ph, value in zip(result.placeholders, leaf_values)
        }
        fetches = list(result.output_tensors) + list(result.side_effect_ops)
        if not fetches:
            return tracing.pack_outputs(result.structure, [])
        values = sess.run(
            fetches, feed_dict=feed, options=options, run_metadata=run_metadata
        )
        if len(fetches) == 1:
            values = [values]
        if run_metadata is not None:
            self._shared.record_trace_stats(run_metadata)
        return tracing.pack_outputs(
            result.structure, values[: len(result.output_tensors)]
        )


class TracedFunction:
    """The callable produced by ``@repro.function``.

    All traces share one graph and one lazily-created Session, so
    variables created on the first trace persist across calls and the
    session's plan cache serves repeat signatures.
    """

    def __init__(
        self,
        python_function: Callable,
        input_signature=None,
        name: Optional[str] = None,
        seed: Optional[int] = None,
        target=None,
        machine=None,
        env=None,
        config: Optional[SessionConfig] = None,
    ):
        raw = name or getattr(python_function, "__name__", "") or "traced_fn"
        self._name = "".join(
            c if c.isalnum() or c == "_" else "_" for c in raw
        ) or "traced_fn"
        if input_signature is not None:
            input_signature = list(input_signature)
            for spec in input_signature:
                if not isinstance(spec, TensorSpec):
                    raise InvalidArgumentError(
                        f"input_signature entries must be TensorSpec, got "
                        f"{type(spec).__name__}"
                    )
        self._input_signature = input_signature
        self._shared = _Shared(python_function, seed, dict(
            target=target, config=config, machine=machine, env=env))
        self._eager_context = None
        self._concrete: dict = {}
        self._trace_count = 0
        functools.update_wrapper(self, python_function)

    # -- introspection ---------------------------------------------------------
    @property
    def python_function(self) -> Callable:
        return self._shared.python_function

    @property
    def graph(self) -> Graph:
        return self._shared.ensure_graph()

    @property
    def session(self) -> Optional[Session]:
        """The dispatch Session, once the first traced call created it."""
        return self._shared.session

    @property
    def trace_count(self) -> int:
        """How many times the Python function has been recorded."""
        return self._trace_count

    @property
    def concrete_functions(self) -> list[ConcreteFunction]:
        return list(self._concrete.values())

    def cache_info(self) -> dict:
        """Trace-cache statistics for introspection and benchmarks."""
        return {
            "traces": self._trace_count,
            "hits": self._shared.cache_hits,
            "misses": self._shared.cache_misses,
            "size": len(self._concrete),
        }

    def __repr__(self) -> str:
        return (
            f"<TracedFunction {self._name!r} traces={self._trace_count}>"
        )

    # -- internals ------------------------------------------------------------
    def _signature_key(self, entries) -> tuple:
        if self._input_signature is not None:
            leaves = [(n, v) for n, v in entries if tracing.is_tensor_like(v)]
            statics = [n for n, v in entries if not tracing.is_tensor_like(v)]
            if statics:
                raise InvalidArgumentError(
                    f"input_signature covers tensor arguments only; "
                    f"{statics} are not tensor-like"
                )
            if len(leaves) != len(self._input_signature):
                raise InvalidArgumentError(
                    f"{self._name} pins {len(self._input_signature)} "
                    f"arguments via input_signature, got {len(leaves)}"
                )
            for (pname, value), spec in zip(leaves, self._input_signature):
                if not spec.is_compatible_with(value):
                    raise InvalidArgumentError(
                        f"Argument {pname!r} is incompatible with "
                        f"input_signature spec {spec!r}"
                    )
            return ("signature",)
        return tuple(tracing.leaf_key(n, v) for n, v in entries)

    def _lookup_or_trace(self, args, kwargs, count_stats: bool):
        shared = self._shared
        entries = shared.bind(args, kwargs)
        key = self._signature_key(entries)
        concrete = self._concrete.get(key)
        if concrete is not None:
            if count_stats:
                shared.cache_hits += 1
            return concrete, entries
        if count_stats:
            shared.cache_misses += 1
        result = tracing.trace(
            shared.python_function,
            shared.ensure_graph(),
            self._name,
            args,
            kwargs,
            entries=entries,
            specs=self._input_signature,
            owner=self,
            signature=shared.signature,
        )
        self._trace_count += 1
        concrete = ConcreteFunction(shared, key, result)
        self._concrete[key] = concrete
        return concrete, entries

    def _call_eagerly(self, args, kwargs, run_metadata=None):
        """Trace into a throwaway graph and interpret it immediately."""
        from repro import eager

        shared = self._shared
        if self._eager_context is None:
            self._eager_context = eager.EagerContext(seed=shared.seed)
        ctx = self._eager_context
        graph = Graph(seed=shared.seed)
        entries = shared.bind(args, kwargs)
        result = tracing.trace(
            shared.python_function, graph, self._name, args, kwargs,
            entries=entries, specs=self._input_signature, owner=self,
            signature=shared.signature,
        )
        leaves = [v for _, v in entries if tracing.is_tensor_like(v)]
        feeds = {
            ph.name: np.asarray(value, dtype=ph.dtype.np_dtype)
            for ph, value in zip(result.placeholders, leaves)
        }
        kernel_ctx = ctx._kernel_ctx(feeds)
        # Variable names are stable across eager re-traces (fresh graph,
        # same scope), so state persists in the context's resources and
        # initializers only run for genuinely new variables — matching
        # the traced mode's initialize-once semantics.
        init_ops = [
            v.initializer
            for v in result.variables
            if v.name not in ctx._resources.variables
        ]
        if init_ops:
            eager.evaluate(init_ops, feeds, kernel_ctx)
        fetches = list(result.output_tensors) + list(result.side_effect_ops)
        values = eager.evaluate(fetches, feeds, kernel_ctx)
        if run_metadata is not None:
            shared.record_trace_stats(run_metadata)
        return tracing.pack_outputs(
            result.structure, values[: len(result.output_tensors)]
        )

    # -- the call --------------------------------------------------------------
    def __call__(self, *args, **kwargs):
        """Dispatch one call (see the module docstring for the rules).

        ``options=``/``run_metadata=`` are reserved keywords forwarded to
        the Session run (so the wrapped function cannot use those
        parameter names itself). The inline path records no metadata —
        the *enclosing* trace's run carries it; the eager escape fills
        the trace-cache counters only (there is no simulated run).
        """
        options = kwargs.pop("options", None)
        run_metadata = kwargs.pop("run_metadata", None)
        if tracing.is_tracing() or _contains_symbolic(args) or _contains_symbolic(kwargs):
            # Inline: ops land in the graph currently under construction.
            return self._shared.python_function(*args, **kwargs)
        if _RUN_EAGERLY:
            return self._call_eagerly(args, kwargs, run_metadata=run_metadata)
        concrete, entries = self._lookup_or_trace(args, kwargs, count_stats=True)
        if run_metadata is not None:
            self._shared.record_trace_stats(run_metadata)
        leaves = [v for _, v in entries if tracing.is_tensor_like(v)]
        return concrete.call_flat(
            leaves, options=options, run_metadata=run_metadata
        )

    def get_concrete_function(self, *args, **kwargs) -> ConcreteFunction:
        """The ConcreteFunction for this signature, tracing if needed.

        Accepts example values or :class:`TensorSpec`s positionally, like
        ``tf.function``'s method of the same name.
        """
        concrete, _ = self._lookup_or_trace(args, kwargs, count_stats=False)
        return concrete


def function(
    fn: Optional[Callable] = None,
    *,
    input_signature=None,
    name: Optional[str] = None,
    seed: Optional[int] = None,
    target=None,
    machine=None,
    env=None,
    config: Optional[SessionConfig] = None,
):
    """Compile a Python function into a traced, Session-dispatched callable.

    Usable bare (``@repro.function``) or parameterized
    (``@repro.function(input_signature=[...], target=server)``).

    Each distinct call signature (argument dtypes + static shapes) is
    traced exactly once: tensor-like arguments become placeholders,
    ``with repro.device(...)`` blocks annotate placement, ``Variable``\\ s
    created during the trace persist across calls (their initializers
    run lazily before the first step, never per call), and unconsumed
    stateful ops — assignments, queue traffic, ``gradients``-built
    update chains — are auto-fetched so traced side effects survive
    pruning. Repeat calls dispatch from the ConcreteFunction cache
    through one shared Session, so graph optimization, plan caching,
    collectives lowering and RunMetadata all apply to imperative code.

    Args:
        fn: the Python function, when used as a bare decorator.
        input_signature: optional list of :class:`TensorSpec` pinning one
            trace for all compatible calls (e.g. ``TensorSpec([None],
            float64)`` accepts any length without retracing).
        name: scope name for traces (defaults to the function name).
        seed: graph-level RNG seed for ops recorded in traces.
        target/machine/env/config: forwarded to the lazily-created
            :class:`~repro.core.session.Session`, so a traced function
            can dispatch onto a simulated cluster server with multi-job
            placement, custom hardware, or a shared simulation
            environment.

    Returns:
        A :class:`TracedFunction`. Call it with concrete values;
        ``options=``/``run_metadata=`` keywords forward to the
        underlying run. Introspect with ``.trace_count``,
        ``.cache_info()``, ``.get_concrete_function(...)`` and
        ``.session``.
    """
    def wrap(python_function: Callable) -> TracedFunction:
        return TracedFunction(
            python_function,
            input_signature=input_signature,
            name=name,
            seed=seed,
            target=target,
            machine=machine,
            env=env,
            config=config,
        )

    if fn is not None:
        return wrap(fn)
    return wrap
