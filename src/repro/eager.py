"""Eager execution — the imperative mode the paper anticipates.

Section II notes that TensorFlow "also supports eager execution that
follows an imperative style and it will likely become the default
execution mode in future releases". This module provides that mode for
the same op set as graph mode: every call builds the op through the
*same builders* the ``@repro.function`` tracer records, then evaluates
the resulting node(s) immediately through the kernel registry — no
Session, no simulator, NumPy values in and out.

    from repro import eager

    ctx = eager.EagerContext(seed=0)
    a = ctx.random_uniform([4, 4])
    b = ctx.matmul(a, a)          # a plain numpy array, available now

Coverage is registry-driven: any builder exported by the flat op
namespace (``repro.core.ops``) is available as a context method, and an
op is rejected exactly when the registry marks it graph-only (its kernel
blocks on simulated runtime events — queues, datasets, tile I/O — or
manages Session-owned resources). There is no hand-maintained whitelist.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro import dtypes
from repro.core.graph import Graph, Operation
from repro.core.kernels.registry import (
    KernelContext,
    ResourceManager,
    dispatch,
    op_def,
)
from repro.core.tensor import Tensor
from repro.errors import InvalidArgumentError, UnimplementedError

__all__ = ["EagerContext", "evaluate"]


def evaluate(fetches: Sequence[Any], feeds: dict, ctx: KernelContext) -> list:
    """Run graph nodes immediately through the kernel registry.

    This is the direct interpreter shared by :class:`EagerContext` and
    ``repro.function``'s run-eagerly mode: no Session, no discrete-event
    simulation — each reachable op is dispatched once, in dependency
    order, against ``ctx`` (its record's shape function checks the
    operands as it would under a Session; the cost is dropped).

    Args:
        fetches: Tensors and/or Operations to evaluate.
        feeds: tensor name -> value, consumed by Placeholder kernels.
        ctx: the kernel context (resources, seed) to execute against.

    Returns:
        One runtime value per fetched Tensor (Operations contribute
        ordering only).
    """
    values: dict[Operation, list] = {}
    roots = [f.op if isinstance(f, Tensor) else f for f in fetches]

    # Iterative post-order walk over data and control edges.
    stack: list[tuple[Operation, bool]] = [(op, False) for op in reversed(roots)]
    while stack:
        op, expanded = stack.pop()
        if op in values:
            continue
        if not expanded:
            stack.append((op, True))
            for dep in op.control_inputs:
                if dep not in values:
                    stack.append((dep, False))
            for tensor in op.inputs:
                if tensor.op not in values:
                    stack.append((tensor.op, False))
            continue
        definition = op_def(op.type)
        if definition.graph_only:
            raise UnimplementedError(
                f"{op.type} requires graph mode (its kernel depends on the "
                f"simulated runtime — queues, datasets and tile I/O run "
                f"under a Session)"
            )
        inputs = [values[t.op][t.value_index] for t in op.inputs]
        result = dispatch(op, inputs, ctx)
        if not isinstance(result, tuple):
            raise UnimplementedError(
                f"{op.type} kernel did not return eagerly; graph mode only"
            )
        outputs, _cost = result
        values[op] = list(outputs)

    out = []
    for fetch in fetches:
        if isinstance(fetch, Tensor):
            out.append(values[fetch.op][fetch.value_index])
    return out


class EagerContext:
    """Executes ops immediately, holding variable state imperatively.

    Every flat-namespace op builder (``repro.core.ops.__all__``) is
    exposed as a method: the call is recorded into a throwaway graph via
    the ordinary builder — exactly what the ``@repro.function`` tracer
    would record — and evaluated on the spot through the kernel registry.
    NumPy array arguments become placeholder feeds, so user arrays are
    never mutated or frozen.
    """

    def __init__(self, seed: Optional[int] = None):
        self._resources = ResourceManager(name="eager")
        self._seed = seed
        self._op_counter = 0

    # -- core execution --------------------------------------------------------
    def _kernel_ctx(self, feeds: Optional[dict] = None) -> KernelContext:
        return KernelContext(
            symbolic=False,
            feeds=feeds or {},
            resources=self._resources,
            graph_seed=self._seed,
        )

    def _lift(self, value, graph: Graph, feeds: dict):
        """Stage a concrete array as a placeholder + feed in ``graph``."""
        from repro.core.ops import array_ops

        arr = np.asarray(value)
        self._op_counter += 1
        ph = array_ops.placeholder(
            arr.dtype, shape=arr.shape, name=f"eager_input_{self._op_counter}",
            graph=graph,
        )
        feeds[ph.name] = arr
        return ph

    def _evaluate_built(self, built, feeds: dict):
        """Evaluate whatever a builder returned (Tensor(s) or Operation)."""
        if isinstance(built, Tensor):
            return evaluate([built], feeds, self._kernel_ctx(feeds))[0]
        if isinstance(built, Operation):
            if built.outputs:
                outs = evaluate(list(built.outputs), feeds, self._kernel_ctx(feeds))
                return outs[0] if len(outs) == 1 else outs
            evaluate([built], feeds, self._kernel_ctx(feeds))
            return None
        if isinstance(built, (list, tuple)) and built and all(
            isinstance(t, Tensor) for t in built
        ):
            outs = evaluate(list(built), feeds, self._kernel_ctx(feeds))
            return type(built)(outs) if isinstance(built, tuple) else outs
        raise UnimplementedError(
            f"builder returned {type(built).__name__}; stateful graph "
            f"objects (variables, queues, datasets) are graph-mode only — "
            f"use the context's imperative variable API instead"
        )

    def __getattr__(self, name: str):
        # Resolved lazily to avoid import cycles during package init.
        from repro.core import ops as flat_ops

        if name.startswith("_") or name not in getattr(flat_ops, "__all__", ()):
            raise AttributeError(
                f"EagerContext has no op {name!r} (not in the flat op "
                f"namespace)"
            )
        builder = getattr(flat_ops, name)

        def run_eagerly(*args, **kwargs):
            graph = Graph(seed=self._seed)
            feeds: dict = {}

            def lift(v):
                if isinstance(v, (np.ndarray, np.generic)):
                    return self._lift(v, graph, feeds)
                if isinstance(v, (list, tuple)) and any(
                    isinstance(e, (np.ndarray, np.generic)) for e in v
                ):
                    # Multi-tensor arguments (concat/stack/add_n lists):
                    # lift each element so no caller array is ever baked
                    # into a frozen constant.
                    return type(v)(lift(e) for e in v)
                return v

            with graph.as_default():
                built = builder(
                    *[lift(a) for a in args],
                    **{k: lift(v) for k, v in kwargs.items()},
                )
            return self._evaluate_built(built, feeds)

        run_eagerly.__name__ = name
        run_eagerly.__doc__ = builder.__doc__
        return run_eagerly

    def execute(self, op_type: str, inputs: Sequence[Any] = (),
                attrs: Optional[dict] = None, output_dtypes=None):
        """Run one raw op type immediately; returns its output value(s).

        Generic escape hatch for op types without a flat-namespace
        builder. The node is created in a throwaway graph exactly as a
        tracer would record it, then evaluated through the registry.
        """
        if op_def(op_type).graph_only:
            raise UnimplementedError(
                f"{op_type} requires graph mode (queues, datasets and tile "
                f"I/O depend on the simulated runtime)"
            )
        arrays = [np.asarray(v) for v in inputs]
        if output_dtypes is None:
            output_dtypes = [arrays[0].dtype if arrays else np.float32]
        graph = Graph(seed=self._seed)
        feeds: dict = {}
        with graph.as_default():
            placeholders = [self._lift(arr, graph, feeds) for arr in arrays]
            op = graph.create_op(
                op_type,
                inputs=placeholders,
                output_specs=[
                    (dtypes.as_dtype(dt), None) for dt in output_dtypes
                ],
                attrs=attrs or {},
            )
        outputs = evaluate(list(op.outputs), feeds, self._kernel_ctx(feeds))
        if len(outputs) == 1:
            return outputs[0]
        return outputs

    # -- convenience wrappers ----------------------------------------------------
    def constant(self, value, dtype=None):
        arr = np.asarray(value)
        if dtype is not None:
            arr = arr.astype(dtypes.as_dtype(dtype).np_dtype)
        return arr

    def fft(self, x):
        return self.__getattr__("fft")(np.asarray(x, dtype=np.complex128))

    def ifft(self, x):
        return self.__getattr__("ifft")(np.asarray(x, dtype=np.complex128))

    # -- imperative variables ------------------------------------------------------
    def variable(self, initial_value, name: Optional[str] = None) -> str:
        """Create a named mutable value; returns its handle (the name)."""
        name = name or f"eager_var_{self._op_counter}"
        self._op_counter += 1
        if name in self._resources.variables:
            raise InvalidArgumentError(f"Variable {name!r} already exists")
        self._resources.variables[name] = np.asarray(initial_value).copy()
        return name

    def read(self, handle: str):
        try:
            return self._resources.variables[handle]
        except KeyError:
            raise InvalidArgumentError(f"No variable {handle!r}") from None

    def assign(self, handle: str, value) -> None:
        self.read(handle)  # existence check
        self._resources.variables[handle] = np.asarray(value).copy()

    def assign_add(self, handle: str, delta) -> None:
        self._resources.variables[handle] = self.read(handle) + np.asarray(delta)
