"""Operator catalog: which ops the fuzzer may draw, and under what contract.

The catalog is a query over the op registry
(:mod:`repro.core.kernels.registry`): one :class:`OpDef` per fuzzable op
type — the generation contract registered next to the kernel (builder,
arity, input dtypes, the shape rule the generator dispatches on), the
pure / stateful / graph-only flags, and the gradient function whose
presence decides if the op's outputs may sit on a ``tf.gradients`` tail.

Every pure op type must either appear here or carry an entry in
:data:`EXCLUDED_OPS` with a human-readable reason — the registry sweep
in ``tests/core/test_op_registry.py`` enforces it, so a newly registered
op cannot silently dodge fuzzing.
"""

from __future__ import annotations

from repro.core.kernels.registry import OpDef, op_def, registered_op_types

__all__ = ["EXCLUDED_OPS", "catalog"]


# Pure-or-registered op types deliberately NOT fuzzed, with the reason.
# The coverage test fails when a registered op type is neither here nor
# in the catalog: adding an op means choosing — fuzz it or document why
# not.
EXCLUDED_OPS: dict[str, str] = {
    "FFT": "complex128-only; the host-merge cost model is exercised by "
           "the fig11 figure tests, and complex payloads are outside "
           "the fuzzer's dtype palette",
    "IFFT": "complex128-only (see FFT)",
    "NoOp": "produces no values to compare; ordering-only — covered "
            "structurally by control-dependency chains the generator "
            "already emits",
    "Placeholder": "a graph *input*, not a drawn op: the generator "
                   "plants placeholders itself so every frontend feeds "
                   "identical values",
    "RandomUniform": "stateful RNG lane: eager contexts and Session "
                     "resource managers draw from differently keyed "
                     "lanes, so cross-frontend byte-identity is not a "
                     "contract these ops make",
    "RandomNormal": "stateful RNG lane (see RandomUniform)",
    "FIFOQueue": "graph-only runtime resource (blocks on simulated "
                 "events); no eager semantics to differentiate against",
    "QueueEnqueue": "graph-only queue traffic (see FIFOQueue)",
    "QueueDequeue": "graph-only queue traffic (see FIFOQueue)",
    "QueueClose": "graph-only queue traffic (see FIFOQueue)",
    "QueueSize": "graph-only queue traffic (see FIFOQueue)",
    "IteratorV2": "graph-only dataset resource (see FIFOQueue)",
    "IteratorGetNext": "graph-only dataset traffic (see FIFOQueue)",
    "ReadTile": "graph-only parallel-filesystem I/O; depends on files "
                "staged into the simulated Lustre namespace",
    "WriteTile": "graph-only parallel-filesystem I/O (see ReadTile)",
}


def catalog() -> dict[str, OpDef]:
    """The full fuzz catalog, keyed by op type.

    Derived fresh on each call so kernels registered later (e.g. a
    planted-defect test op) are picked up.
    """
    entries: dict[str, OpDef] = {}
    for op_type in registered_op_types():
        definition = op_def(op_type)
        if definition.shape_rule is None or op_type in EXCLUDED_OPS:
            continue
        if definition.graph_only:
            # Graph-only kernels cannot run under the eager frontend, so
            # they cannot participate in the differential matrix.
            continue
        entries[op_type] = definition
    return entries
