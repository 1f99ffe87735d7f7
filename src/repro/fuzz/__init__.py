"""Differential graph fuzzing for the execution matrix.

``python -m repro.fuzz`` draws seeded random graphs from the operator
catalog and executes each one through every cell of the frontend ×
executor-lane × optimizer × collective-algorithm matrix, asserting
that all cells reproduce the baseline's fetch bytes and that sim-time
invariants hold. Failures are delta-debugged down to minimal
self-contained repro scripts.

Layers (each importable on its own):

* :mod:`repro.fuzz.catalog` — which ops are fuzzable, a query over the
  op registry;
* :mod:`repro.fuzz.generator` — seeded program generation, the
  frontend-neutral :class:`~repro.fuzz.generator.Program` IR, and repro
  script codegen;
* :mod:`repro.fuzz.harness` — the execution matrix and byte-identity /
  sim-time comparison;
* :mod:`repro.fuzz.shrinker` — delta-debugging reduction of failing
  programs.
"""

from repro.fuzz.catalog import EXCLUDED_OPS, catalog
from repro.fuzz.generator import (
    GeneratorOptions,
    Instr,
    Program,
    generate,
)
from repro.fuzz.harness import (
    BASELINE,
    Cell,
    CellRun,
    Divergence,
    ProgramReport,
    matrix_cells,
    run_cell,
    run_program,
)
from repro.fuzz.shrinker import ShrinkResult, shrink

__all__ = [
    "BASELINE",
    "Cell",
    "CellRun",
    "Divergence",
    "EXCLUDED_OPS",
    "GeneratorOptions",
    "Instr",
    "Program",
    "ProgramReport",
    "ShrinkResult",
    "catalog",
    "generate",
    "matrix_cells",
    "run_cell",
    "run_program",
    "shrink",
]
