"""Delta-debugging shrinker: reduce a failing program to a minimal repro.

Given a program and the matrix cell it diverges on, the shrinker
repeatedly edits the program and keeps any edit after which the
divergence still reproduces (``harness.has_divergence``). Candidate
edits, in order of aggressiveness:

1. **fetch reduction** — keep a single fetch; the smallest set of
   outputs that still shows the disagreement;
2. **dead-code sweep** — drop every instruction unreachable from the
   surviving fetches (re-indexing all references); verified like any
   other edit, because "dead for the fetches" is not "dead for the
   frontend" — a traced function still builds and initializes swept
   variables, and a divergence may live exactly there;
3. **instruction removal** — for each instruction, try deleting it and
   rewiring its consumers to an earlier value of identical dtype/shape,
   or to a fresh zero constant; control edges fall back to the removed
   instruction's own dependencies;
4. **placeholder demotion** — replace a placeholder with a constant
   holding its feed value (divergences that survive need fewer moving
   parts to explain).

Each round re-runs from step 2; the loop stops at a fixpoint (no edit
reproduces) or after ``max_rounds``. Candidates whose *baseline* run
fails are rejected outright — a reduction must shrink the failure, not
replace it with a different one. When the divergence *is* the baseline's
failure (a kernel that contradicts its record fails every concrete cell,
the baseline first), a candidate reproduces while its baseline raises
the same error type.

The result ships as a self-contained script via
:meth:`Program.to_python`, which asks the harness for this oracle's
verdict (bytes, static specs, simulated time): it fails while the
defect lives and passes once fixed, so shrunk repros double as
regression tests (the ``corpus/`` directory CI replays).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.fuzz.generator import Instr, Program
from repro.fuzz.harness import (
    BASELINE,
    Cell,
    error_type,
    has_divergence,
    run_cell,
)

__all__ = ["ShrinkResult", "shrink"]


@dataclass
class ShrinkResult:
    program: Program
    cell: Cell
    attempts: int  # candidate programs executed
    rounds: int
    original_ops: int

    @property
    def ops(self) -> int:
        return self.program.op_count()


def shrink(program: Program, cell: Cell, *, max_rounds: int = 12,
           max_attempts: int = 400) -> ShrinkResult:
    """Minimize ``program`` while ``cell`` still diverges from baseline.

    ``program`` must currently diverge on ``cell`` (the caller found it
    via :func:`repro.fuzz.harness.run_program`); if it does not, the
    program is returned unchanged.
    """
    original_ops = program.op_count()
    state = _ShrinkState(max_attempts=max_attempts)
    if cell == BASELINE:
        # The divergence is the baseline's own failure: hold its type fixed.
        error = run_cell(program, BASELINE).error
        state.failure = error_type(error) if error is not None else None
    current = program.clone()
    if not state.reproduces(current, cell):
        return ShrinkResult(program=current, cell=cell, attempts=state.attempts,
                            rounds=0, original_ops=original_ops)

    current = _reduce_fetches(current, cell, state)
    # The sweep is a guess, not a theorem: a divergence can live in code
    # that is dead *for the fetches* but still built/initialized by a
    # frontend (e.g. a traced function pre-runs every variable
    # initializer). Keep the invariant that ``current`` reproduces.
    swept = _sweep_dead(current)
    if swept is not current and state.reproduces(swept, cell):
        current = swept
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        changed = False
        candidate = _try_removals(current, cell, state)
        if candidate is not None:
            current, changed = candidate, True
        candidate = _try_demote_placeholders(current, cell, state)
        if candidate is not None:
            current, changed = candidate, True
        if not changed or state.exhausted:
            break
    return ShrinkResult(program=current, cell=cell, attempts=state.attempts,
                        rounds=rounds, original_ops=original_ops)


@dataclass
class _ShrinkState:
    max_attempts: int
    attempts: int = 0
    # Memo: identical candidate programs reproduce (or not) identically.
    seen: dict[str, bool] = field(default_factory=dict)
    # Shrinking a failing baseline: the error type a candidate must raise.
    failure: Optional[str] = None

    @property
    def exhausted(self) -> bool:
        return self.attempts >= self.max_attempts

    def reproduces(self, program: Program, cell: Cell) -> bool:
        if self.exhausted:
            return False
        key = _fingerprint(program)
        if key in self.seen:
            return self.seen[key]
        self.attempts += 1
        result = has_divergence(program, cell, self.failure)
        self.seen[key] = result
        return result


def _fingerprint(program: Program) -> str:
    parts = []
    for ins in program.instrs:
        value = (ins.value.tobytes() if ins.value is not None else b"")
        parts.append(
            f"{ins.op_type}|{ins.inputs}|{sorted(ins.attrs.items())!r}|"
            f"{value!r}|{ins.device}|{ins.control}"
        )
    parts.append(repr(program.fetches))
    parts.append(str(program.world))
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def _reduce_fetches(program: Program, cell: Cell,
                    state: _ShrinkState) -> Program:
    if len(program.fetches) <= 1:
        return program
    for fetch in program.fetches:
        candidate = program.clone()
        candidate.fetches = [fetch]
        if state.reproduces(candidate, cell):
            return candidate
    # No single fetch suffices; try halving.
    half = len(program.fetches) // 2
    for chunk in (program.fetches[:half], program.fetches[half:]):
        if not chunk:
            continue
        candidate = program.clone()
        candidate.fetches = list(chunk)
        if state.reproduces(candidate, cell):
            return _reduce_fetches(candidate, cell, state)
    return program


def _sweep_dead(program: Program) -> Program:
    live = program.live_set()
    if len(live) == len(program.instrs):
        return program
    order = sorted(live)
    remap = {old: new for new, old in enumerate(order)}
    swept = Program(
        instrs=[], fetches=[], world=program.world, seed=program.seed,
    )
    for old in order:
        ins = program.instrs[old].clone()
        ins.inputs = tuple((remap[src], out) for src, out in ins.inputs)
        ins.control = tuple(
            f"{kind}:{remap[int(idx)]}"
            for kind, idx in (c.split(":", 1) for c in ins.control)
        )
        if "var" in ins.attrs:
            ins.attrs["var"] = remap[ins.attrs["var"]]
        swept.instrs.append(ins)
    swept.fetches = [(remap[src], out) for src, out in program.fetches]
    if not swept.has_collective:
        swept.world = 0
    return swept


def _try_removals(program: Program, cell: Cell,
                  state: _ShrinkState) -> Optional[Program]:
    """First successful single-instruction removal, already swept."""
    for index in reversed(range(len(program.instrs))):
        if state.exhausted:
            return None
        for candidate in _removal_candidates(program, index):
            if state.reproduces(candidate, cell):
                # Greedily continue removing on the winner.
                deeper = _try_removals(candidate, cell, state)
                return deeper if deeper is not None else candidate
    return None


def _removal_candidates(program: Program, index: int):
    ins = program.instrs[index]
    if ins.op_type == "VariableV2":
        # Removable only via its updates (dead sweep picks the var up).
        return
    consumers = _consumers(program, index)
    # (a) rewire every use to an existing earlier value of the same
    # dtype/shape, then drop the instruction.
    substitutes = [
        _find_substitute(program, index, dtype, tuple(shape))
        for dtype, shape in zip(ins.out_dtypes, ins.out_shapes)
    ]
    used = {out for _, out in _used_outputs(program, index)}
    if used and all(substitutes[out] is not None for out in used):
        candidate = _rewire_and_drop(program, index, {
            out: sub for out, sub in enumerate(substitutes)
            if sub is not None
        })
        if candidate is not None:
            yield candidate
    # (b) replace the instruction with a zero constant of its spec.
    if ins.op_type != "Gradients":
        candidate = _constify(program, index)
        if candidate is not None:
            yield candidate
    # (c) fetch-only use: stop fetching it and sweep it away.
    if not consumers:
        candidate = program.clone()
        candidate.fetches = [
            f for f in candidate.fetches if f[0] != index
        ]
        if candidate.fetches:
            yield _sweep_dead(candidate)


def _used_outputs(program: Program, index: int) -> set[tuple[int, int]]:
    used = set()
    for ins in program.instrs:
        for src, out in ins.inputs:
            if src == index:
                used.add((src, out))
    for src, out in program.fetches:
        if src == index:
            used.add((src, out))
    return used


def _consumers(program: Program, index: int) -> list[int]:
    found = []
    for j, other in enumerate(program.instrs):
        if any(src == index for src, _ in other.inputs):
            found.append(j)
        elif any(int(c.split(":", 1)[1]) == index for c in other.control):
            found.append(j)
        elif other.attrs.get("var") == index:
            found.append(j)
    return found


def _find_substitute(program: Program, index: int, dtype: str,
                     shape: tuple[int, ...]) -> Optional[tuple[int, int]]:
    for j in range(index):
        ins = program.instrs[j]
        for out, (d, s) in enumerate(zip(ins.out_dtypes, ins.out_shapes)):
            if d == dtype and tuple(s) == tuple(shape):
                return (j, out)
    return None


def _rewire_and_drop(program: Program, index: int,
                     substitutes: dict[int, tuple[int, int]]
                     ) -> Optional[Program]:
    candidate = program.clone()
    removed = candidate.instrs[index]
    fallback_control = tuple(removed.control)
    for j, ins in enumerate(candidate.instrs):
        if j == index:
            continue
        new_inputs = []
        for src, out in ins.inputs:
            if src == index:
                sub = substitutes.get(out)
                if sub is None:
                    return None
                new_inputs.append(sub)
            else:
                new_inputs.append((src, out))
        ins.inputs = tuple(new_inputs)
        if any(int(c.split(":", 1)[1]) == index for c in ins.control):
            kept = tuple(c for c in ins.control
                         if int(c.split(":", 1)[1]) != index)
            ins.control = tuple(dict.fromkeys(kept + fallback_control))
        if ins.attrs.get("var") == index:
            return None
    new_fetches = []
    for src, out in candidate.fetches:
        if src == index:
            sub = substitutes.get(out)
            if sub is None:
                return None
            new_fetches.append(sub)
        else:
            new_fetches.append((src, out))
    candidate.fetches = new_fetches
    del candidate.instrs[index]
    _shift_after_delete(candidate, index)
    return _sweep_dead(candidate)


def _shift_after_delete(program: Program, index: int) -> None:
    def shift(i: int) -> int:
        return i - 1 if i > index else i

    for ins in program.instrs:
        ins.inputs = tuple((shift(src), out) for src, out in ins.inputs)
        ins.control = tuple(
            f"{kind}:{shift(int(i))}"
            for kind, i in (c.split(":", 1) for c in ins.control)
        )
        if "var" in ins.attrs:
            ins.attrs["var"] = shift(ins.attrs["var"])
    program.fetches = [(shift(src), out) for src, out in program.fetches]


def _constify(program: Program, index: int) -> Optional[Program]:
    """Replace instruction ``index`` with zero Consts of its out specs."""
    ins = program.instrs[index]
    if not ins.out_dtypes:
        return None
    if len(ins.out_dtypes) != 1:
        return None  # multi-output: removal handles via substitutes
    if ins.op_type == "Const":
        return None
    dtype, shape = ins.out_dtypes[0], tuple(ins.out_shapes[0])
    if dtype == "bool":
        value = np.zeros(shape, dtype=np.bool_)
    else:
        value = np.zeros(shape, dtype=np.dtype(dtype))
    candidate = program.clone()
    candidate.instrs[index] = Instr(
        op_type="Const", value=value,
        out_dtypes=(dtype,), out_shapes=(shape,),
    )
    return _sweep_dead(candidate)


def _try_demote_placeholders(program: Program, cell: Cell,
                             state: _ShrinkState) -> Optional[Program]:
    for index, ins in enumerate(program.instrs):
        if ins.op_type != "Placeholder" or state.exhausted:
            continue
        candidate = program.clone()
        candidate.instrs[index] = Instr(
            op_type="Const", value=np.asarray(ins.value),
            out_dtypes=tuple(ins.out_dtypes),
            out_shapes=tuple(ins.out_shapes),
        )
        if state.reproduces(candidate, cell):
            return candidate
    return None
