"""Seeded graph programs: generation, materialization, and codegen.

The fuzzer never hands a :class:`repro.Graph` around directly — a graph
can only be *run*, not re-built under a different frontend. Instead the
generator emits a :class:`Program`: a frontend-neutral instruction list
(SSA-style — each instruction consumes references to earlier results)
that can be materialized

* into a fresh graph for a Session run,
* inside a ``@repro.function`` trace (placeholders resolve to the traced
  call's argument tensors),
* into a throwaway graph evaluated by the eager interpreter,

and — crucially for shrinking — edited: the delta-debugging shrinker
deletes and rewires instructions, and :meth:`Program.to_python` prints
any program as a self-contained repro script against the public API.

Generation draws from the operator catalog (:mod:`repro.fuzz.catalog`),
dispatching on each entry's declared ``shape_rule`` to sample valid
input shapes and static attributes. All randomness comes from one
caller-seeded :class:`random.Random`: the same ``(seed, options)`` pair
always yields the same program, byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

import numpy as np

import repro
from repro.core.graph import get_default_graph
from repro.core.kernels.registry import OpDef, op_def
from repro.core.ops.collective_ops import COLLECTIVE_OP_TYPES
from repro.errors import InvalidArgumentError
from repro.fuzz.catalog import catalog

__all__ = [
    "GeneratorOptions",
    "Instr",
    "Program",
    "Built",
    "generate",
]

# A reference to output ``out`` of instruction ``instr``.
Ref = tuple[int, int]

_NP_DTYPES = {
    "float32": np.float32,
    "float64": np.float64,
    "int32": np.int32,
    "bool": np.bool_,
}
# Base shape palette: small (generated graphs must run in milliseconds)
# but varied enough to exercise broadcasting, reduction, matmul, layout
# ops and collectives. Derived shapes (transposes, stacks, gathers...)
# enter the pool dynamically.
_SHAPES: tuple[tuple[int, ...], ...] = (
    (), (2,), (3,), (4,), (1, 3), (2, 3), (3, 2), (4, 4), (2, 2, 2),
)

# Shape-growing ops (Concat, Stack, AllGather x world) compound: without
# a cap a 24-op budget can snowball kilobyte tensors into gigabytes.
_MAX_ELEMENTS = 4096


@dataclass
class Instr:
    """One program step.

    ``op_type`` is a catalog op type, or the pseudo-type ``"Gradients"``
    (a ``tf.gradients`` tail: inputs are ``(loss, *xs)``, one output per
    ``x``). ``control`` entries are ``"op:<i>"`` (after instruction
    ``i``'s op) or ``"init:<i>"`` (after variable instruction ``i``'s
    initializer).
    """

    op_type: str
    inputs: tuple[Ref, ...] = ()
    attrs: dict = field(default_factory=dict)
    value: Optional[np.ndarray] = None  # Const payload / Placeholder feed
    device: Optional[str] = None
    control: tuple[str, ...] = ()
    out_dtypes: tuple[str, ...] = ()
    out_shapes: tuple[tuple[int, ...], ...] = ()

    def clone(self) -> "Instr":
        return replace(
            self, inputs=tuple(self.inputs), attrs=dict(self.attrs),
            control=tuple(self.control),
        )


@dataclass
class Program:
    """An executable, editable, printable graph recipe."""

    instrs: list[Instr]
    fetches: list[Ref]
    world: int = 0  # 0 = no collectives
    seed: Optional[int] = None

    # -- structure queries -------------------------------------------------

    @property
    def gpus(self) -> int:
        return max(self.world, 1)

    @property
    def has_collective(self) -> bool:
        return any(i.op_type.startswith("Collective") for i in self.instrs)

    @property
    def has_allreduce(self) -> bool:
        return any(i.op_type == "CollectiveAllReduce" for i in self.instrs)

    @property
    def placeholder_indices(self) -> list[int]:
        return [i for i, ins in enumerate(self.instrs)
                if ins.op_type == "Placeholder"]

    def op_count(self) -> int:
        """Instructions that create at least one graph op."""
        return len(self.instrs)

    def clone(self) -> "Program":
        return Program(
            instrs=[i.clone() for i in self.instrs],
            fetches=list(self.fetches),
            world=self.world,
            seed=self.seed,
        )

    # -- dependency helpers (used by the shrinker) -------------------------

    def deps_of(self, index: int) -> set[int]:
        """Indices of instructions instruction ``index`` depends on."""
        ins = self.instrs[index]
        deps = {src for src, _ in ins.inputs}
        for entry in ins.control:
            deps.add(int(entry.split(":", 1)[1]))
        if "var" in ins.attrs:
            deps.add(ins.attrs["var"])
        return deps

    def live_set(self) -> set[int]:
        """Instructions reachable from the fetches."""
        live: set[int] = set()
        stack = [src for src, _ in self.fetches]
        while stack:
            index = stack.pop()
            if index in live:
                continue
            live.add(index)
            stack.extend(self.deps_of(index))
        return live

    # -- materialization ---------------------------------------------------

    def materialize(
        self,
        algorithm: Optional[str] = None,
        placeholder_lookup: Optional[Callable[[int], Any]] = None,
    ) -> "Built":
        """Build this program's ops into the *current default graph*.

        Args:
            algorithm: override the ``algorithm=`` attr of every
                ``CollectiveAllReduce`` (the harness's algorithm axis;
                other collectives only register a ring schedule).
            placeholder_lookup: maps a Placeholder instruction index to
                an existing tensor — how a ``@repro.function`` trace
                substitutes its argument tensors. By default a fresh
                ``tf.placeholder`` named ``ph_<index>`` is created and
                its feed value recorded.
        """
        built = Built()
        graph = get_default_graph()
        for index, ins in enumerate(self.instrs):
            control_ops = [
                built.variables[int(c.split(":", 1)[1])].initializer
                if c.startswith("init:")
                else built.ops[int(c.split(":", 1)[1])]
                for c in ins.control
            ]
            inputs = [built.results[src][out] for src, out in ins.inputs]
            device_scope = graph.device(ins.device) if ins.device else None
            control_scope = (
                graph.control_dependencies(control_ops) if control_ops
                else None
            )
            try:
                if device_scope is not None:
                    device_scope.__enter__()
                if control_scope is not None:
                    control_scope.__enter__()
                self._build_one(index, ins, inputs, built, algorithm,
                                placeholder_lookup)
            finally:
                if control_scope is not None:
                    control_scope.__exit__(None, None, None)
                if device_scope is not None:
                    device_scope.__exit__(None, None, None)
        built.fetch_tensors = [
            built.results[src][out] for src, out in self.fetches
        ]
        return built

    def _build_one(self, index: int, ins: Instr, inputs: list,
                   built: "Built", algorithm: Optional[str],
                   placeholder_lookup) -> None:
        tf = repro
        op_type = ins.op_type
        if op_type == "Const":
            out = tf.constant(ins.value)
        elif op_type == "Placeholder":
            if placeholder_lookup is not None:
                out = placeholder_lookup(index)
            else:
                out = tf.placeholder(
                    _NP_DTYPES[ins.out_dtypes[0]],
                    shape=list(ins.out_shapes[0]),
                    name=f"ph_{index}",
                )
                built.feeds[out.name] = ins.value
            built.placeholders.append((index, out))
        elif op_type == "Fill":
            out = tf.fill(list(ins.attrs["shape"]), ins.attrs["value"],
                          dtype=_NP_DTYPES[ins.out_dtypes[0]])
        elif op_type == "VariableV2":
            var = tf.Variable(inputs[0], name=f"fuzz_var_{index}")
            built.variables[index] = var
            built.ops[index] = var.op
            built.results[index] = []
            return
        elif op_type in ("Assign", "AssignAdd", "AssignSub"):
            builder = {"Assign": tf.assign, "AssignAdd": tf.assign_add,
                       "AssignSub": tf.assign_sub}[op_type]
            out = builder(built.variables[ins.attrs["var"]], inputs[0])
        elif op_type == "Cast":
            out = tf.cast(inputs[0], _NP_DTYPES[ins.attrs["dst_dtype"]])
        elif op_type == "Reshape":
            out = tf.reshape(inputs[0], list(ins.attrs["shape"]))
        elif op_type == "Transpose":
            out = tf.transpose(inputs[0], perm=list(ins.attrs["perm"]))
        elif op_type == "Concat":
            out = tf.concat(inputs, axis=ins.attrs["axis"])
        elif op_type == "Split":
            out = tf.split(inputs[0], ins.attrs["num_splits"],
                           axis=ins.attrs["axis"])
        elif op_type == "Stack":
            out = tf.stack(inputs, axis=ins.attrs["axis"])
        elif op_type == "Squeeze":
            out = tf.squeeze(inputs[0], axis=ins.attrs["axis"])
        elif op_type == "ExpandDims":
            out = tf.expand_dims(inputs[0], axis=ins.attrs["axis"])
        elif op_type == "Slice":
            out = tf.slice_(inputs[0], list(ins.attrs["begin"]),
                            list(ins.attrs["size"]))
        elif op_type in ("Sum", "Mean", "Max"):
            builder = {"Sum": tf.reduce_sum, "Mean": tf.reduce_mean,
                       "Max": tf.reduce_max}[op_type]
            out = builder(inputs[0], axis=ins.attrs.get("axis"),
                          keepdims=ins.attrs.get("keepdims", False))
        elif op_type == "MatMul":
            out = tf.matmul(inputs[0], inputs[1],
                            transpose_a=ins.attrs.get("transpose_a", False),
                            transpose_b=ins.attrs.get("transpose_b", False))
        elif op_type == "AddN":
            out = tf.add_n(inputs)
        elif op_type.startswith("Collective"):
            alg = ins.attrs.get("algorithm", "ring")
            if algorithm is not None and op_type == "CollectiveAllReduce":
                alg = algorithm
            devices = list(ins.attrs["devices"])
            if op_type == "CollectiveBroadcast":
                out = tf.broadcast(inputs[0], devices=devices, algorithm=alg)
            else:
                builder = {
                    "CollectiveAllReduce": tf.all_reduce,
                    "CollectiveReduceScatter": tf.reduce_scatter,
                    "CollectiveAllGather": tf.all_gather,
                }[op_type]
                out = builder(inputs, devices=devices, algorithm=alg)
        elif op_type == "Gradients":
            loss, xs = inputs[0], inputs[1:]
            out = tf.gradients(loss, list(xs))
            missing = [i for i, g in enumerate(out) if g is None]
            if missing:
                raise InvalidArgumentError(
                    f"generated gradient tail lost xs {missing} "
                    f"(generator connectivity tracking is wrong)"
                )
        else:
            # Plain unary/binary elementwise builders share a calling
            # convention: positional tensor inputs only.
            builder = getattr(tf, op_def(op_type).builder)
            out = builder(*inputs)
        if isinstance(out, (list, tuple)):
            tensors = list(out)
        else:
            tensors = [out]
        built.results[index] = tensors
        built.ops[index] = tensors[0].op

    # -- codegen -----------------------------------------------------------

    def body_source(self, indent: str = "    ") -> str:
        """The instruction list as Python source against ``repro``'s API.

        Placeholder instructions are *parameters*: the emitted lines
        reference ``ph_<i>`` names the caller binds (script preamble or
        traced-function arguments).
        """
        lines: list[str] = []
        for index, ins in enumerate(self.instrs):
            lines.extend(_emit_instr(index, ins))
        if not lines:
            lines.append("pass")
        return "\n".join(indent + line for line in lines)

    def to_python(self, cell: Any = None, note: str = "") -> str:
        """A self-contained repro script for this program.

        The script rebuilds the program with the public ``repro`` API,
        runs the baseline cell (session / legacy lane / optimizer off)
        and the diverging cell, and asserts byte-identity fetch by
        fetch. While the underlying defect exists the script raises
        ``AssertionError``; once fixed it prints ``OK`` (which is why
        shrunk repros are checked into ``corpus/`` and replayed by CI
        as regression tests).
        """
        return _render_script(self, cell, note)


@dataclass
class Built:
    """Materialization products, keyed by instruction index."""

    results: dict[int, list] = field(default_factory=dict)
    ops: dict[int, Any] = field(default_factory=dict)
    variables: dict[int, Any] = field(default_factory=dict)
    placeholders: list[tuple[int, Any]] = field(default_factory=list)
    feeds: dict[str, np.ndarray] = field(default_factory=dict)
    fetch_tensors: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# codegen helpers
# ---------------------------------------------------------------------------

def _np_literal(arr: Optional[np.ndarray]) -> str:
    arr = np.asarray(arr)
    return f"np.array({arr.tolist()!r}, dtype=np.{arr.dtype.name})"


def _ref_expr(ref: Ref) -> str:
    src, out = ref
    return f"t{src}[{out}]"


def _emit_instr(index: int, ins: Instr) -> list[str]:
    """Lines creating ``t<index>`` (always a *list* of output tensors)."""
    args = [_ref_expr(ref) for ref in ins.inputs]
    op_type = ins.op_type
    if op_type == "Const":
        expr = f"tf.constant({_np_literal(ins.value)})"
    elif op_type == "Placeholder":
        # Bound by the script preamble / traced-function signature.
        return [f"t{index} = [ph_{index}]"]
    elif op_type == "Fill":
        expr = (f"tf.fill({list(ins.attrs['shape'])!r}, "
                f"{ins.attrs['value']!r}, "
                f"dtype=np.{ins.out_dtypes[0]})")
    elif op_type == "VariableV2":
        expr = f"tf.Variable({args[0]}, name='fuzz_var_{index}')"
        return _wrap_scopes(ins, [f"v{index} = {expr}"])
    elif op_type in ("Assign", "AssignAdd", "AssignSub"):
        builder = {"Assign": "tf.assign", "AssignAdd": "tf.assign_add",
                   "AssignSub": "tf.assign_sub"}[op_type]
        expr = f"{builder}(v{ins.attrs['var']}, {args[0]})"
    elif op_type == "Cast":
        expr = f"tf.cast({args[0]}, np.{ins.attrs['dst_dtype']})"
    elif op_type == "Reshape":
        expr = f"tf.reshape({args[0]}, {list(ins.attrs['shape'])!r})"
    elif op_type == "Transpose":
        expr = f"tf.transpose({args[0]}, perm={list(ins.attrs['perm'])!r})"
    elif op_type == "Concat":
        expr = f"tf.concat([{', '.join(args)}], axis={ins.attrs['axis']!r})"
    elif op_type == "Split":
        expr = (f"tf.split({args[0]}, {ins.attrs['num_splits']!r}, "
                f"axis={ins.attrs['axis']!r})")
        return _wrap_scopes(ins, [f"t{index} = {expr}"])
    elif op_type == "Stack":
        expr = f"tf.stack([{', '.join(args)}], axis={ins.attrs['axis']!r})"
    elif op_type == "Squeeze":
        expr = f"tf.squeeze({args[0]}, axis={ins.attrs['axis']!r})"
    elif op_type == "ExpandDims":
        expr = f"tf.expand_dims({args[0]}, axis={ins.attrs['axis']!r})"
    elif op_type == "Slice":
        expr = (f"tf.slice_({args[0]}, {list(ins.attrs['begin'])!r}, "
                f"{list(ins.attrs['size'])!r})")
    elif op_type in ("Sum", "Mean", "Max"):
        builder = {"Sum": "tf.reduce_sum", "Mean": "tf.reduce_mean",
                   "Max": "tf.reduce_max"}[op_type]
        expr = (f"{builder}({args[0]}, axis={ins.attrs.get('axis')!r}, "
                f"keepdims={ins.attrs.get('keepdims', False)!r})")
    elif op_type == "MatMul":
        expr = (f"tf.matmul({args[0]}, {args[1]}, "
                f"transpose_a={ins.attrs.get('transpose_a', False)!r}, "
                f"transpose_b={ins.attrs.get('transpose_b', False)!r})")
    elif op_type == "AddN":
        expr = f"tf.add_n([{', '.join(args)}])"
    elif op_type.startswith("Collective"):
        builder = {
            "CollectiveAllReduce": "tf.all_reduce",
            "CollectiveReduceScatter": "tf.reduce_scatter",
            "CollectiveAllGather": "tf.all_gather",
            "CollectiveBroadcast": "tf.broadcast",
        }[op_type]
        devices = list(ins.attrs["devices"])
        alg = ("algorithm" if op_type == "CollectiveAllReduce"
               else f"{ins.attrs.get('algorithm', 'ring')!r}")
        if op_type == "CollectiveBroadcast":
            expr = (f"{builder}({args[0]}, devices={devices!r}, "
                    f"algorithm={alg})")
        else:
            expr = (f"{builder}([{', '.join(args)}], devices={devices!r}, "
                    f"algorithm={alg})")
        return _wrap_scopes(ins, [f"t{index} = {expr}"])
    elif op_type == "Gradients":
        loss, xs = args[0], args[1:]
        expr = f"tf.gradients({loss}, [{', '.join(xs)}])"
        return _wrap_scopes(ins, [f"t{index} = {expr}"])
    else:
        expr = f"tf.{op_def(op_type).builder}({', '.join(args)})"
    return _wrap_scopes(ins, [f"t{index} = [{expr}]"])


def _wrap_scopes(ins: Instr, lines: list[str]) -> list[str]:
    if ins.control:
        deps = ", ".join(
            f"v{c.split(':', 1)[1]}.initializer" if c.startswith("init:")
            else f"t{c.split(':', 1)[1]}[0].op"
            for c in ins.control
        )
        lines = [f"with g.control_dependencies([{deps}]):"] + [
            "    " + line for line in lines
        ]
    if ins.device:
        lines = [f"with g.device({ins.device!r}):"] + [
            "    " + line for line in lines
        ]
    return lines


_SCRIPT_TEMPLATE = '''{header}

import numpy as np

import repro as tf
from repro.fuzz.harness import Cell, run_cell
from repro.fuzz.generator import Program


def body(*placeholders, algorithm="ring"):
    g = tf.get_default_graph()
    _phs = list(placeholders)
{ph_bind}
{body}
    return [{fetch_exprs}]


FEEDS = [
    {feed_values}
]

GPUS = {gpus}

if __name__ == "__main__":
    from repro.fuzz.harness import run_script_body

    run_script_body(body, FEEDS, GPUS,
                    Cell({cell_kwargs}))
    print("OK: {label} matches the baseline bytes")
'''


# The template is substituted chunk-by-chunk rather than with .format():
# emitted bodies contain literal braces (dict attrs, list reprs) that
# .format would misparse.
def _render_script(program: Program, cell: Any, note: str) -> str:
    from repro.fuzz.harness import Cell  # local: avoid import cycle

    cell = cell if cell is not None else Cell(frontend="session")
    ph_indices = program.placeholder_indices
    feed_lines = ",\n    ".join(
        _np_literal(program.instrs[i].value) for i in ph_indices
    )
    header = (
        f'"""Shrunk differential-fuzz repro (seed={program.seed}, '
        f'cell={cell.label()}).\n\n'
        f"Auto-generated by python -m repro.fuzz. Asserts that the cell "
        f"produces the\nbaseline's bytes; raises AssertionError while "
        f"the defect reproduces.\n"
        f"{note}\"\"\""
    )
    fetch_exprs = ", ".join(_ref_expr(ref) for ref in program.fetches)
    bind_lines = "\n".join(
        f"    ph_{idx} = _phs[{pos}]" for pos, idx in enumerate(ph_indices)
    ) or "    del _phs"
    pieces = {
        "header": header,
        "ph_bind": bind_lines,
        "body": program.body_source(indent="    "),
        "fetch_exprs": fetch_exprs,
        "feed_values": feed_lines,
        "gpus": str(program.gpus),
        "cell_kwargs": cell.script_kwargs(),
        "label": cell.label(),
    }
    script = _SCRIPT_TEMPLATE
    for key, chunk in pieces.items():
        script = script.replace("{%s}" % key, chunk)
    return script


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

@dataclass
class GeneratorOptions:
    """Knobs bounding what a generated program may contain."""

    max_ops: int = 12
    placeholders: bool = True
    variables: bool = True
    collectives: bool = True
    gradients: bool = True
    max_world: int = 4  # collective ranks drawn from 2..max_world (cap 8)
    max_fetches: int = 8


@dataclass
class _RefMeta:
    dtype: str
    shape: tuple[int, ...]
    needs_feed: bool = False  # transitively depends on a placeholder
    # Every placeholder->here path crosses only gradient-registered ops
    # (vacuously true with no placeholder ancestry): the invariant that
    # makes a ``tf.gradients(loss, placeholders)`` tail legal.
    diff_ok: bool = True
    ph_ancestry: frozenset = frozenset()


class _GenState:
    def __init__(self, rng: random.Random, options: GeneratorOptions):
        self.rng = rng
        self.options = options
        self.instrs: list[Instr] = []
        self.meta: dict[Ref, _RefMeta] = {}
        self.pool: dict[tuple[str, tuple[int, ...]], list[Ref]] = {}
        self.world = 0

    # -- bookkeeping -------------------------------------------------------

    def add(self, ins: Instr, metas: list[_RefMeta]) -> int:
        index = len(self.instrs)
        self.instrs.append(ins)
        ins.out_dtypes = tuple(m.dtype for m in metas)
        ins.out_shapes = tuple(tuple(m.shape) for m in metas)
        for out, m in enumerate(metas):
            ref = (index, out)
            self.meta[ref] = m
            self.pool.setdefault((m.dtype, m.shape), []).append(ref)
        return index

    def pick(self, dtype: Optional[str] = None,
             shape: Optional[tuple[int, ...]] = None,
             pred: Optional[Callable[[_RefMeta], bool]] = None
             ) -> Optional[Ref]:
        candidates = [
            ref
            for (d, s), refs in self.pool.items()
            if (dtype is None or d == dtype)
            and (shape is None or s == shape)
            for ref in refs
            if pred is None or pred(self.meta[ref])
        ]
        if not candidates:
            return None
        return self.rng.choice(candidates)

    def combined(self, refs: list[Ref], entry: OpDef,
                 dtype: str, shape: tuple[int, ...]) -> _RefMeta:
        metas = [self.meta[r] for r in refs]
        ancestry = frozenset().union(*(m.ph_ancestry for m in metas)) \
            if metas else frozenset()
        diff_ok = (
            not ancestry
            or (entry.gradient is not None and all(
                m.diff_ok or not m.ph_ancestry for m in metas
            ))
        )
        return _RefMeta(
            dtype=dtype,
            shape=shape,
            needs_feed=any(m.needs_feed for m in metas),
            diff_ok=bool(diff_ok),
            ph_ancestry=ancestry,
        )

    # -- value synthesis ---------------------------------------------------

    def random_array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        if dtype == "int32":
            return np.asarray(
                self.rng.choices(range(-4, 5), k=_size(shape)),
                dtype=np.int32,
            ).reshape(shape)
        values = [round(self.rng.uniform(-2.0, 2.0), 3)
                  for _ in range(_size(shape))]
        return np.asarray(values, dtype=_NP_DTYPES[dtype]).reshape(shape)


def _size(shape: tuple[int, ...]) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


def generate(seed: int, options: Optional[GeneratorOptions] = None
             ) -> Program:
    """Draw one random valid program (deterministic per seed+options)."""
    options = options or GeneratorOptions()
    rng = random.Random(seed)
    state = _GenState(rng, options)
    entries = catalog()
    if options.collectives and rng.random() < 0.6:
        state.world = rng.randint(2, max(2, min(8, options.max_world)))

    # Seed pool: a constant per palette shape (float32), plus extras.
    for shape in ((), (3,), (2, 3), (4, 4)):
        _sample_const(state, "float32", shape)
    if options.placeholders:
        for _ in range(rng.randint(1, 3)):
            dtype = rng.choice(("float32", "float64"))
            shape = rng.choice(_SHAPES)
            meta = _RefMeta(dtype=dtype, shape=shape, needs_feed=True,
                            diff_ok=True)
            index = state.add(
                Instr(op_type="Placeholder",
                      value=state.random_array(dtype, shape)),
                [meta],
            )
            state.meta[(index, 0)] = replace(
                state.meta[(index, 0)], ph_ancestry=frozenset({index})
            )

    budget = rng.randint(max(2, options.max_ops // 2), options.max_ops)
    drawable = [e for t, e in sorted(entries.items())
                if t not in ("Placeholder",)]
    for _ in range(budget):
        for _attempt in range(6):
            entry = rng.choice(drawable)
            if entry.op_type in COLLECTIVE_OP_TYPES and (
                not options.collectives or state.world < 2
            ):
                continue
            if entry.op_type in ("VariableV2", "Assign", "AssignAdd",
                                 "AssignSub"):
                if not options.variables:
                    continue
                if _sample_variable_chain(state):
                    break
                continue
            if _SAMPLERS[entry.shape_rule](state, entry):
                break

    if options.gradients:
        _sample_gradient_tail(state)

    fetches = _choose_fetches(state)
    return Program(instrs=state.instrs, fetches=fetches,
                   world=state.world, seed=seed)


# -- per-shape-rule samplers -------------------------------------------------
# Each sampler returns True when it appended an instruction.

def _sample_const(state: _GenState, dtype: Optional[str] = None,
                  shape: Optional[tuple[int, ...]] = None) -> bool:
    rng = state.rng
    dtype = dtype or rng.choice(("float32", "float64", "int32"))
    shape = shape if shape is not None else rng.choice(_SHAPES)
    value = state.random_array(dtype, shape)
    state.add(Instr(op_type="Const", value=value),
              [_RefMeta(dtype=dtype, shape=shape)])
    return True


def _sample_source(state: _GenState, entry: OpDef) -> bool:
    if entry.op_type == "Fill":
        rng = state.rng
        dtype = rng.choice(entry.dtypes)
        shape = rng.choice([s for s in _SHAPES if s])
        value = (rng.randint(-3, 3) if dtype == "int32"
                 else round(rng.uniform(-2, 2), 3))
        state.add(
            Instr(op_type="Fill", attrs={"shape": shape, "value": value}),
            [_RefMeta(dtype=dtype, shape=shape)],
        )
        return True
    return _sample_const(state)


def _sample_unary(state: _GenState, entry: OpDef) -> bool:
    dtype = state.rng.choice(entry.dtypes)
    ref = state.pick(dtype=dtype)
    if ref is None:
        return False
    meta = state.meta[ref]
    out = state.combined([ref], entry, dtype, meta.shape)
    state.add(Instr(op_type=entry.op_type, inputs=(ref,)), [out])
    return True


def _sample_binary(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    dtype = rng.choice(entry.dtypes)
    a = state.pick(dtype=dtype)
    if a is None:
        return False
    sa = state.meta[a].shape
    # Same-shape, scalar, or broadcast-compatible partner.
    partner_shapes = [sa, ()]
    if len(sa) >= 1:
        partner_shapes.append(sa[-1:])
        partner_shapes.append((1,) * (len(sa) - 1) + sa[-1:])
    b = None
    for shape in rng.sample(partner_shapes, len(partner_shapes)):
        b = state.pick(dtype=dtype, shape=shape)
        if b is not None:
            break
    if b is None:
        return False
    sb = state.meta[b].shape
    out_shape = tuple(np.broadcast_shapes(sa, sb))
    out_dtype = "bool" if entry.op_type == "GreaterEqual" else dtype
    out = state.combined([a, b], entry, out_dtype, out_shape)
    state.add(Instr(op_type=entry.op_type, inputs=(a, b)), [out])
    return True


def _sample_same_shape_n(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    dtype = rng.choice(entry.dtypes)
    first = state.pick(dtype=dtype)
    if first is None:
        return False
    shape = state.meta[first].shape
    count = rng.randint(entry.arity[0], entry.arity[1])
    refs = [first] + [
        state.pick(dtype=dtype, shape=shape) for _ in range(count - 1)
    ]
    refs = [r for r in refs if r is not None]
    if len(refs) < entry.arity[0]:
        return False
    out = state.combined(refs, entry, dtype, shape)
    state.add(Instr(op_type=entry.op_type, inputs=tuple(refs)), [out])
    return True


def _sample_matmul(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    dtype = rng.choice(entry.dtypes)
    a = state.pick(dtype=dtype, pred=lambda m: len(m.shape) == 2)
    if a is None:
        return False
    ta = rng.random() < 0.25
    sa = state.meta[a].shape
    m, k = (sa[1], sa[0]) if ta else (sa[0], sa[1])
    rank1 = rng.random() < 0.2
    if rank1:
        b = state.pick(dtype=dtype, shape=(k,))
        if b is None:
            return False
        out_shape: tuple[int, ...] = (m,)
        attrs = {"transpose_a": ta, "transpose_b": False}
        refs = [a, b]
    else:
        tb = rng.random() < 0.25
        b = state.pick(
            dtype=dtype,
            pred=lambda mt: len(mt.shape) == 2
            and (mt.shape[1] if tb else mt.shape[0]) == k,
        )
        if b is None:
            return False
        sb = state.meta[b].shape
        n = sb[0] if tb else sb[1]
        out_shape = (m, n)
        attrs = {"transpose_a": ta, "transpose_b": tb}
        refs = [a, b]
    out = state.combined(refs, entry, dtype, out_shape)
    state.add(Instr(op_type="MatMul", inputs=tuple(refs), attrs=attrs),
              [out])
    return True


def _sample_dot(state: _GenState, entry: OpDef) -> bool:
    dtype = state.rng.choice(entry.dtypes)
    a = state.pick(dtype=dtype, pred=lambda m: len(m.shape) == 1)
    if a is None:
        return False
    b = state.pick(dtype=dtype, shape=state.meta[a].shape)
    if b is None:
        return False
    out = state.combined([a, b], entry, dtype, ())
    state.add(Instr(op_type="Dot", inputs=(a, b)), [out])
    return True


def _sample_reduce(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    dtype = rng.choice(entry.dtypes)
    ref = state.pick(dtype=dtype, pred=lambda m: len(m.shape) >= 1)
    if ref is None:
        return False
    shape = state.meta[ref].shape
    keepdims = rng.random() < 0.3
    if rng.random() < 0.4:
        axis = None
        out_shape = tuple([1] * len(shape)) if keepdims else ()
    else:
        ax = rng.randrange(len(shape))
        axis = [ax]
        dims = list(shape)
        if keepdims:
            dims[ax] = 1
        else:
            dims.pop(ax)
        out_shape = tuple(dims)
    out = state.combined([ref], entry, dtype, out_shape)
    state.add(
        Instr(op_type=entry.op_type, inputs=(ref,),
              attrs={"axis": axis, "keepdims": keepdims}),
        [out],
    )
    return True


def _sample_cast(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    ref = state.pick(pred=lambda m: m.dtype in entry.dtypes)
    if ref is None:
        return False
    src = state.meta[ref].dtype
    # float -> int is skipped: inf/NaN-to-int casts are platform-defined.
    targets = {
        "float32": ("float64",),
        "float64": ("float32",),
        "int32": ("float32", "float64", "int32"),
        "bool": ("float32", "int32"),
    }[src]
    dst = rng.choice(targets)
    out = state.combined([ref], entry, dst, state.meta[ref].shape)
    state.add(
        Instr(op_type="Cast", inputs=(ref,), attrs={"dst_dtype": dst}),
        [out],
    )
    return True


def _sample_reshape(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    ref = state.pick(pred=lambda m: m.dtype in entry.dtypes
                     and len(m.shape) >= 1)
    if ref is None:
        return False
    meta = state.meta[ref]
    n = _size(meta.shape)
    options: list[tuple[int, ...]] = [(n,), tuple(reversed(meta.shape))]
    for d in (2, 3, 4):
        if n % d == 0:
            options.append((d, n // d))
    new_shape = rng.choice(options)
    out = state.combined([ref], entry, meta.dtype, new_shape)
    state.add(
        Instr(op_type="Reshape", inputs=(ref,),
              attrs={"shape": new_shape}),
        [out],
    )
    return True


def _sample_transpose(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    ref = state.pick(pred=lambda m: m.dtype in entry.dtypes
                     and len(m.shape) >= 2)
    if ref is None:
        return False
    meta = state.meta[ref]
    perm = list(range(len(meta.shape)))
    rng.shuffle(perm)
    out_shape = tuple(meta.shape[p] for p in perm)
    out = state.combined([ref], entry, meta.dtype, out_shape)
    state.add(
        Instr(op_type="Transpose", inputs=(ref,),
              attrs={"perm": tuple(perm)}),
        [out],
    )
    return True


def _sample_concat(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    dtype = rng.choice(entry.dtypes)
    first = state.pick(dtype=dtype, pred=lambda m: len(m.shape) >= 1)
    if first is None:
        return False
    shape = state.meta[first].shape
    axis = rng.randrange(len(shape))
    count = rng.randint(entry.arity[0], entry.arity[1])
    refs = [first] + [
        state.pick(dtype=dtype, shape=shape) for _ in range(count - 1)
    ]
    refs = [r for r in refs if r is not None]
    if len(refs) < 2:
        return False
    dims = list(shape)
    dims[axis] = shape[axis] * len(refs)
    if _size(tuple(dims)) > _MAX_ELEMENTS:
        return False
    out = state.combined(refs, entry, dtype, tuple(dims))
    state.add(
        Instr(op_type="Concat", inputs=tuple(refs), attrs={"axis": axis}),
        [out],
    )
    return True


def _sample_split(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    candidates = []
    for (dtype, shape), refs in state.pool.items():
        if dtype not in entry.dtypes or not shape:
            continue
        for axis, dim in enumerate(shape):
            for parts in (2, 3, 4):
                if dim % parts == 0 and dim >= parts and parts > 1:
                    candidates.append((refs, axis, parts, dtype, shape))
    if not candidates:
        return False
    refs, axis, parts, dtype, shape = rng.choice(candidates)
    ref = rng.choice(refs)
    dims = list(shape)
    dims[axis] //= parts
    metas = [
        state.combined([ref], entry, dtype, tuple(dims))
        for _ in range(parts)
    ]
    state.add(
        Instr(op_type="Split", inputs=(ref,),
              attrs={"num_splits": parts, "axis": axis}),
        metas,
    )
    return True


def _sample_stack(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    dtype = rng.choice(entry.dtypes)
    first = state.pick(dtype=dtype)
    if first is None:
        return False
    shape = state.meta[first].shape
    count = rng.randint(entry.arity[0], entry.arity[1])
    refs = [first] + [
        state.pick(dtype=dtype, shape=shape) for _ in range(count - 1)
    ]
    refs = [r for r in refs if r is not None]
    if len(refs) < 2:
        return False
    axis = rng.randrange(len(shape) + 1)
    dims = list(shape)
    dims.insert(axis, len(refs))
    if _size(tuple(dims)) > _MAX_ELEMENTS:
        return False
    out = state.combined(refs, entry, dtype, tuple(dims))
    state.add(
        Instr(op_type="Stack", inputs=tuple(refs), attrs={"axis": axis}),
        [out],
    )
    return True


def _sample_squeeze(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    ref = state.pick(pred=lambda m: m.dtype in entry.dtypes
                     and 1 in m.shape)
    if ref is None:
        return False
    meta = state.meta[ref]
    ones = [i for i, d in enumerate(meta.shape) if d == 1]
    axis = rng.choice(ones)
    dims = list(meta.shape)
    dims.pop(axis)
    out = state.combined([ref], entry, meta.dtype, tuple(dims))
    state.add(
        Instr(op_type="Squeeze", inputs=(ref,), attrs={"axis": axis}),
        [out],
    )
    return True


def _sample_expand_dims(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    ref = state.pick(pred=lambda m: m.dtype in entry.dtypes)
    if ref is None:
        return False
    meta = state.meta[ref]
    axis = rng.randrange(len(meta.shape) + 1)
    dims = list(meta.shape)
    dims.insert(axis, 1)
    out = state.combined([ref], entry, meta.dtype, tuple(dims))
    state.add(
        Instr(op_type="ExpandDims", inputs=(ref,), attrs={"axis": axis}),
        [out],
    )
    return True


def _sample_slice(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    ref = state.pick(pred=lambda m: m.dtype in entry.dtypes
                     and len(m.shape) >= 1 and min(m.shape) >= 1)
    if ref is None:
        return False
    meta = state.meta[ref]
    begin, size = [], []
    for dim in meta.shape:
        s = rng.randint(1, dim)
        b = rng.randint(0, dim - s)
        begin.append(b)
        size.append(s)
    out = state.combined([ref], entry, meta.dtype, tuple(size))
    state.add(
        Instr(op_type="Slice", inputs=(ref,),
              attrs={"begin": tuple(begin), "size": tuple(size)}),
        [out],
    )
    return True


def _sample_collective(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    world = state.world
    if world < 2:
        return False
    devices = tuple(f"/device:gpu:{i}" for i in range(world))
    dtype = rng.choice(entry.dtypes)
    op_type = entry.op_type
    if op_type == "CollectiveBroadcast":
        ref = state.pick(dtype=dtype)
        if ref is None:
            return False
        meta = state.meta[ref]
        metas = [state.combined([ref], entry, dtype, meta.shape)
                 for _ in range(world)]
        state.add(
            Instr(op_type=op_type, inputs=(ref,),
                  attrs={"devices": devices, "algorithm": "ring"}),
            metas,
        )
        return True
    if op_type == "CollectiveReduceScatter":
        pred = (lambda m: len(m.shape) >= 1
                and m.shape[0] % world == 0 and m.shape[0] >= world)
    elif op_type == "CollectiveAllGather":
        pred = lambda m: len(m.shape) >= 1
    else:
        pred = None
    first = state.pick(dtype=dtype, pred=pred)
    if first is None:
        return False
    shape = state.meta[first].shape
    refs = [first]
    for _ in range(world - 1):
        other = state.pick(dtype=dtype, shape=shape)
        if other is None:
            return False
        refs.append(other)
    if op_type == "CollectiveAllReduce":
        out_shape = shape
    elif op_type == "CollectiveReduceScatter":
        out_shape = (shape[0] // world,) + shape[1:]
    else:  # CollectiveAllGather
        out_shape = (shape[0] * world,) + shape[1:]
    if _size(out_shape) * world > _MAX_ELEMENTS:
        return False
    metas = [state.combined(refs, entry, dtype, out_shape)
             for _ in range(world)]
    alg = "ring"
    state.add(
        Instr(op_type=op_type, inputs=tuple(refs),
              attrs={"devices": devices, "algorithm": alg}),
        metas,
    )
    return True


def _sample_variable_chain(state: _GenState) -> bool:
    """Variable + ordered update chain, read through the update outputs."""
    rng = state.rng
    dtype = rng.choice(("float32", "float64", "int32"))
    init = state.pick(dtype=dtype,
                      pred=lambda m: not m.needs_feed and m.shape)
    if init is None:
        return False
    shape = state.meta[init].shape
    var_index = state.add(
        Instr(op_type="VariableV2", inputs=(init,),
              attrs={}),
        [],
    )
    prev = f"init:{var_index}"
    # Running meta of the variable's *state*: an update output reflects
    # every write so far, not just its own delta. Found by the fuzzer
    # itself (seed 638): an AssignAdd whose variable had been Assign-ed a
    # placeholder value was marked feed-free, got picked as a later
    # variable's initializer, and the tracing frontend's no-feed init
    # pre-run blew up on the unfed placeholder.
    state_meta = state.meta[init]
    updates = rng.randint(1, 2)
    for _ in range(updates):
        delta = state.pick(dtype=dtype, shape=shape)
        if delta is None:
            delta = init
        op_type = rng.choice(("Assign", "AssignAdd", "AssignSub"))
        delta_meta = state.meta[delta]
        if op_type == "Assign":
            tainted = [delta_meta]
        else:
            tainted = [state_meta, delta_meta]
        state_meta = _RefMeta(
            dtype=dtype,
            shape=shape,
            needs_feed=any(m.needs_feed for m in tainted),
            diff_ok=False,
            ph_ancestry=frozenset().union(
                *(m.ph_ancestry for m in tainted)
            ),
        )
        update_index = state.add(
            Instr(op_type=op_type, inputs=(delta,),
                  attrs={"var": var_index}, control=(prev,)),
            [state_meta],
        )
        prev = f"op:{update_index}"
    return True


def _sample_gradient_tail(state: _GenState) -> bool:
    rng = state.rng
    candidates = [
        ref for ref, meta in state.meta.items()
        if meta.dtype in ("float32", "float64")
        and meta.diff_ok and meta.ph_ancestry
        and all(
            state.instrs[ph].out_dtypes[0] in ("float32", "float64")
            for ph in meta.ph_ancestry
        )
    ]
    if not candidates:
        return False
    loss_ref = rng.choice(candidates)
    meta = state.meta[loss_ref]
    entries = catalog()
    if meta.shape:
        out = state.combined([loss_ref], entries["Sum"], meta.dtype, ())
        sum_index = state.add(
            Instr(op_type="Sum", inputs=(loss_ref,),
                  attrs={"axis": None, "keepdims": False}),
            [out],
        )
        loss_ref = (sum_index, 0)
        meta = state.meta[loss_ref]
    xs = sorted(meta.ph_ancestry)
    grad_metas = [
        _RefMeta(
            dtype=state.instrs[ph].out_dtypes[0],
            shape=tuple(state.instrs[ph].out_shapes[0]),
            needs_feed=True,
            diff_ok=False,
            ph_ancestry=meta.ph_ancestry,
        )
        for ph in xs
    ]
    state.add(
        Instr(op_type="Gradients",
              inputs=(loss_ref,) + tuple((ph, 0) for ph in xs)),
        grad_metas,
    )
    return True


def _choose_fetches(state: _GenState) -> list[Ref]:
    rng = state.rng
    fetches: list[Ref] = []
    # Every gradient output is a fetch (the tails exist to be compared).
    for index, ins in enumerate(state.instrs):
        if ins.op_type == "Gradients":
            fetches.extend((index, out) for out in range(len(ins.out_dtypes)))
    # One representative per (dtype, shape) bucket, newest first, capped.
    buckets = sorted(state.pool.items(), key=lambda kv: -max(
        ref[0] for ref in kv[1]
    ))
    for (_dtype, _shape), refs in buckets:
        if len(fetches) >= state.options.max_fetches:
            break
        ref = max(refs)  # the most-derived tensor of the bucket
        if ref not in fetches:
            fetches.append(ref)
    if not fetches:
        # Degenerate programs still fetch something comparable.
        index = len(state.instrs)
        _sample_const(state, "float32", (2,))
        fetches.append((index, 0))
    return fetches


_SAMPLERS: dict[str, Callable[[_GenState, OpDef], bool]] = {
    "source": _sample_source,
    "unary_same": _sample_unary,
    "elementwise_broadcast": _sample_binary,
    "same_shape_n": _sample_same_shape_n,
    "matmul": _sample_matmul,
    "dot": _sample_dot,
    "reduce": _sample_reduce,
    "cast": _sample_cast,
    "reshape": _sample_reshape,
    "transpose": _sample_transpose,
    "concat": _sample_concat,
    "split": _sample_split,
    "stack": _sample_stack,
    "squeeze": _sample_squeeze,
    "expand_dims": _sample_expand_dims,
    "slice": _sample_slice,
    "collective": _sample_collective,
}
