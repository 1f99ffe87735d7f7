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

Generation draws from the operator catalog (:mod:`repro.fuzz.catalog`).
Each entry's declared ``shape_rule`` names one operator record
(:data:`_FAMILIES`): ``sample`` draws valid input shapes and static
attributes (the op's record derives the outputs' specs), ``call``
states the instruction as a builder call —
``tf.<op_def(op_type).builder>(*args, **kwargs)`` — which
:meth:`Program.materialize` resolves against tensors and
:meth:`Program.body_source` renders as text. All randomness comes from
one caller-seeded :class:`random.Random`: the same ``(seed, options)``
pair always yields the same program, byte for byte.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, NamedTuple, Optional, Sequence

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
        return any(i.op_type in COLLECTIVE_OP_TYPES for i in self.instrs)

    @property
    def has_allreduce(self) -> bool:
        return any(i.op_type == "CollectiveAllReduce" for i in self.instrs)

    @property
    def placeholder_indices(self) -> list[int]:
        return [i for i, ins in enumerate(self.instrs)
                if ins.op_type == "Placeholder"]

    def op_count(self) -> int:
        """Every instruction, Placeholders and ``Gradients`` tails included."""
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
        placeholders: Optional[Sequence[Any]] = None,
    ) -> "Built":
        """Build this program's ops into the *current default graph*.

        Args:
            algorithm: override the ``algorithm=`` attr of every
                ``CollectiveAllReduce`` (the harness's algorithm axis;
                other collectives only register a ring schedule).
            placeholders: one existing tensor per Placeholder
                instruction, in program order — how a ``@repro.function``
                trace substitutes its argument tensors. By default a
                fresh ``tf.placeholder`` named ``ph_<index>`` is created
                and its feed value recorded.
        """
        built = Built()
        graph = get_default_graph()
        for index, ins in enumerate(self.instrs):
            scopes = [graph.device(ins.device)] if ins.device else []
            if ins.control:
                scopes.append(graph.control_dependencies([
                    built.variables[int(c[5:])].initializer
                    if c.startswith("init:") else built.ops[int(c[3:])]
                    for c in ins.control
                ]))
            for scope in scopes:
                scope.__enter__()
            try:
                if ins.op_type == "Placeholder":
                    binds = "tensor"
                    if placeholders is not None:
                        out = placeholders[len(built.placeholders)]
                    else:
                        out = repro.placeholder(
                            _NP_DTYPES[ins.out_dtypes[0]],
                            shape=list(ins.out_shapes[0]), name=f"ph_{index}")
                        built.feeds[out.name] = ins.value
                    built.placeholders.append((index, out))
                else:
                    builder, (args, kwargs, binds) = _call(index, ins)
                    out = getattr(repro, builder)(
                        *_resolve(args, built, algorithm),
                        **{k: _resolve(v, built, algorithm)
                           for k, v in kwargs.items()})
            finally:
                for scope in reversed(scopes):
                    scope.__exit__(None, None, None)
            if binds == "variable":
                built.variables[index] = out
                built.ops[index] = out.op
                built.results[index] = []
                continue
            tensors = list(out) if binds == "list" else [out]
            if None in tensors:  # a Gradients tail lost an x
                raise InvalidArgumentError(
                    f"instruction {index} ({ins.op_type}) lost an output "
                    f"(generator connectivity tracking is wrong)")
            built.results[index] = tensors
            built.ops[index] = tensors[0].op
        built.fetch_tensors = [built.results[s][o] for s, o in self.fetches]
        return built

    # -- codegen -----------------------------------------------------------

    def body_source(self, indent: str = "    ") -> str:
        """The instruction list as Python source against ``repro``'s API.

        Placeholder instructions are *parameters*: the emitted lines
        reference ``ph_<i>`` names the caller binds (script preamble or
        traced-function arguments).
        """
        lines: list[str] = []
        for index, ins in enumerate(self.instrs):
            if ins.op_type == "Placeholder":
                lines.append(f"t{index} = [ph_{index}]")
                continue
            builder, (args, kwargs, binds) = _call(index, ins)
            parts = [_render(a) for a in args]
            parts += [f"{k}={_render(v)}" for k, v in kwargs.items()]
            expr = f"tf.{builder}({', '.join(parts)})"
            if binds == "tensor":
                expr = f"[{expr}]"
            target = f"v{index}" if binds == "variable" else f"t{index}"
            lines.extend(_wrap_scopes(ins, f"{target} = {expr}"))
        return "\n".join(indent + line for line in lines or ["pass"])

    def to_python(self, cell: Any = None, note: str = "") -> str:
        """A self-contained repro script for this program.

        The script rebuilds the program with the public ``repro`` API
        (its ``body``) and lets the harness judge ``cell`` on that build
        exactly as the shrinker did (bytes, static specs, simulated
        time). While the defect exists the script raises
        ``AssertionError`` naming each divergence; once fixed it prints
        ``OK`` — so shrunk repros double as regression tests.
        """
        from repro.fuzz.harness import Cell  # local: avoid import cycle

        cell = cell if cell is not None else Cell(frontend="session")
        ph_indices = self.placeholder_indices
        pieces = {
            "seed": str(self.seed),
            "note": note,
            "ph_bind": "\n".join(f"    ph_{idx} = _phs[{pos}]"
                                 for pos, idx in enumerate(ph_indices))
            or "    del _phs",
            "body": self.body_source(indent="    "),
            "fetch_exprs": ", ".join(map(_ref_expr, self.fetches)),
            "feed_values": ",\n    ".join(
                _np_literal(self.instrs[i].value) for i in ph_indices),
            "gpus": str(self.gpus),
            "cell": repr(cell),
            "label": cell.label(),
        }
        # Substituted chunk by chunk, not with .format(): emitted bodies
        # contain literal braces (list reprs) .format would misparse.
        script = _SCRIPT_TEMPLATE
        for key, chunk in pieces.items():
            script = script.replace("{%s}" % key, chunk)
        return script


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
# instructions as builder calls
# ---------------------------------------------------------------------------
# materialize and body_source read one description of each instruction:
# ``tf.<builder>(*args, **kwargs)``, the arguments written in a small
# vocabulary — a Ref tuple (an earlier instruction's output; the only
# tuple a call holds), a _Var (a variable instruction's Variable), an
# _Algorithm (the cell's allreduce algorithm), a list of these, a NumPy
# scalar type, or a literal.

class _Var(NamedTuple):
    index: int


class _Algorithm(NamedTuple):
    default: str  # the instruction's own, when the cell overrides none


class _Call(NamedTuple):
    args: list
    kwargs: dict = {}
    # "tensor": t<i> = [result]; "list": t<i> = result; "variable": v<i>
    binds: str = "tensor"


def _call(index: int, ins: Instr) -> tuple[str, _Call]:
    """Instruction ``index`` as a builder name and its call."""
    if ins.op_type == "Gradients":
        loss, *xs = ins.inputs
        return "gradients", _Call([loss, xs], binds="list")
    entry = op_def(ins.op_type)
    return entry.builder, _FAMILIES[entry.shape_rule].call(index, ins)


def _resolve(arg: Any, built: "Built", algorithm: Optional[str]) -> Any:
    if type(arg) is tuple:
        return built.results[arg[0]][arg[1]]
    if isinstance(arg, list):
        return [_resolve(a, built, algorithm) for a in arg]
    if isinstance(arg, _Var):
        return built.variables[arg.index]
    if isinstance(arg, _Algorithm):
        return algorithm or arg.default
    return arg


def _render(arg: Any) -> str:
    if type(arg) is tuple:
        return _ref_expr(arg)
    if isinstance(arg, list):
        return f"[{', '.join(_render(a) for a in arg)}]"
    if isinstance(arg, _Var):
        return f"v{arg.index}"
    if isinstance(arg, _Algorithm):
        return "algorithm"  # the script body's parameter
    if isinstance(arg, type):
        return f"np.{np.dtype(arg).name}"
    if isinstance(arg, (np.ndarray, np.generic)):
        return _np_literal(arg)
    return repr(arg)


def _np_literal(arr: Optional[np.ndarray]) -> str:
    arr = np.asarray(arr)
    return f"np.array({arr.tolist()!r}, dtype=np.{arr.dtype.name})"


def _ref_expr(ref: Ref) -> str:
    src, out = ref
    return f"t{src}[{out}]"


def _wrap_scopes(ins: Instr, line: str) -> list[str]:
    lines = [line]
    if ins.control:
        deps = ", ".join(f"v{c[5:]}.initializer" if c.startswith("init:")
                         else f"t{c[3:]}[0].op" for c in ins.control)
        lines = [f"with g.control_dependencies([{deps}]):",
                 *("    " + ln for ln in lines)]
    if ins.device:
        lines = [f"with g.device({ins.device!r}):",
                 *("    " + ln for ln in lines)]
    return lines


_SCRIPT_TEMPLATE = '''\
"""Shrunk differential-fuzz repro (seed={seed}, cell={label}).

Auto-generated by python -m repro.fuzz. Asserts that the cell agrees with the
baseline as the fuzz harness judges it; raises AssertionError while the defect
reproduces.
{note}"""

import numpy as np

import repro as tf


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
    from repro.fuzz.harness import Cell, _script_divergences

    found = _script_divergences(body, FEEDS, GPUS, {cell})
    assert not found, "\\n".join(d.describe() for d in found)
    print("OK: {label} agrees with the baseline")
'''


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

    def outputs(self, entry: OpDef, ins: Instr) -> list[_RefMeta]:
        """One meta per output of ``ins``, its spec as the op's record
        derives it: ``shape_fn`` over the input metas, which are specs
        (a dtype the shape functions compare and pass through, here its
        name, and a shape tuple). ``world`` is the collective builders'
        implicit attr."""
        refs = list(ins.inputs)
        attrs = {"world": self.world, **ins.attrs}
        return [self.combined(refs, entry, str(dtype), tuple(dims))
                for dtype, dims in entry.shape_fn(
                    [self.meta[r] for r in refs], attrs)]

    def apply(self, entry: OpDef, ins: Instr, cap: bool = False) -> bool:
        """Append ``ins`` with the outputs its record derives — unless,
        with ``cap``, together they outgrow the element cap."""
        outs = self.outputs(entry, ins)
        if cap and sum(math.prod(m.shape) for m in outs) > _MAX_ELEMENTS:
            return False
        self.add(ins, outs)
        return True

    # -- value synthesis ---------------------------------------------------

    def random_array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        if dtype == "int32":
            return np.asarray(
                self.rng.choices(range(-4, 5), k=math.prod(shape)),
                dtype=np.int32,
            ).reshape(shape)
        values = [round(self.rng.uniform(-2.0, 2.0), 3)
                  for _ in range(math.prod(shape))]
        return np.asarray(values, dtype=_NP_DTYPES[dtype]).reshape(shape)


def generate(seed: int, options: Optional[GeneratorOptions] = None
             ) -> Program:
    """Draw one random valid program (deterministic per seed+options)."""
    options = options or GeneratorOptions()
    rng = random.Random(seed)
    state = _GenState(rng, options)
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
                            ph_ancestry=frozenset({len(state.instrs)}))
            state.add(Instr(op_type="Placeholder",
                            value=state.random_array(dtype, shape)), [meta])

    budget = rng.randint(max(2, options.max_ops // 2), options.max_ops)
    drawable = [e for _, e in sorted(catalog().items())]
    for _ in range(budget):
        for _attempt in range(6):
            entry = rng.choice(drawable)
            if _FAMILIES[entry.shape_rule].sample(state, entry):
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
    ref = state.pick(dtype=state.rng.choice(entry.dtypes))
    if ref is None:
        return False
    return state.apply(entry, Instr(op_type=entry.op_type, inputs=(ref,)))


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
    return state.apply(entry, Instr(op_type=entry.op_type, inputs=(a, b)))


def _same_shape_refs(state: _GenState, entry: OpDef, dtype: str,
                     first: Ref) -> list[Ref]:
    """``first`` and up to ``arity[1] - 1`` more refs of its spec."""
    shape = state.meta[first].shape
    count = state.rng.randint(entry.arity[0], entry.arity[1])
    refs = [first] + [
        state.pick(dtype=dtype, shape=shape) for _ in range(count - 1)
    ]
    return [r for r in refs if r is not None]


def _sample_same_shape_n(state: _GenState, entry: OpDef) -> bool:
    dtype = state.rng.choice(entry.dtypes)
    first = state.pick(dtype=dtype)
    if first is None:
        return False
    refs = _same_shape_refs(state, entry, dtype, first)
    if len(refs) < entry.arity[0]:
        return False
    return state.apply(entry, Instr(op_type=entry.op_type, inputs=tuple(refs)))


def _sample_matmul(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    dtype = rng.choice(entry.dtypes)
    a = state.pick(dtype=dtype, pred=lambda m: len(m.shape) == 2)
    if a is None:
        return False
    ta = rng.random() < 0.25
    k = state.meta[a].shape[0 if ta else 1]
    if rng.random() < 0.2:  # a rank-1 rhs
        tb = False
        b = state.pick(dtype=dtype, shape=(k,))
    else:
        tb = rng.random() < 0.25
        b = state.pick(
            dtype=dtype,
            pred=lambda mt: len(mt.shape) == 2
            and (mt.shape[1] if tb else mt.shape[0]) == k,
        )
    if b is None:
        return False
    return state.apply(entry, Instr(
        op_type="MatMul", inputs=(a, b),
        attrs={"transpose_a": ta, "transpose_b": tb}))


def _sample_dot(state: _GenState, entry: OpDef) -> bool:
    dtype = state.rng.choice(entry.dtypes)
    a = state.pick(dtype=dtype, pred=lambda m: len(m.shape) == 1)
    if a is None:
        return False
    b = state.pick(dtype=dtype, shape=state.meta[a].shape)
    if b is None:
        return False
    return state.apply(entry, Instr(op_type="Dot", inputs=(a, b)))


def _sample_reduce(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    dtype = rng.choice(entry.dtypes)
    ref = state.pick(dtype=dtype, pred=lambda m: len(m.shape) >= 1)
    if ref is None:
        return False
    keepdims = rng.random() < 0.3
    axis = (None if rng.random() < 0.4
            else [rng.randrange(len(state.meta[ref].shape))])
    return state.apply(entry, Instr(
        op_type=entry.op_type, inputs=(ref,),
        attrs={"axis": axis, "keepdims": keepdims}))


def _sample_cast(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    ref = state.pick(pred=lambda m: m.dtype in entry.dtypes)
    if ref is None:
        return False
    # float -> int is skipped: inf/NaN-to-int casts are platform-defined.
    targets = {
        "float32": ("float64",),
        "float64": ("float32",),
        "int32": ("float32", "float64", "int32"),
        "bool": ("float32", "int32"),
    }[state.meta[ref].dtype]
    return state.apply(entry, Instr(
        op_type="Cast", inputs=(ref,),
        attrs={"dst_dtype": rng.choice(targets)}))


def _sample_reshape(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    ref = state.pick(pred=lambda m: m.dtype in entry.dtypes
                     and len(m.shape) >= 1)
    if ref is None:
        return False
    shape = state.meta[ref].shape
    n = math.prod(shape)
    options: list[tuple[int, ...]] = [(n,), tuple(reversed(shape))]
    for d in (2, 3, 4):
        if n % d == 0:
            options.append((d, n // d))
    return state.apply(entry, Instr(
        op_type="Reshape", inputs=(ref,),
        attrs={"shape": rng.choice(options)}))


def _sample_transpose(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    ref = state.pick(pred=lambda m: m.dtype in entry.dtypes
                     and len(m.shape) >= 2)
    if ref is None:
        return False
    perm = list(range(len(state.meta[ref].shape)))
    rng.shuffle(perm)
    return state.apply(entry, Instr(
        op_type="Transpose", inputs=(ref,), attrs={"perm": tuple(perm)}))


def _sample_concat(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    dtype = rng.choice(entry.dtypes)
    first = state.pick(dtype=dtype, pred=lambda m: len(m.shape) >= 1)
    if first is None:
        return False
    axis = rng.randrange(len(state.meta[first].shape))
    refs = _same_shape_refs(state, entry, dtype, first)
    if len(refs) < 2:
        return False
    return state.apply(entry, Instr(
        op_type="Concat", inputs=tuple(refs), attrs={"axis": axis}), cap=True)


def _sample_split(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    candidates = []
    for (dtype, shape), refs in state.pool.items():
        if dtype not in entry.dtypes or not shape:
            continue
        for axis, dim in enumerate(shape):
            for parts in (2, 3, 4):
                if dim % parts == 0 and dim >= parts and parts > 1:
                    candidates.append((refs, axis, parts))
    if not candidates:
        return False
    refs, axis, parts = rng.choice(candidates)
    return state.apply(entry, Instr(
        op_type="Split", inputs=(rng.choice(refs),),
        attrs={"num_splits": parts, "axis": axis}))


def _sample_stack(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    dtype = rng.choice(entry.dtypes)
    first = state.pick(dtype=dtype)
    if first is None:
        return False
    refs = _same_shape_refs(state, entry, dtype, first)
    if len(refs) < 2:
        return False
    axis = rng.randrange(len(state.meta[first].shape) + 1)
    return state.apply(entry, Instr(
        op_type="Stack", inputs=tuple(refs), attrs={"axis": axis}), cap=True)


def _sample_squeeze(state: _GenState, entry: OpDef) -> bool:
    ref = state.pick(pred=lambda m: m.dtype in entry.dtypes
                     and 1 in m.shape)
    if ref is None:
        return False
    ones = [i for i, d in enumerate(state.meta[ref].shape) if d == 1]
    return state.apply(entry, Instr(
        op_type="Squeeze", inputs=(ref,),
        attrs={"axis": state.rng.choice(ones)}))


def _sample_expand_dims(state: _GenState, entry: OpDef) -> bool:
    ref = state.pick(pred=lambda m: m.dtype in entry.dtypes)
    if ref is None:
        return False
    axis = state.rng.randrange(len(state.meta[ref].shape) + 1)
    return state.apply(entry, Instr(
        op_type="ExpandDims", inputs=(ref,), attrs={"axis": axis}))


def _sample_slice(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    ref = state.pick(pred=lambda m: m.dtype in entry.dtypes
                     and len(m.shape) >= 1 and min(m.shape) >= 1)
    if ref is None:
        return False
    begin, size = [], []
    for dim in state.meta[ref].shape:
        s = rng.randint(1, dim)
        b = rng.randint(0, dim - s)
        begin.append(b)
        size.append(s)
    return state.apply(entry, Instr(
        op_type="Slice", inputs=(ref,),
        attrs={"begin": tuple(begin), "size": tuple(size)}))


def _sample_collective(state: _GenState, entry: OpDef) -> bool:
    rng = state.rng
    world = state.world
    if world < 2:  # also with collectives off: no world was drawn
        return False
    attrs = {"devices": tuple(f"/device:gpu:{i}" for i in range(world)),
             "algorithm": "ring"}
    dtype = rng.choice(entry.dtypes)
    op_type = entry.op_type
    if op_type == "CollectiveBroadcast":
        ref = state.pick(dtype=dtype)
        if ref is None:
            return False
        return state.apply(entry, Instr(op_type=op_type, inputs=(ref,),
                                        attrs=attrs))
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
    refs = [first]
    for _ in range(world - 1):
        other = state.pick(dtype=dtype, shape=state.meta[first].shape)
        if other is None:
            return False
        refs.append(other)
    return state.apply(entry, Instr(op_type=op_type, inputs=tuple(refs),
                                    attrs=attrs), cap=True)


def _sample_variable_chain(state: _GenState, entry: OpDef) -> bool:
    """Variable + ordered update chain, read through the update outputs
    (whichever of the family's ops was drawn)."""
    if not state.options.variables:
        return False
    rng = state.rng
    dtype = rng.choice(("float32", "float64", "int32"))
    init = state.pick(dtype=dtype,
                      pred=lambda m: not m.needs_feed and m.shape)
    if init is None:
        return False
    shape = state.meta[init].shape
    var_index = state.add(Instr(op_type="VariableV2", inputs=(init,)), [])
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
    if meta.shape:
        out = state.combined([loss_ref], op_def("Sum"), meta.dtype, ())
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


# -- operator records --------------------------------------------------------
# One record per shape-rule family: ``sample`` draws the family's
# instructions, ``call`` states one as its builder's arguments. A new
# drawable family is one more entry in _FAMILIES.

class _Family(NamedTuple):
    sample: Callable[[_GenState, OpDef], bool]
    call: Callable[[int, Instr], _Call]


def _attr(ins: Instr, name: str) -> Any:
    value = ins.attrs.get(name)  # a tuple attr is a list literal, not a Ref
    return list(value) if isinstance(value, tuple) else value


def _calls(listed: bool = False, args: tuple = (), kwargs: tuple = (),
           binds: str = "tensor") -> Callable[[int, Instr], _Call]:
    """The call of a builder taking the inputs (each its own argument,
    or ``listed`` as one list), then the named attrs."""
    def call(index: int, ins: Instr) -> _Call:
        refs = list(ins.inputs)
        return _Call(([refs] if listed else refs)
                     + [_attr(ins, a) for a in args],
                     {k: _attr(ins, k) for k in kwargs}, binds)
    return call


def _source_call(index: int, ins: Instr) -> _Call:
    if ins.op_type == "Fill":
        return _Call([list(ins.attrs["shape"]), ins.attrs["value"]],
                     {"dtype": _NP_DTYPES[ins.out_dtypes[0]]})
    return _Call([ins.value])


def _collective_call(index: int, ins: Instr) -> _Call:
    refs, algorithm = list(ins.inputs), ins.attrs.get("algorithm", "ring")
    if ins.op_type == "CollectiveAllReduce":  # the harness's algorithm axis
        algorithm = _Algorithm(algorithm)
    return _Call(refs if ins.op_type == "CollectiveBroadcast" else [refs],
                 {"devices": list(ins.attrs["devices"]),
                  "algorithm": algorithm}, "list")


def _variable_call(index: int, ins: Instr) -> _Call:
    if ins.op_type == "VariableV2":
        return _Call(list(ins.inputs), {"name": f"fuzz_var_{index}"},
                     "variable")
    return _Call([_Var(ins.attrs["var"]), *ins.inputs])


_FAMILIES: dict[str, _Family] = {
    "source": _Family(_sample_source, _source_call),
    "unary_same": _Family(_sample_unary, _calls()),
    "elementwise_broadcast": _Family(_sample_binary, _calls()),
    "dot": _Family(_sample_dot, _calls()),
    "same_shape_n": _Family(_sample_same_shape_n, _calls(listed=True)),
    "matmul": _Family(_sample_matmul,
                      _calls(kwargs=("transpose_a", "transpose_b"))),
    "reduce": _Family(_sample_reduce, _calls(kwargs=("axis", "keepdims"))),
    "cast": _Family(_sample_cast, lambda index, ins: _Call(
        [*ins.inputs, _NP_DTYPES[ins.attrs["dst_dtype"]]])),
    "reshape": _Family(_sample_reshape, _calls(args=("shape",))),
    "transpose": _Family(_sample_transpose, _calls(kwargs=("perm",))),
    "concat": _Family(_sample_concat, _calls(listed=True, kwargs=("axis",))),
    "split": _Family(_sample_split, _calls(
        args=("num_splits",), kwargs=("axis",), binds="list")),
    "stack": _Family(_sample_stack, _calls(listed=True, kwargs=("axis",))),
    "squeeze": _Family(_sample_squeeze, _calls(kwargs=("axis",))),
    "expand_dims": _Family(_sample_expand_dims, _calls(kwargs=("axis",))),
    "slice": _Family(_sample_slice, _calls(args=("begin", "size"))),
    "collective": _Family(_sample_collective, _collective_call),
    "variable_update": _Family(_sample_variable_chain, _variable_call),
}
