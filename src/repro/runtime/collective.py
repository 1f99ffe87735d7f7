"""Collectives — the MPI-style primitives the paper points to.

The discussion section names Uber's Horovod and Cray's ML plugin as the
way past the parameter-server/reducer model: "an MPI communication
backend for functions such as allreduce without needing the use of
dedicated servers". This module defines the four collectives in two
halves that never meet:

* **What a collective computes** — one *value function* per op type
  (:func:`collective_values`): validate the per-rank inputs and produce
  the per-rank results, symbolic or concrete. Concrete sums accumulate in
  rank order starting from zeros, so every caller — the eager kernels of
  :mod:`repro.core.ops.collective_ops`, both executor lanes, the
  benchmarks — gets the same bytes and the same typed error.
* **What a collective costs** — *schedules* registered under
  ``(op type, algorithm)``: pure functions ``rounds(world,
  nbytes_per_rank) -> list[Round]``. A :class:`Round` is the sends that
  run concurrently, each ``(src, dst, chunk, nbytes)``, and the bytes of
  vector math every rank does after them. A schedule never sees a value,
  a device or a protocol, so algorithm choice can only ever move the
  simulated clock, never the bytes — by construction.

:func:`run_collective` joins the two and is the one driver of a round
list: each round is one ``AllOf`` over its transfers, then the slowest
rank's local math. The lowered graph op's rank rendezvous
(``core/executor.py``), the tests and ``benchmarks/bench_ablations.py``
all drive it, so a graph op's simulated time is the standalone
schedule's time. The partitioner resolves an op's ``algorithm="auto"``
attr per payload and world size through :func:`select_algorithm`, which
prices every registered round list. Two allreduce schedules ship:

* **ring** (bandwidth-optimal): the buffer is cut into ``W`` chunks;
  ``W - 1`` reduce-scatter steps followed by ``W - 1`` allgather steps
  each move one chunk to the ring neighbour, all links active
  concurrently. Every rank sends and receives ``2 (W-1)/W`` of the
  buffer — independent of ``W`` — which is exactly why it beats a
  central reducer on big payloads.
* **tree** (latency-optimal, recursive halving/doubling): ``log2 W``
  rounds of full-buffer pairwise exchanges (plus a fold-in/fold-out
  round pair for non-power-of-two worlds). ``O(log W)`` latency steps
  instead of the ring's ``2 (W - 1)``, at ``log2(W)``× the wire bytes —
  the right trade for scalars and small tensors.

Adding a schedule is one function::

    @register_strategy("CollectiveAllReduce", "my-algo")
    def _my_allreduce(world, nbytes_per_rank):
        return [Round(sends, local_bytes) for sends, local_bytes in
                my_steps(world, nbytes_per_rank[0])]

It returns ``[]`` for a one-rank world. The builders' ``algorithm=``
attr, ``auto``, the fuzz matrix and the chunk proof of
``tests/runtime/test_collective.py`` (which replays the rounds over
symbolic chunk ownership and checks the op's postcondition) pick it up
from the registry.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Generator, NamedTuple, NoReturn, Optional, Sequence,
)

import numpy as np

from repro import dtypes
from repro.core.tensor import SymbolicValue, value_nbytes
from repro.errors import InvalidArgumentError
from repro.simnet import transports
from repro.simnet.events import AllOf, Event

__all__ = [
    "run_collective",
    "collective_values",
    "scatter_rows",
    "Round",
    "register_strategy",
    "get_strategy",
    "registered_algorithms",
    "select_algorithm",
]

# ---------------------------------------------------------------------------
# what a collective computes: one value function per op type
# ---------------------------------------------------------------------------


def _fail(name: str, rank: int, problem: str) -> NoReturn:
    raise InvalidArgumentError(f"{name}: rank {rank} {problem}")


def _rank_specs(name: str, values: Sequence, world: int) -> list[SymbolicValue]:
    if len(values) != world:
        raise InvalidArgumentError(
            f"{name}: {world} ranks but {len(values)} values"
        )
    return [SymbolicValue.of(v) for v in values]


def _reduce_specs(name: str, values: Sequence, world: int) -> SymbolicValue:
    """The one buffer spec every rank of a reduction must contribute."""
    specs = _rank_specs(name, values, world)
    for rank, spec in enumerate(specs):
        if spec != specs[0]:
            _fail(name, rank, f"buffers disagree with rank 0: "
                              f"{spec} vs {specs[0]}")
    return specs[0]


def _symbolic(values: Sequence) -> bool:
    return any(isinstance(v, SymbolicValue) for v in values)


def _fresh(shape: Sequence[int], dtype: dtypes.DType,
           world: int) -> list[SymbolicValue]:
    # One *distinct* spec per rank: a result is a fresh buffer on every
    # rank, never an alias of some rank's input.
    return [SymbolicValue(shape, dtype) for _ in range(world)]


def _rank_order_sum(values: Sequence, spec: SymbolicValue) -> np.ndarray:
    """The canonical sum: zeros, then rank 0, 1, ... — the accumulation
    order that makes every frontend, lane and algorithm byte-identical."""
    total = np.zeros(spec.shape, dtype=spec.dtype.np_dtype)
    for value in values:
        total = total + np.asarray(value)
    return total


def scatter_rows(lead: int, world: int, who: str) -> int:
    """Rows each rank keeps when ``lead`` leading rows scatter over
    ``world`` ranks (shared by the builder's shape function)."""
    if lead % world != 0:
        raise InvalidArgumentError(
            f"{who}: reduce_scatter needs a leading dimension divisible by "
            f"the world size: {lead} rows across {world} ranks"
        )
    return lead // world


def _allreduce_values(name: str, values: Sequence, world: int) -> list:
    spec = _reduce_specs(name, values, world)
    if _symbolic(values):
        return _fresh(spec.shape, spec.dtype, world)
    total = _rank_order_sum(values, spec)
    return [total.copy() for _ in range(world)]


def _reduce_scatter_values(name: str, values: Sequence, world: int) -> list:
    spec = _reduce_specs(name, values, world)
    if spec.ndim == 0:
        _fail(name, 0, "is a scalar: reduce_scatter needs tensors of "
                       "rank >= 1")
    rows = scatter_rows(spec.shape[0], world, f"{name}: rank 0")
    if _symbolic(values):
        return _fresh((rows, *spec.shape[1:]), spec.dtype, world)
    total = _rank_order_sum(values, spec)
    return [
        np.ascontiguousarray(total[rank * rows:(rank + 1) * rows])
        for rank in range(world)
    ]


def _allgather_values(name: str, values: Sequence, world: int) -> list:
    specs = _rank_specs(name, values, world)
    first = specs[0]
    for rank, spec in enumerate(specs):
        if spec.ndim == 0:
            _fail(name, rank, "is a scalar: allgather needs tensors of "
                              "rank >= 1")
        if spec.shape[1:] != first.shape[1:] or spec.dtype != first.dtype:
            _fail(name, rank, f"disagrees with rank 0 beyond axis 0: "
                              f"{spec} vs {first}")
    if _symbolic(values):
        rows = sum(spec.shape[0] for spec in specs)
        return _fresh((rows, *first.shape[1:]), first.dtype, world)
    full = np.concatenate([np.asarray(v) for v in values], axis=0)
    return [full.copy() for _ in range(world)]


def _broadcast_values(name: str, values: Sequence, world: int) -> list:
    if len(values) != 1:
        raise InvalidArgumentError(
            f"{name}: a broadcast takes one value, the root's (rank 0) "
            f"payload, not {len(values)}"
        )
    value = values[0]
    if isinstance(value, SymbolicValue):
        return _fresh(value.shape, value.dtype, world)
    arr = np.asarray(value)
    return [arr.copy() for _ in range(world)]


_VALUE_FUNCTIONS: dict[str, Callable[[str, Sequence, int], list]] = {
    "CollectiveAllReduce": _allreduce_values,
    "CollectiveReduceScatter": _reduce_scatter_values,
    "CollectiveAllGather": _allgather_values,
    "CollectiveBroadcast": _broadcast_values,
}


def collective_values(op_type: str, values: Sequence, world: int,
                      name: Optional[str] = None) -> list:
    """What ``op_type`` computes: one result per rank, in rank order.

    Args:
        op_type: one of the four ``Collective*`` op types.
        values: one ndarray or :class:`SymbolicValue` per rank (a
            broadcast has a single value, the root's payload).
        world: number of ranks.
        name: the op's name for error messages (default: the op type).

    Any symbolic input makes every result symbolic (one distinct spec per
    rank); concrete results are independent copies. A validation failure
    is an :class:`InvalidArgumentError` naming the op and the first
    offending rank — the same text from every caller.
    """
    if world < 1:
        raise InvalidArgumentError("a collective needs at least one rank")
    return _VALUE_FUNCTIONS[op_type](name or op_type, values, world)


# ---------------------------------------------------------------------------
# what a collective costs: schedules as round lists
# ---------------------------------------------------------------------------

# (src rank, dst rank, chunk, nbytes)
Send = tuple[int, int, int, int]


class Round(NamedTuple):
    """One communication round of a schedule.

    ``sends`` run concurrently and read what each sender held before the
    round; ``chunk`` names one of the (at most ``W``) pieces the schedule
    cuts the buffer into. After the sends every rank spends
    ``local_bytes`` of vector math, adding what arrived into its own
    partial of the chunk; with ``None`` there is no local step and a
    receive replaces the chunk.
    """

    sends: list[Send]
    local_bytes: Optional[int] = None


Schedule = Callable[[int, Sequence[int]], list[Round]]

# (op type, algorithm) -> schedule
_STRATEGIES: dict[tuple[str, str], Schedule] = {}


def register_strategy(op_type: str,
                      algorithm: str) -> Callable[[Schedule], Schedule]:
    """Decorator registering a schedule for ``(op_type, algorithm)``.

    The decorated function takes ``(world, nbytes_per_rank)`` — the rank
    count and the wire size of each rank's input (a broadcast has one
    entry, the root's payload) — and returns its :class:`Round` list,
    ``[]`` for a one-rank world. :func:`run_collective` plays whatever
    schedule is registered; adding an algorithm never touches the
    executor.
    """

    def wrap(fn: Schedule) -> Schedule:
        key = (op_type, algorithm)
        if key in _STRATEGIES:
            raise InvalidArgumentError(
                f"Strategy {algorithm!r} for {op_type} is already registered"
            )
        _STRATEGIES[key] = fn
        return fn

    return wrap


def get_strategy(op_type: str, algorithm: str) -> Schedule:
    """The registered schedule for ``(op_type, algorithm)``."""
    try:
        return _STRATEGIES[(op_type, algorithm)]
    except KeyError:
        raise InvalidArgumentError(
            f"No {algorithm!r} algorithm registered for {op_type}; "
            f"registered: {list(registered_algorithms(op_type)) or 'none'}"
        ) from None


def registered_algorithms(op_type: str) -> tuple[str, ...]:
    """Algorithms registered for ``op_type``, sorted (drives sweeps)."""
    return tuple(sorted(a for (t, a) in _STRATEGIES if t == op_type))


def run_collective(
    op_type: str,
    devices: Sequence[Any],
    values: Sequence[Any],
    protocol: str = "rdma",
    algorithm: str = "ring",
    name: Optional[str] = None,
) -> Generator[Event, Any, list[Any]]:
    """Generator: run one collective across ``devices``.

    Computes the per-rank results with :func:`collective_values`, then
    plays the ``(op_type, algorithm)`` schedule's rounds on the simulated
    clock: all of a round's transfers concurrently, then its local math
    at the slowest rank's NumPy rate (every rank adds at once, so the
    last to finish gates the step).

    Args:
        op_type: one of the four ``Collective*`` op types.
        devices: one simulated device per rank (the ring order; a
            broadcast's root is ``devices[0]`` — rotate the list to move
            it).
        values: one ndarray or :class:`SymbolicValue` per rank, or the
            single root payload for a broadcast.
        protocol: bulk transport for the collective traffic.
        algorithm: a registered algorithm for ``op_type``.
        name: the op's name for error messages.

    Returns (via generator return value): the list of per-rank results.
    """
    schedule = get_strategy(op_type, algorithm)
    results = collective_values(op_type, values, len(devices), name)
    rounds = schedule(len(devices), [value_nbytes(v) for v in values])
    env = devices[0].env
    rate = min(d.node.cpu.model.numpy_bytes_rate for d in devices)
    for sends, local_bytes in rounds:
        yield AllOf(env, [
            env.process(
                transports.transfer(devices[src], devices[dst], nbytes,
                                    protocol),
                name=f"{algorithm}:{src}->{dst}",
            )
            for src, dst, _chunk, nbytes in sends
        ])
        if local_bytes is not None:
            yield env.timeout(local_bytes / rate)
    return results


# Nominal per-step fixed cost of the simulated fabrics, expressed as the
# bytes a link moves in one protocol round trip (latency · bandwidth:
# ~6 us RDMA setup x ~8 GB/s effective EDR). Only the *crossover* of the
# auto rule depends on it; explicit algorithm= requests never consult it.
AUTO_LATENCY_BANDWIDTH_BYTES = 48 * 1024


def select_algorithm(op_type: str, nbytes: Optional[int], world: int) -> str:
    """Resolve ``algorithm="auto"`` for one lowered collective.

    Prices every registered schedule off its round list: a round costs
    the fixed per-step ``C`` (:data:`AUTO_LATENCY_BANDWIDTH_BYTES`) plus
    its largest send, and the cheapest sum wins, a tie going to the
    schedule with fewer rounds. Small buffers are latency-bound, so the
    tree's ``~log2 W`` rounds beat the ring's ``2 (W - 1)``; large ones
    are bandwidth-bound, so the ring's ``1/W`` chunks beat the tree's
    full buffers. Unknown static payloads (``nbytes is None``) default to
    the bandwidth-safe ring.
    """
    if nbytes is None:
        return "ring"
    nbytes_per_rank = [nbytes] * world

    def price(algorithm: str) -> tuple[int, int]:
        rounds = get_strategy(op_type, algorithm)(world, nbytes_per_rank)
        return sum(
            AUTO_LATENCY_BANDWIDTH_BYTES + max(send[3] for send in r.sends)
            for r in rounds
        ), len(rounds)

    return min(registered_algorithms(op_type), key=price)


# ---------------------------------------------------------------------------
# the schedules
# ---------------------------------------------------------------------------


def _ring_reduce_scatter_rounds(world: int, chunk: int) -> list[Round]:
    """``W - 1`` steps; in step ``s`` rank ``r`` passes its partial of
    chunk ``r - s - 1`` to rank ``r + 1``, which adds its own. Rank ``r``
    ends holding chunk ``r``'s full sum."""
    return [
        Round([(rank, (rank + 1) % world, (rank - step - 1) % world, chunk)
               for rank in range(world)], chunk)
        for step in range(world - 1)
    ]


def _ring_allgather_rounds(world: int,
                           block_nbytes: Sequence[int]) -> list[Round]:
    """``W - 1`` steps; in step ``s`` rank ``r`` forwards block ``r - s``
    (its own first, then the one it just received) to rank ``r + 1``."""
    return [
        Round([(rank, (rank + 1) % world, (rank - step) % world,
                block_nbytes[(rank - step) % world])
               for rank in range(world)])
        for step in range(world - 1)
    ]


@register_strategy("CollectiveAllReduce", "ring")
def _ring_allreduce(world: int, nbytes_per_rank: Sequence[int]) -> list[Round]:
    """``W - 1`` reduce-scatter steps, then ``W - 1`` allgather steps."""
    # Chunks are ceil-divided; the last partial chunk costs like a full one
    # only in its final step, which the ceil approximates conservatively.
    chunk = -(-nbytes_per_rank[0] // world)
    return (_ring_reduce_scatter_rounds(world, chunk)
            + _ring_allgather_rounds(world, [chunk] * world))


@register_strategy("CollectiveAllReduce", "tree")
def _tree_allreduce(world: int, nbytes_per_rank: Sequence[int]) -> list[Round]:
    """Latency-optimal allreduce by recursive halving/doubling.

    With ``W = 2^k`` ranks: ``k`` rounds; in round ``j`` every rank
    exchanges its **full** buffer (one chunk) with the partner at
    distance ``2^j`` and adds, all pairs concurrent over duplex links.
    Non-power-of-two worlds fold the ``r = W - 2^k`` extra ranks into
    their partners first (one round) and fan the result back out last
    (one round). ``O(log W)`` latency steps instead of the ring's
    ``2 (W - 1)``, at ``log2(W)`` x the wire bytes — the winning trade
    for scalars and small tensors, losing at bandwidth scale
    (``tests/perf/test_sim_headlines.py`` pins the crossover).
    """
    nbytes = nbytes_per_rank[0]
    power = 1 << (world.bit_length() - 1)
    extras = range(world - power)
    rounds: list[Round] = []
    if extras:
        # Fold-in: extra rank (power + i) sends its addend to partner i.
        rounds.append(Round([(power + i, i, 0, nbytes) for i in extras],
                            nbytes))
    distance = 1
    while distance < power:
        rounds.append(Round([
            send
            for rank in range(power) if rank & distance == 0
            for send in ((rank, rank + distance, 0, nbytes),
                         (rank + distance, rank, 0, nbytes))
        ], nbytes))
        distance <<= 1
    if extras:
        # Fold-out: partners return the finished sum to the extra ranks.
        rounds.append(Round([(i, power + i, 0, nbytes) for i in extras]))
    return rounds


@register_strategy("CollectiveReduceScatter", "ring")
def _ring_reduce_scatter(world: int,
                         nbytes_per_rank: Sequence[int]) -> list[Round]:
    """The ring allreduce's first half standalone: every rank ends
    holding only its ``1/W`` axis-0 block of the sum, having moved
    ``(W-1)/W`` of the buffer."""
    return _ring_reduce_scatter_rounds(world, nbytes_per_rank[0] // world)


@register_strategy("CollectiveAllGather", "ring")
def _ring_allgather(world: int, nbytes_per_rank: Sequence[int]) -> list[Round]:
    """``W - 1`` forwarding steps, all links active concurrently: total
    traffic per link is ``(W-1)/W * total_bytes``, the bandwidth-optimal
    allgather. The last step's local math is the assembly: every rank
    copies the ``W`` blocks into one contiguous buffer."""
    rounds = _ring_allgather_rounds(world, nbytes_per_rank)
    if rounds:
        rounds[-1] = rounds[-1]._replace(local_bytes=sum(nbytes_per_rank))
    return rounds


@register_strategy("CollectiveBroadcast", "ring")
def _ring_broadcast(world: int, nbytes_per_rank: Sequence[int]) -> list[Round]:
    """Pipelined ring broadcast from rank 0.

    The buffer is cut into ``W`` chunks which stream around the ring; link
    ``j`` (hops from the root) carries chunk ``s - j`` in steps ``s = j ..
    j + W - 1``, so the whole broadcast takes ``2W - 2`` chunk steps — for
    large buffers the time approaches one buffer traversal regardless of
    ``W``, instead of the root serializing ``W - 1`` full sends.
    """
    chunk = -(-nbytes_per_rank[0] // world)
    return [
        Round([(hop, hop + 1, step - hop, chunk) for hop in range(world - 1)
               if hop <= step <= hop + world - 1])
        for step in range(2 * world - 2)
    ]
