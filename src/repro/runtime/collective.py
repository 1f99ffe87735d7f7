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
* **What a collective costs** — *clock-only strategies* registered under
  ``(op type, algorithm)``: generators ``schedule(devices,
  nbytes_per_rank, protocol)`` that yield the DES events of their
  communication rounds over the simulated transports and return
  nothing. A strategy never sees a value, so algorithm choice can only
  ever move the simulated clock, never the bytes — by construction.

:func:`run_collective` is the one entry point joining the two: the
lowered graph op's rank rendezvous (``core/executor.py``), the tests and
``benchmarks/bench_{collectives,collective_algos,ablations}.py`` all
drive it, so a graph op's simulated time is the standalone schedule's
time. The partitioner resolves an op's ``algorithm="auto"`` attr per
payload and world size through :func:`select_algorithm` at lowering time.
Two allreduce schedules ship:

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

Adding a schedule is ~15 lines of clock code::

    @register_strategy("CollectiveAllReduce", "my-algo")
    def _my_allreduce(devices, nbytes_per_rank, protocol):
        env = devices[0].env
        for sends in my_rounds(len(devices), nbytes_per_rank[0]):
            yield _round(devices, sends, protocol, "my-algo")
            yield env.timeout(local_math_seconds)

It must yield nothing for a one-rank world; the builders' ``algorithm=``
attr, the fuzz matrix and the benchmarks pick it up from the registry.
"""

from __future__ import annotations

from typing import Callable, Iterator, NoReturn, Optional, Sequence

import numpy as np

from repro.core.tensor import SymbolicValue, value_nbytes
from repro.errors import InvalidArgumentError
from repro.simnet import transports
from repro.simnet.events import AllOf, Event

__all__ = [
    "run_collective",
    "collective_values",
    "scatter_rows",
    "allreduce_time_lower_bound",
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


def _fresh(shape: Sequence[int], dtype, world: int) -> list[SymbolicValue]:
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
# what a collective costs: the strategy registry
# ---------------------------------------------------------------------------

# (op type, algorithm) -> clock-only schedule generator with the uniform
# signature ``schedule(devices, nbytes_per_rank, protocol)``.
_STRATEGIES: dict[tuple[str, str], Callable] = {}


def register_strategy(op_type: str, algorithm: str):
    """Decorator registering a schedule for ``(op_type, algorithm)``.

    The decorated generator takes ``(devices, nbytes_per_rank, protocol)``
    — one simulated device per rank in ring order, the wire size of each
    rank's input (a broadcast has one entry, the root's payload) and the
    bulk transport — yields DES events for its communication steps, and
    returns nothing. It yields nothing at all for a one-rank world.
    :func:`run_collective` drives whatever schedule is registered; adding
    an algorithm never touches the executor.
    """

    def wrap(fn: Callable) -> Callable:
        key = (op_type, algorithm)
        if key in _STRATEGIES:
            raise InvalidArgumentError(
                f"Strategy {algorithm!r} for {op_type} is already registered"
            )
        _STRATEGIES[key] = fn
        return fn

    return wrap


def get_strategy(op_type: str, algorithm: str) -> Callable:
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
    devices: Sequence,
    values: Sequence,
    protocol: str = "rdma",
    algorithm: str = "ring",
    name: Optional[str] = None,
) -> Iterator:
    """Generator: run one collective across ``devices``.

    Computes the per-rank results with :func:`collective_values`, then
    spends the simulated time of the ``(op_type, algorithm)`` schedule.

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
    yield from schedule(devices, [value_nbytes(v) for v in values], protocol)
    return results


# Nominal per-step fixed cost of the simulated fabrics, expressed as the
# bytes a link moves in one protocol round trip (latency · bandwidth:
# ~6 us RDMA setup x ~8 GB/s effective EDR). Only the *crossover* of the
# auto rule depends on it; explicit algorithm= requests never consult it.
AUTO_LATENCY_BANDWIDTH_BYTES = 48 * 1024


def _tree_steps(world: int) -> int:
    """Full-buffer exchange rounds of the halving/doubling schedule."""
    if world < 2:
        return 0
    power = 1 << (world.bit_length() - 1)
    extra = 0 if power == world else 2  # fold-in + fold-out rounds
    return power.bit_length() - 1 + extra


def select_algorithm(op_type: str, nbytes: Optional[int], world: int) -> str:
    """Resolve ``algorithm="auto"`` for one lowered collective.

    The model behind the rule: a ring step moves ``nbytes / W`` per link
    and there are ``2 (W - 1)`` of them; a tree round moves the full
    buffer and there are ``~log2 W``. With ``C`` the per-step fixed cost
    in bytes (:data:`AUTO_LATENCY_BANDWIDTH_BYTES`), the tree wins iff

        ``s_tree * (C + B) < s_ring * C + (s_ring / W) * B``

    i.e. below a crossover payload proportional to ``C`` — small buffers
    are latency-bound (the ring's ``2 (W-1)`` steps dominate), large ones
    bandwidth-bound (the ring's ``2 (W-1)/W`` bytes win). Unknown static
    payloads (``nbytes is None``) default to the bandwidth-safe ring.
    """
    if op_type != "CollectiveAllReduce" or world < 2:
        return "ring"
    if nbytes is None:
        return "ring"
    s_tree = _tree_steps(world)
    s_ring = 2 * (world - 1)
    if s_tree >= s_ring:
        return "ring"
    slope = s_tree - s_ring / world
    if slope <= 0:
        return "tree"  # fewer steps *and* no wire-byte penalty
    crossover = AUTO_LATENCY_BANDWIDTH_BYTES * (s_ring - s_tree) / slope
    return "tree" if nbytes <= crossover else "ring"


def allreduce_time_lower_bound(nbytes: int, num_ranks: int, link_rate: float) -> float:
    """The textbook ring bound: ``2 (W-1)/W * nbytes / rate``."""
    if num_ranks < 2:
        return 0.0
    return 2.0 * (num_ranks - 1) / num_ranks * nbytes / link_rate


# ---------------------------------------------------------------------------
# the schedules
# ---------------------------------------------------------------------------


def _slowest_numpy_rate(devices: Sequence) -> float:
    """Host vector-op rate of the slowest rank.

    Every reduce-scatter/assembly step completes when the *last* rank
    finishes its local math, so on heterogeneous rings the slowest host
    gates each step.
    """
    return min(d.node.cpu.model.numpy_bytes_rate for d in devices)


def _round(devices: Sequence, sends: Sequence[tuple[int, int, int]],
           protocol: str, label: str) -> Event:
    """One communication round: every ``(src rank, dst rank, nbytes)``
    send runs concurrently; the event fires when the last one lands."""
    env = devices[0].env
    return AllOf(env, [
        env.process(
            transports.transfer(devices[src], devices[dst], nbytes, protocol),
            name=f"{label}:{src}->{dst}",
        )
        for src, dst, nbytes in sends
    ])


def _ring_round(devices: Sequence, chunks: Sequence[int], protocol: str,
                label: str) -> Event:
    """Every rank sends ``chunks[rank]`` bytes to its ring neighbour."""
    world = len(devices)
    return _round(
        devices,
        [(rank, (rank + 1) % world, chunks[rank]) for rank in range(world)],
        protocol, label,
    )


@register_strategy("CollectiveAllReduce", "ring")
def _ring_allreduce(devices: Sequence, nbytes_per_rank: Sequence[int],
                    protocol: str) -> Iterator:
    """``W - 1`` reduce-scatter steps, then ``W - 1`` allgather steps."""
    world = len(devices)
    env = devices[0].env
    # Chunks are ceil-divided; the last partial chunk costs like a full one
    # only in its final step, which the ceil approximates conservatively.
    chunk = -(-nbytes_per_rank[0] // world)
    add_seconds = chunk / _slowest_numpy_rate(devices)
    for step in range(2 * (world - 1)):
        yield _ring_round(devices, [chunk] * world, protocol, "ring")
        # Reduction math on each rank: one chunk-sized vector add per
        # reduce-scatter step. All ranks add concurrently, so the step
        # costs the slowest rank's add (negligible next to the wire time,
        # but accounted).
        if step < world - 1:
            yield env.timeout(add_seconds)


@register_strategy("CollectiveAllReduce", "tree")
def _tree_allreduce(devices: Sequence, nbytes_per_rank: Sequence[int],
                    protocol: str) -> Iterator:
    """Latency-optimal allreduce by recursive halving/doubling.

    With ``W = 2^k`` ranks: ``k`` rounds; in round ``j`` every rank
    exchanges its **full** buffer with the partner at distance ``2^j``
    and adds, all pairs concurrent over duplex links. Non-power-of-two
    worlds fold the ``r = W - 2^k`` extra ranks into their partners first
    (one round) and fan the result back out last (one round). ``O(log W)``
    latency steps instead of the ring's ``2 (W - 1)``, at ``log2(W)`` x
    the wire bytes — the winning trade for scalars and small tensors,
    losing at bandwidth scale (``tests/perf/test_sim_headlines.py`` pins
    the crossover).
    """
    world = len(devices)
    env = devices[0].env
    nbytes = nbytes_per_rank[0]
    add_seconds = nbytes / _slowest_numpy_rate(devices)
    power = 1 << (world.bit_length() - 1)
    extras = range(world - power)
    if extras:
        # Fold-in: extra rank (power + i) sends its addend to partner i.
        yield _round(devices, [(power + i, i, nbytes) for i in extras],
                     protocol, "tree")
        yield env.timeout(add_seconds)
    distance = 1
    while distance < power:
        sends = []
        for rank in range(power):
            if rank & distance == 0:
                sends.append((rank, rank + distance, nbytes))
                sends.append((rank + distance, rank, nbytes))
        yield _round(devices, sends, protocol, "tree")
        yield env.timeout(add_seconds)
        distance <<= 1
    if extras:
        # Fold-out: partners return the finished sum to the extra ranks.
        yield _round(devices, [(i, power + i, nbytes) for i in extras],
                     protocol, "tree")


@register_strategy("CollectiveReduceScatter", "ring")
def _ring_reduce_scatter(devices: Sequence, nbytes_per_rank: Sequence[int],
                         protocol: str) -> Iterator:
    """The ring allreduce's first half standalone.

    ``W - 1`` steps each move one axis-0 block to the ring neighbour (all
    links concurrent) and reduce on arrival — every rank ends holding only
    its ``1/W`` share of the sum, having moved ``(W-1)/W`` of the buffer.
    """
    world = len(devices)
    env = devices[0].env
    chunk = nbytes_per_rank[0] // world
    add_seconds = chunk / _slowest_numpy_rate(devices)
    for _step in range(world - 1):
        yield _ring_round(devices, [chunk] * world, protocol, "reduce_scatter")
        # Every step reduces the arriving block into the local partial.
        yield env.timeout(add_seconds)


@register_strategy("CollectiveAllGather", "ring")
def _ring_allgather(devices: Sequence, nbytes_per_rank: Sequence[int],
                    protocol: str) -> Iterator:
    """``W - 1`` steps; in step ``s`` every rank forwards the chunk it
    received in step ``s - 1`` (its own buffer initially) to the next
    rank, all links active concurrently. Total traffic per link is
    ``(W-1)/W * total_bytes``, the bandwidth-optimal allgather."""
    world = len(devices)
    if world < 2:
        return
    for step in range(world - 1):
        # Rank r forwards the chunk that originated at rank (r - step).
        yield _ring_round(
            devices,
            [nbytes_per_rank[(rank - step) % world] for rank in range(world)],
            protocol, "allgather",
        )
    # Local assembly: every rank copies the W chunks into one contiguous
    # buffer; the slowest host gates the (concurrent) copies.
    yield devices[0].env.timeout(
        sum(nbytes_per_rank) / _slowest_numpy_rate(devices)
    )


@register_strategy("CollectiveBroadcast", "ring")
def _ring_broadcast(devices: Sequence, nbytes_per_rank: Sequence[int],
                    protocol: str) -> Iterator:
    """Pipelined ring broadcast from ``devices[0]``.

    The buffer is cut into ``W`` chunks which stream around the ring; link
    ``j`` (hops from the root) is busy during steps ``j .. j + W - 1``, so
    the whole broadcast takes ``2W - 2`` chunk steps — for large buffers
    the time approaches one buffer traversal regardless of ``W``, instead
    of the root serializing ``W - 1`` full sends.
    """
    world = len(devices)
    chunk = -(-nbytes_per_rank[0] // world)
    for step in range(2 * world - 2):
        yield _round(
            devices,
            [(hop, hop + 1, chunk) for hop in range(world - 1)
             if hop <= step <= hop + world - 1],
            protocol, "bcast",
        )
