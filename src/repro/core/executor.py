"""Dependency-counting plan execution on the discrete-event simulator.

The executor dispatches items off a ready list, mirroring TensorFlow's
executor rather than spawning one thread per node: the plan carries a
static dependency count per item (``ExecutionPlan.dep_counts``); a run
copies it, and when an item completes its dependents' counters drop and
freshly-ready items are dispatched. The plan itself is never written:
everything a run produces lives in its :class:`ExecutionState`.

Dispatch has three lanes:

* **inline fast path** — ``const`` items, ``recv`` items (a recv reads
  its send's output slot) and ops whose kernels are plain
  functions with zero-duration costs (``Const``, ``Identity``, variable
  reads, ``Reshape``-style metadata ops, ``NoOp``) run synchronously in
  the dispatcher, with no simulator :class:`Process`, no calendar events,
  and only a synchronous claim/return on the device FIFO;
* **light lane** — non-generator kernels that do advance the clock (or
  must wait for a device slot) run through one slotted continuation per
  wait, never a closure: the kernel's cost timeout is the op's
  completion record (:class:`_OpTimeout`), so an op on a free device is
  one calendar entry and one object; a wait for the device slot is a
  :class:`_Granted`, a wait for the task's GIL an :class:`_OnGil`. Same
  simulated timestamps as a process, but no generator machinery and
  roughly half the calendar events;
* **driven-generator lane** — generator kernels (queues, datasets, tile
  I/O) and ``send`` items (multi-event transport modelling) are driven
  through event callbacks: identical events and timestamps to a simulator
  process, minus the process object and its bookkeeping events.

``executor_fast_path=False`` bypasses all three lanes and runs the
reference executor — one simulator :class:`Process` per plan item, each
waiting on an ``AllOf`` of its producers (``RunMetadata.process_items``
counts those; fast-path runs report ``fast_path_items`` instead). The
fuzz harness uses it as its value and simulated-time oracle.

Device serialization happens through the device's
:class:`~repro.simnet.resources.Resource`; cross-device movement is a
``send`` item charging :mod:`repro.simnet.transports` for the wire time
and leaving the value in its own slot, which its ``recv`` reads.

Whatever an item's dispatch reads and its plan fixes is read off the
item's dispatch record, filled by ``build_plan``: the device-table entry
(``Item.entry``: task runtime, device, memory pool; a send's
``dst_entry``), an op's lane (``Item.lane``), its outputs' bytes
(``Item.out_nbytes``: a priced op's specs, a const's values, and the
send and recv of either) and a priced op's seconds (``Item.seconds``).
A run resolves none of it again; only a value no plan fixes is measured.
An op, a const or a collective leg completes through :func:`_complete`,
in either executor. Device memory is refcounted per output slot
(``Item.slot`` + output index) in per-run lists, allocated in
:meth:`ExecutionState.allocate` only; a slot's bytes go back to its pool
when its last reader consumed it, or at run end.
"""

from __future__ import annotations

from heapq import heappush
from types import GeneratorType
from typing import Any, Optional

from repro.core.kernels.registry import KernelContext, dispatch
from repro.core.metadata import NodeStats, RunMetadata, TransferStats
from repro.core.partition import (
    FEED,
    VARIABLE_OPS,
    ExecutionPlan,
    Item,
    cost_seconds,
)
from repro.core.tensor import value_nbytes
from repro.errors import DeadlineExceededError, InternalError
from repro.runtime.collective import run_collective
from repro.runtime.retry import retry_gen
from repro.simnet import transports
from repro.simnet.events import (
    AllOf, Driver, Environment, Event, Timeout, arm_deadline,
)

__all__ = [
    "ExecutionState",
    "launch_plan",
    "DEFAULT_COLLECTIVE_JOIN_TIMEOUT",
]

# Default deadline (simulated seconds) on a collective's rank rendezvous.
# Far above any legitimate single-op completion in this codebase's
# workloads (the largest modelled transfers finish in seconds), so a
# rank that never arrives — a crashed worker, a stalled producer chain —
# turns a silent deadlock into a DeadlineExceededError naming the
# missing ranks. ``SessionConfig.operation_timeout_ms`` overrides it.
DEFAULT_COLLECTIVE_JOIN_TIMEOUT = 300.0


class _CollectiveGroup:
    """Per-run rendezvous of one lowered collective op's rank legs.

    Every leg deposits its device and (for data-carrying ranks) its input
    value; the last leg to arrive drives ``run_collective`` — the op
    type's value function, then the chosen schedule over the simulated
    transports — and publishes the per-rank results through ``done``.
    Legs block on ``done`` without holding a device slot, so a straggling
    producer on a peer rank can never deadlock the schedule.
    """

    __slots__ = ("op", "world", "devices", "values", "arrived_ranks",
                 "done", "results")

    def __init__(self, env: Environment, op):
        self.op = op
        self.world = op.get_attr("world")
        self.devices: list = [None] * self.world
        # One slot per data-carrying rank (a broadcast has one: the root).
        self.values: list = [None] * len(op.inputs)
        self.arrived_ranks: list[int] = []
        self.done = env.event()
        self.results: Optional[list] = None

    def missing_ranks(self) -> list[int]:
        present = set(self.arrived_ranks)
        return [r for r in range(self.world) if r not in present]


class ExecutionState:
    """Everything one session run writes; the plan it executes is read-only.

    ``values[item.uid]`` holds the item's output list once it completed
    (``None`` before). Device memory is accounted per output slot
    (``Item.slot`` + output index): readers still to come, copied from
    ``plan.consumer_counts``, and the bytes and pool the slot holds. All
    of it dies with this object at run end, so any number of runs —
    concurrent ``run_gen`` coroutines, serving threads, a failed run's
    late completions — can share one cached plan.
    """

    def __init__(
        self,
        env: Environment,
        plan: ExecutionPlan,
        protocol: str,
        feeds: dict[str, Any],
        symbolic: bool,
        graph_seed: Optional[int],
        metadata: Optional[RunMetadata] = None,
        trace: bool = False,
        fast_path: bool = True,
        deadline_seconds: Optional[float] = None,
        retry_policy=None,
        fault_injector=None,
    ):
        self.env = env
        self.plan = plan
        self.values: list[Any] = [None] * len(plan.items)
        self.protocol = protocol
        self.feeds = feeds
        self.symbolic = symbolic
        self.graph_seed = graph_seed
        self.metadata = metadata
        self.trace = trace
        self.fast_path = fast_path
        # Fault tolerance: per-run deadline (None = no run watchdog, but
        # collectives still get DEFAULT_COLLECTIVE_JOIN_TIMEOUT), retry
        # policy for transient transport faults, and the machine's fault
        # injector (None when no faults are installed).
        self.deadline_seconds = deadline_seconds
        self.retry_policy = retry_policy
        self.fault_injector = fault_injector
        # Items parked because their task is down (diagnostics).
        self.stalled_items: list[Item] = []
        self._readers = plan.consumer_counts.copy()
        self._held = [0] * len(self._readers)
        self._pools: list = [None] * len(self._readers)
        self._released = False  # set by release_all: the run is over
        # Collective op name -> this run's rank-leg rendezvous.
        self._collective_groups: dict[str, _CollectiveGroup] = {}
        # Kernel contexts carry the run's feeds: per run.
        self._ctx_cache: dict[str, KernelContext] = {}

    # -- resolution ------------------------------------------------------------
    def kernel_ctx(self, item: Item) -> KernelContext:
        """The (immutable-per-run) kernel context for ``item``'s device."""
        ctx = self._ctx_cache.get(item.device)
        if ctx is None:
            task, device = item.entry[0], item.entry[1]
            ctx = KernelContext(
                symbolic=self.symbolic,
                feeds=self.feeds,
                resources=task.resources,
                env=self.env,
                device=device,
                worker=task,
                graph_seed=self.graph_seed,
            )
            self._ctx_cache[item.device] = ctx
        return ctx

    def task_down(self, item: Item) -> bool:
        """True when ``item``'s task is currently crashed."""
        if self.fault_injector is None:
            return False
        return self.fault_injector.is_down(*item.entry[3])

    def park_stalled(self, item: Item) -> None:
        """Record an item stalled on a down task; a peer's deadline or
        the run watchdog reports it (the item itself never completes)."""
        self.stalled_items.append(item)
        if self.metadata is not None:
            self.metadata.stalled_items += 1

    def count_deadline(self) -> None:
        if self.metadata is not None:
            self.metadata.deadline_exceeded += 1

    def collective_group(self, item: Item) -> _CollectiveGroup:
        """The (per-run) rank rendezvous of ``item``'s collective op.

        Created on the first leg's arrival, armed with a join watchdog:
        if the remaining ranks have not arrived within the run deadline
        (or :data:`DEFAULT_COLLECTIVE_JOIN_TIMEOUT`), ``done`` fails
        with :class:`DeadlineExceededError` naming arrived and missing
        ranks — a dropped rank can never silently deadlock the ring.
        """
        group = self._collective_groups.get(item.op.name)
        if group is None:
            group = _CollectiveGroup(self.env, item.op)
            self._collective_groups[item.op.name] = group
            self._arm_group_watchdog(group)
        return group

    def _arm_group_watchdog(self, group: _CollectiveGroup) -> None:
        timeout_s = (
            self.deadline_seconds
            if self.deadline_seconds is not None
            else DEFAULT_COLLECTIVE_JOIN_TIMEOUT
        )

        def expire():
            missing = group.missing_ranks()
            if not missing:
                # Every rank joined; the schedule itself is still in
                # flight (a long transfer). That is the run watchdog's
                # jurisdiction, not the join deadline's.
                return
            down = (
                self.fault_injector.down_tasks() if self.fault_injector else []
            )
            detail = (
                f" (tasks down: {down})" if down else ""
            )
            self.count_deadline()
            # Defuse: with no leg waiting yet, an undefused failure would
            # abort the simulation loop instead of surfacing per-run.
            group.done.fail(DeadlineExceededError(
                f"Collective {group.op.name!r} join deadline of "
                f"{timeout_s:g} sim-seconds exceeded: rank(s) {missing} of "
                f"world {group.world} never arrived "
                f"(arrived: {sorted(group.arrived_ranks)}){detail}"
            )).defused()

        # Detached the moment ``done`` fires: one armed far-future timer
        # per collective per run must not pin the group's tensors.
        arm_deadline(self.env, timeout_s, group.done, expire)

    # -- memory refcounting -------------------------------------------------------
    def allocate(self, item: Item, outputs: list) -> None:
        """Allocate device memory for an item's outputs: the bytes its
        record states (``Item.out_nbytes``), else the values' own."""
        pool = item.entry[2]
        sizes = item.out_nbytes
        if sizes is None:
            if item.kind == "op" and item.op.type in VARIABLE_OPS:
                # Alias of the variable's persistent storage: account once.
                op = item.op
                var_name = (op.get_attr("var_name") or op.name
                            if op.type != "VariableV2" else op.name)
                memory = item.entry[0].resources.variable_memory
                nbytes = sum(map(value_nbytes, outputs))
                previous = memory.get(var_name)
                if previous is None or previous[1] != nbytes:
                    if previous is not None:
                        previous[0].free(previous[1])
                    pool.allocate(nbytes)
                    memory[var_name] = (pool, nbytes)
                return
            sizes = tuple(map(value_nbytes, outputs))
        if self._released:
            # An item of a failed run completing inside a later one (its
            # timeout was already armed): the run's memory went back in
            # release_all, and nothing would ever free a new allocation.
            return
        slot = item.slot
        readers = self._readers
        for nbytes in sizes:
            pool.allocate(nbytes)
            if readers[slot]:
                self._held[slot] = nbytes
                self._pools[slot] = pool
            else:
                pool.free(nbytes)  # dead output: freed once produced
            slot += 1

    def consume(self, item: Item) -> None:
        """Count ``item``'s reads of its sources: a slot's bytes go back
        to its pool once its last reader consumed it."""
        readers, held = self._readers, self._held
        for producer, idx in item.sources:
            if producer is not FEED:
                slot = producer.slot + idx
                readers[slot] -= 1
                nbytes = held[slot]
                if nbytes and readers[slot] <= 0:
                    held[slot] = 0
                    self._pools[slot].free(nbytes)

    def release_all(self) -> None:
        """Free whatever survived the run (fetched values, errors)."""
        held = self._held
        for slot, nbytes in enumerate(held):
            if nbytes:
                held[slot] = 0
                self._pools[slot].free(nbytes)
        self._released = True

    # -- value plumbing -----------------------------------------------------------
    def resolve_source(self, source) -> Any:
        head, idx = source
        if head is FEED:
            return self.feeds[idx]
        values = self.values[head.uid]
        if values is None:
            raise InternalError(f"Source {head!r} has not produced values")
        return values[idx]


def launch_plan(state: ExecutionState) -> Optional[Event]:
    """Dispatch the plan; returns an event firing when every item is done.

    With the fast path enabled (default) the dependency-counting
    dispatcher runs; ``executor_fast_path=False`` runs the reference
    executor — one simulator process per plan item, each waiting on an
    ``AllOf`` of its producers' processes — the fuzz harness's value and
    simulated-time oracle.

    Returns ``None`` for empty plans (everything fetched was fed).
    """
    if not state.plan.items:
        return None
    if not state.fast_path:
        return _legacy_launch(state)
    return _Dispatcher(state).start()


def _item_desc(item: Item) -> str:
    if item.op is not None:
        return f"{item.kind}:{item.op.name}@{item.device}"
    if item.kind == "send":
        return f"send:{item.tensor_name}@{item.device} -> {item.dst_device}"
    if item.kind == "recv":
        return f"recv:{item.tensor_name}@{item.device}"
    return f"{item.kind}:{item.uid}@{item.device}"


def _run_deadline_message(state: ExecutionState, timeout_s: float,
                          remaining: int) -> str:
    """Diagnostic for a run-level deadline: what is stuck, and why."""
    parts = [
        f"Session run exceeded operation timeout of {timeout_s:g} "
        f"sim-seconds: {remaining} of {len(state.plan.items)} plan items "
        f"incomplete"
    ]
    if state.stalled_items:
        stalled = [_item_desc(it) for it in state.stalled_items[:4]]
        parts.append(f"items stalled on down tasks: {stalled}")
    if state.fault_injector is not None:
        down = state.fault_injector.down_tasks()
        if down:
            parts.append(f"tasks down: {down}")
    in_flight = [
        _item_desc(it) for it in state.plan.items
        if it.kind == "send" and _send_in_flight(state, it)
    ]
    if in_flight:
        parts.append(f"sends still in flight: {in_flight[:4]}")
    return "; ".join(parts)


def _send_in_flight(state: ExecutionState, send: Item) -> bool:
    """Started (its one producer completed) but not yet delivered."""
    producer = send.sources[0][0] if send.sources else send.extra_deps[0]
    return (
        state.values[send.uid] is None
        and state.values[producer.uid] is not None
        and send not in state.stalled_items
    )


def _legacy_launch(state: ExecutionState) -> Event:
    """Spawn every item as a process up front (the pre-optimizer design)."""
    env = state.env
    # This run's process per item, by uid; each item's generator reads its
    # producers' entries on its first step, after every one was spawned.
    processes: list = []
    for item in state.plan.items:
        processes.append(env.process(
            _legacy_item_proc(state, item, processes), name=f"item:{item.uid}"
        ))
    if state.metadata is not None:
        state.metadata.process_items += len(processes)
    inner = _RunJoin(env, processes)
    if state.deadline_seconds is None:
        return inner
    # Run watchdog, legacy lane: mirror the fast path's per-run deadline
    # by racing the AllOf against a timeout through a wrapper event. The
    # run-level backstop fires at twice the operation deadline so the
    # sharper per-op watchdogs (collective join, recv) report first.
    done = env.event()
    timeout_s = state.deadline_seconds * 2.0

    def forward(ev):
        if not ev._ok:
            ev._defused = True
        if done.triggered:
            return
        if ev._ok:
            done.succeed(ev._value)
        else:
            done.fail(ev._value)

    def expire():
        if inner.triggered:
            return
        state.count_deadline()
        remaining = sum(1 for p in processes if p.is_alive)
        done.fail(DeadlineExceededError(
            _run_deadline_message(state, timeout_s, remaining)
        ))

    inner.callbacks.append(forward)
    arm_deadline(env, timeout_s, done, expire)
    return done


class _RunJoin(AllOf):
    """The reference executor's run: an ``AllOf`` of every item's process
    whose failure waits for its fallout.

    Each process waiting on a failed item fails in turn, one URGENT
    calendar entry each, at the instant of the failure. The join fails
    after them, from a zero-delay timeout (it pops after every URGENT
    entry of its instant), so the cascade is played by this run and not
    by the next run on the session, and the clock does not move. Then
    every failed process lets go of the error: the raise has it, and its
    traceback holds their frames.
    """

    __slots__ = ("_processes", "_failing")

    def __init__(self, env: Environment, processes: list):
        self._processes = processes
        self._failing = False
        super().__init__(env, processes)

    def _check(self, event: Event) -> None:
        if event._ok or self.triggered:
            AllOf._check(self, event)
            return
        event._defused = True
        if not self._failing:
            self._failing = True
            self.env.timeout(0.0, event._value).callbacks.append(
                self._fail_after_fallout)

    def _fail_after_fallout(self, timeout: Event) -> None:
        for process in self._processes:
            if not process._ok:
                process._value = None
        self._processes = []
        self.fail(timeout._value)


def _legacy_dependencies(item: Item, processes: list) -> list:
    deps = []
    seen = set()
    for source in item.sources:
        if source[0] is not FEED:
            producer = source[0]
            if producer.uid not in seen:
                seen.add(producer.uid)
                deps.append(processes[producer.uid])
    for dep in item.extra_deps:
        if dep.uid not in seen:
            seen.add(dep.uid)
            deps.append(processes[dep.uid])
    return deps


def _legacy_item_proc(state: ExecutionState, item: Item, processes: list):
    if state.task_down(item):
        # The task died: park forever on a fresh event. Peers' deadlines
        # (collective join, recv, run watchdog) report the loss.
        state.park_stalled(item)
        yield state.env.event()
    deps = _legacy_dependencies(item, processes)
    if deps:
        yield AllOf(state.env, deps)
    if state.task_down(item):
        # Crashed while waiting on producers (the fault fired mid-run).
        state.park_stalled(item)
        yield state.env.event()
    yield from _item_proc(state, item)


class _Driven(Driver):
    """A plan item's generator, driven through event callbacks.

    Semantically identical to spawning the generator as a simulator
    process — same events, same timestamps — but skips the process
    object, its Initialize event and its completion event (the loop is
    :class:`~repro.simnet.events.Driver`'s). Failures of yielded events
    are thrown into the generator (so its cleanup runs) and then surface
    through the run's done event.
    """

    __slots__ = ("dispatcher", "item", "gen")

    def __init__(self, dispatcher: "_Dispatcher", item: Item, gen):
        self.dispatcher = dispatcher
        self.item = item
        self.gen = gen

    def returned(self, value) -> None:
        self.dispatcher._item_done(self.item)

    def raised(self, exc: BaseException) -> None:
        self.dispatcher._fail(exc)


class _OpTimeout(Timeout):
    """A light-lane op's cost timeout, which is also its completion record.

    Built flat as :class:`~repro.simnet.events.Timeout` is (same check,
    same calendar key), with one callback, :func:`_op_elapsed`. Same rule
    as :class:`_Driven`: it holds the dispatcher and the op's results and
    nothing that refers back to it; an error fails the run, not the
    simulator.
    """

    __slots__ = ("dispatcher", "item", "request", "outputs", "start")

    def __init__(self, dispatcher: "_Dispatcher", item: Item, request,
                 outputs, start: float, delay: float):
        if not delay >= 0:  # also rejects NaN, which `delay < 0` lets through
            raise ValueError(f"delay must be >= 0, got {delay}")
        env = dispatcher.env
        self.env = env
        self.callbacks = [_op_elapsed]
        self._value = None
        self._ok = True
        self._defused = False
        self._processed = False
        self.delay = delay
        self.dispatcher = dispatcher
        self.item = item
        self.request = request
        self.outputs = outputs
        self.start = start
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now + delay, seq, self))


def _op_elapsed(op: Any) -> None:
    """``op``, an :class:`_OpTimeout`, has elapsed: complete the op, then
    cascade."""
    dispatcher = op.dispatcher
    try:
        _complete(dispatcher.state, op.item, op.request, op.outputs, op.start)
        dispatcher._item_done(op.item)
    except BaseException as exc:
        dispatcher._fail(exc)


class _Granted:
    """What a queued op's device request calls once granted: the op's
    body, with the slot held. ``start`` is when the op was dispatched."""

    __slots__ = ("dispatcher", "item", "start")

    def __init__(self, dispatcher: "_Dispatcher", item: Item, start: float):
        self.dispatcher = dispatcher
        self.item = item
        self.start = start

    def __call__(self, request) -> None:
        dispatcher = self.dispatcher
        try:
            if dispatcher._run_op_body(self.item, request, self.start):
                dispatcher._item_done(self.item)
        except BaseException as exc:
            dispatcher._fail(exc)


class _OnGil:
    """A GIL-lane op's continuation, called twice: once its task's GIL is
    granted (it holds it for the op's seconds), and once those elapsed
    (it lets the GIL go and completes the op)."""

    __slots__ = ("dispatcher", "item", "request", "outputs", "start",
                 "seconds", "gil_req")

    def __init__(self, dispatcher: "_Dispatcher", item: Item, request,
                 outputs, start: float, seconds: float):
        self.dispatcher = dispatcher
        self.item = item
        self.request = request
        self.outputs = outputs
        self.start = start
        self.seconds = seconds
        self.gil_req: Optional[Event] = None

    def __call__(self, event: Event) -> None:
        dispatcher = self.dispatcher
        try:
            gil_req = self.gil_req
            if gil_req is None:  # ``event`` is the granted GIL request
                self.gil_req = event
                dispatcher.env.timeout(self.seconds).callbacks.append(self)
                return
            self.item.entry[0].gil.release(gil_req)
            _complete(dispatcher.state, self.item, self.request, self.outputs,
                      self.start)
            dispatcher._item_done(self.item)
        except BaseException as exc:
            dispatcher._fail(exc)


class _Dispatcher:
    """Ready-list scheduler with per-item dependency counters."""

    def __init__(self, state: ExecutionState):
        self.state = state
        self.env = state.env
        self.items = state.plan.items
        self.counts = state.plan.dep_counts.copy()
        self.remaining = len(self.items)
        self.done = self.env.event()
        self.finished = False
        self.faults = state.fault_injector
        self.metadata = state.metadata

    def start(self) -> Event:
        if self.state.deadline_seconds is not None:
            self._arm_run_watchdog()
        plan = self.state.plan
        self._dispatch(
            [item for item, deps in zip(plan.items, plan.dep_counts) if not deps]
        )
        return self.done

    def _arm_run_watchdog(self) -> None:
        """Fail the run if any item is still incomplete at the deadline.

        The run-level backstop fires at twice the operation deadline:
        the collective join watchdog runs at 1x and carries the sharper
        diagnostic (which ranks stalled), so it gets first claim on
        failing the run. (A recv needs none here: it is dispatched only
        after its send completed.)
        """
        state = self.state
        timeout_s = state.deadline_seconds * 2.0

        def expire():
            state.count_deadline()
            self._fail(DeadlineExceededError(_run_deadline_message(
                state, timeout_s, self.remaining
            )))

        arm_deadline(self.env, timeout_s, self.done, expire)

    # -- completion bookkeeping ------------------------------------------------
    def _item_done(self, item: Item, queue: Optional[list] = None) -> None:
        """Count ``item`` complete and count down its dependents. Those
        now ready join ``queue``, the list a running :meth:`_dispatch`
        loop reaches in turn; without one, they start here."""
        self.remaining -= 1
        if self.metadata is not None:
            self.metadata.fast_path_items += 1
        ready = queue
        counts = self.counts
        for uid in item.dependents:
            counts[uid] = left = counts[uid] - 1
            if not left:
                if ready is None:
                    ready = []
                ready.append(self.items[uid])
        if self.remaining == 0 and not self.finished:
            self.finished = True
            self.done.succeed()
        if queue is None and ready is not None:
            self._dispatch(ready)

    def _fail(self, exc: BaseException) -> None:
        if not self.finished:
            self.finished = True
            self.done.fail(exc)

    # -- dispatch ---------------------------------------------------------------
    def _dispatch(self, queue: list[Item]) -> None:
        """Start ``queue``'s items in FIFO order. What an item completes
        synchronously joins the end of the same list, which the loop
        reaches in turn (a list iterator sees what is appended while it
        runs); most calls carry one item."""
        for item in queue:
            if self.finished and self.remaining > 0:
                return  # a failure was reported: stop feeding new work
            try:
                if self.faults is not None and self.state.task_down(item):
                    # The item's task is crashed: park it (never completes).
                    # Peers' deadlines surface the loss as an error.
                    self.state.park_stalled(item)
                    continue
                kind = item.kind
                if kind == "op":
                    if self._start_op(item):
                        self._item_done(item, queue)
                elif kind == "const":
                    _complete(self.state, item, None, list(item.const_values),
                              self.env.now)
                    self._item_done(item, queue)
                elif kind == "recv":
                    _run_recv(self.state, item)
                    self._item_done(item)
                elif kind == "send":
                    self._start_driven(item, _run_send(self.state, item))
                else:  # "collective"
                    self._start_driven(
                        item, _run_collective(self.state, item)
                    )
            except BaseException as exc:  # kernel/validation errors
                self._fail(exc)
                return

    # -- light lane: driven generators -------------------------------------------
    def _start_driven(self, item: Item, gen) -> None:
        _Driven(self, item, gen).advance(None, None)

    # -- light lane: op ----------------------------------------------------------
    def _start_op(self, item: Item) -> bool:
        """Begin a light-lane op; returns True if it completed synchronously.

        Generator kernels fall back to the process lane (the generator is
        created lazily, so nothing has executed yet when we hand it over).
        """
        lane = item.lane
        if lane == "no_hold":
            # Queue ops have generator kernels and fall back inside
            # _run_op_body; other no-hold ops complete inline.
            return self._run_op_body(item, None, self.env.now)
        resource = item.entry[1].resource
        if lane == "inline":
            # Inline-eligible (``register_kernel(..., inline=True)``): a
            # plain-function kernel that never yields and always costs
            # zero simulated seconds. Its hold would last zero seconds, so
            # on a free device it claims nothing — with a slot free no
            # claim waits, so FIFO grant order is unchanged and no event
            # is scheduled; on a busy device it queues like any other op.
            if resource.count < resource.capacity:
                return self._run_op_body(item, None, self.env.now)
        else:
            request = resource.try_acquire()
            if request is not None:
                return self._run_op_body(item, request, self.env.now)
        resource.request().callbacks.append(_Granted(self, item, self.env.now))
        return False

    def _run_op_body(self, item: Item, request, start: float) -> bool:
        """The op's dispatch once the device slot (if any) is held.

        ``start`` is the dispatch time (before any device-queue wait), so
        traced durations include the wait exactly as the legacy lane
        reports them. Returns True when the item completed synchronously;
        asynchronous completions (timeouts, GIL waits) cascade through
        _item_done.
        """
        state = self.state
        try:
            # ExecutionState.resolve_source, inline: once per op input.
            inputs = []
            values, feeds = state.values, state.feeds
            for head, idx in item.sources:
                if head is FEED:
                    inputs.append(feeds[idx])
                    continue
                produced = values[head.uid]
                if produced is None:
                    raise InternalError(
                        f"Source {head!r} has not produced values")
                inputs.append(produced[idx])
            ctx = state._ctx_cache.get(item.device)
            if ctx is None:
                ctx = state.kernel_ctx(item)
            result = dispatch(item.op, inputs, ctx, item.price)
            if isinstance(result, GeneratorType):
                # Blocking kernel: drive it as a callback chain that
                # inherits (and eventually releases) the held request.
                self._start_driven(
                    item, _finish_generator(state, item, result, request, start)
                )
                return False
            outputs, cost = result
            seconds = item.seconds  # the plan's, for a priced item
            if seconds is None:
                seconds = cost_seconds(item.entry[1], item, cost)
        except BaseException:
            if request is not None:
                request.resource.release(request)
            raise
        if seconds <= 0:
            _complete(state, item, request, outputs, start)
            return True
        if cost.host_bytes > 0:
            # Host-side Python work serializes on the task's GIL.
            gil = item.entry[0].gil
            on_gil = _OnGil(self, item, request, outputs, start, seconds)
            gil_req = gil.try_acquire()
            if gil_req is not None:
                on_gil(gil_req)
            else:
                gil.request().callbacks.append(on_gil)
        else:
            _OpTimeout(self, item, request, outputs, start, seconds)
        return False


def _complete(state: ExecutionState, item: Item, request, outputs,
              start: float) -> None:
    """An op's, a const's or a collective leg's completion, in every lane
    of both executors: give back its device slot, store and allocate its
    outputs, then consume its sources — outputs are live before inputs
    can be released: the kernel's working set holds both (this is what
    makes big tiles tight on a 1 GB K420)."""
    if request is not None:
        request.resource.release(request)
    state.values[item.uid] = outputs
    state.allocate(item, outputs)
    state.consume(item)
    if state.trace and state.metadata is not None and item.op is not None:
        state.metadata.step_stats.append(NodeStats(
            device=item.device,
            op_name=item.op.name,
            op_type=item.op.type,
            start=start,
            end=state.env.now,
            out_bytes=sum(map(value_nbytes, outputs)),
        ))


def _finish_generator(state: ExecutionState, item: Item, gen, request,
                      start: float):
    """Process-lane continuation for a light-lane op whose kernel yields."""
    env = state.env
    try:
        result = yield from gen
        outputs, cost = result
        seconds = item.seconds
        if seconds is None:
            seconds = cost_seconds(item.entry[1], item, cost)
        if seconds > 0:
            if cost.host_bytes > 0:
                task = item.entry[0]
                gil_req = task.gil.request()
                yield gil_req
                try:
                    yield env.timeout(seconds)
                finally:
                    task.gil.release(gil_req)
            else:
                yield env.timeout(seconds)
    finally:
        if request is not None:
            request.resource.release(request)
    _complete(state, item, None, outputs, start)


def _item_proc(state: ExecutionState, item: Item):
    if item.kind == "send":
        yield from _run_send(state, item)
    elif item.kind == "recv":
        _run_recv(state, item)
    elif item.kind == "collective":
        yield from _run_collective(state, item)
    elif item.kind == "const":
        # Fast path disabled: const items still complete instantly, just
        # inside a simulator process.
        _complete(state, item, None, list(item.const_values), state.env.now)
        return
    else:
        yield from _run_op(state, item)


def _run_send(state: ExecutionState, item: Item):
    env = state.env
    if item.sources:
        value = state.resolve_source(item.sources[0])
        nbytes = (value_nbytes(value) if item.out_nbytes is None
                  else item.out_nbytes[0])
    else:
        value, nbytes = None, 0  # control edge
    src_dev, dst_dev = item.entry[1], item.dst_entry[1]
    start = env.now
    # Transient transport faults (injected message drops) surface as
    # UnavailableError; with a retry policy configured the send backs
    # off and re-sends, otherwise the first failure propagates.
    if state.retry_policy is None:
        yield from transports.transfer(src_dev, dst_dev, nbytes, state.protocol)
    else:
        def count_retry(_exc, _delay):
            if state.metadata is not None:
                state.metadata.retries += 1

        yield from retry_gen(
            env,
            lambda: transports.transfer(src_dev, dst_dev, nbytes,
                                        state.protocol),
            state.retry_policy,
            on_retry=count_retry,
        )
    state.consume(item)
    if state.trace and state.metadata is not None:
        state.metadata.transfers.append(
            TransferStats(
                tensor_name=item.tensor_name,
                src_device=item.device,
                dst_device=item.dst_device,
                nbytes=nbytes,
                start=start,
                end=env.now,
                protocol=state.protocol,
            )
        )
    state.values[item.uid] = [value]  # what the recv reads


def _run_recv(state: ExecutionState, item: Item) -> None:
    """Take the moved value out of the send's slot: synchronous, no event."""
    send = item.sources[0][0] if item.sources else None
    if send is None or state.values[send.uid] is None:
        raise InternalError(
            f"{_item_desc(item)} (item #{item.uid}): recv dispatched "
            f"before its send completed — the plan's send→recv source "
            f"edge is missing"
        )
    value = state.values[send.uid][0]
    state.values[item.uid] = [value]
    if value is not None:
        state.allocate(item, [value])


def _run_collective(state: ExecutionState, item: Item):
    """One rank leg of a lowered collective op.

    The leg publishes its device and rank input into the run's group
    rendezvous; the last leg to arrive drives ``run_collective`` with the
    algorithm the lowering chose (``Item.collective_algorithm``) — so the
    op's values are the op type's one value function's and its simulated
    time exactly the standalone schedule's, in either dispatch lane — and
    every leg completes at the schedule's finish time holding its own
    rank's result. Legs never occupy a device slot while blocked — the
    schedule's wire time is charged on the transports, and the per-step
    host math inside the schedule accounts the device-side adds.
    """
    rank = item.collective_rank
    group = state.collective_group(item)
    start = state.env.now
    group.devices[rank] = item.entry[1]
    if item.sources:
        group.values[rank] = state.resolve_source(item.sources[0])
    group.arrived_ranks.append(rank)
    if state.metadata is not None:
        state.metadata.collective_items += 1
    if len(group.arrived_ranks) == group.world:
        op = group.op
        try:
            group.results = yield from run_collective(
                op.type, group.devices, group.values,
                op.get_attr("protocol") or state.protocol,
                item.collective_algorithm, op.name,
            )
        except BaseException as exc:
            # Wake the peer legs so their cleanup runs; the failure still
            # surfaces through this leg (and the run's done event).
            if group.world > 1 and not group.done.triggered:
                group.done.fail(exc)
            raise
        group.values = []  # the results stand alone; drop the inputs
        group.done.succeed()
    else:
        yield group.done
    _complete(state, item, None, [group.results[rank]], start)


def _run_op(state: ExecutionState, item: Item):
    env = state.env
    task, device = item.entry[0], item.entry[1]
    inputs = [state.resolve_source(s) for s in item.sources]
    ctx = state.kernel_ctx(item)
    request = None
    start = env.now
    try:
        if item.lane != "no_hold":
            # A free slot is claimed synchronously, as the dispatcher
            # does: a grant event costs one URGENT calendar hop that const
            # items do not pay, and same-instant device-FIFO order would
            # then depend on whether the optimizer turned a producer into
            # a const item (fuzz seed 331).
            request = device.resource.try_acquire()
            if request is None:
                request = device.resource.request()
                yield request
        result = dispatch(item.op, inputs, ctx, item.price)
        if isinstance(result, GeneratorType):
            result = yield from result
        outputs, cost = result
        seconds = item.seconds
        if seconds is None:
            seconds = cost_seconds(device, item, cost)
        if seconds > 0:
            if cost.host_bytes > 0:
                # Host-side Python work serializes on the task's GIL.
                gil_req = task.gil.request()
                yield gil_req
                try:
                    yield env.timeout(seconds)
                finally:
                    task.gil.release(gil_req)
            else:
                yield env.timeout(seconds)
    finally:
        if request is not None:
            device.resource.release(request)
    _complete(state, item, None, outputs, start)
