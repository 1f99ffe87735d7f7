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
  must wait for a device slot) run through a hand-rolled callback chain:
  device request, one timeout for the kernel's cost, release. Same
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

What a priced op item costs is read off its plan: the simulated seconds
(``Item.seconds``) and its outputs' bytes (its price's specs). Device
memory is refcounted per output slot (``Item.slot`` + output index) in
per-run lists; a slot's bytes go back to its pool when its last reader
consumed it, or at run end.
"""

from __future__ import annotations

import inspect
from collections import deque
from typing import Any, Optional

from repro.core.kernels.registry import KernelContext, dispatch, op_def
from repro.core.metadata import NodeStats, RunMetadata, TransferStats
from repro.core.partition import FEED, ExecutionPlan, Item, cost_seconds
from repro.core.tensor import value_nbytes
from repro.errors import DeadlineExceededError, InternalError
from repro.runtime.collective import run_collective
from repro.runtime.retry import retry_gen
from repro.simnet import transports
from repro.simnet.events import AllOf, Environment, Event, arm_deadline

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

# Ops that block on external conditions and must not occupy a device slot
# while waiting (a blocked dequeue would otherwise starve the device).
_NO_DEVICE_HOLD = {
    "QueueEnqueue",
    "QueueDequeue",
    "QueueSize",
    "QueueClose",
    "NoOp",
}

# Stateful ops whose outputs alias resource-manager storage: their output
# memory is accounted once per variable, not per execution.
_VARIABLE_OPS = {"VariableV2", "Assign", "AssignAdd", "AssignSub"}


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
        devices: dict[str, tuple],
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
        # The session's device table, a fact about its cluster: device
        # string -> (task runtime, device, memory pool, (job, task)).
        self._devices = devices
        # Kernel contexts carry the run's feeds: per run.
        self._ctx_cache: dict[str, KernelContext] = {}

    # -- resolution ------------------------------------------------------------
    def task_runtime(self, device: str):
        return self._devices[device][0]

    def device_obj(self, device: str):
        return self._devices[device][1]

    def memory_pool(self, device: str):
        return self._devices[device][2]

    def kernel_ctx(self, device: str) -> KernelContext:
        """The (immutable-per-run) kernel context for ``device``."""
        ctx = self._ctx_cache.get(device)
        if ctx is None:
            task = self.task_runtime(device)
            ctx = KernelContext(
                symbolic=self.symbolic,
                feeds=self.feeds,
                resources=task.resources,
                env=self.env,
                device=self.device_obj(device),
                worker=task,
                graph_seed=self.graph_seed,
            )
            self._ctx_cache[device] = ctx
        return ctx

    def task_down(self, device: str) -> bool:
        """True when ``device``'s task is currently crashed."""
        if self.fault_injector is None:
            return False
        return self.fault_injector.is_down(*self._devices[device][3])

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
    def register_outputs(self, item: Item, outputs: list) -> None:
        """Allocate device memory for an item's outputs: a priced item's
        bytes are its price's specs' (its outputs are exactly those
        specs), any other item's are read off the values."""
        pool = self.memory_pool(item.device)
        price = item.price
        if item.kind == "op" and item.op.type in _VARIABLE_OPS:
            # Alias of the variable's persistent storage: account once.
            op = item.op
            var_name = (op.get_attr("var_name") or op.name
                        if op.type != "VariableV2" else op.name)
            memory = self.task_runtime(item.device).resources.variable_memory
            nbytes = sum(value_nbytes(v) for v in
                         (outputs if price is None else price[0]))
            previous = memory.get(var_name)
            if previous is None or previous[1] != nbytes:
                if previous is not None:
                    previous[0].free(previous[1])
                pool.allocate(nbytes)
                memory[var_name] = (pool, nbytes)
            return
        if self._released:
            # An item of a failed run completing inside a later one (its
            # timeout was already armed): the run's memory went back in
            # release_all, and nothing would ever free a new allocation.
            return
        slot = item.slot
        for idx, value in enumerate(outputs):
            nbytes = (value_nbytes(value) if price is None
                      else price[0][idx].nbytes)
            pool.allocate(nbytes)
            if self._readers[slot + idx]:
                self._held[slot + idx] = nbytes
                self._pools[slot + idx] = pool
            else:
                pool.free(nbytes)  # dead output: freed once produced

    def consume(self, producer: Item, idx: int) -> None:
        slot = producer.slot + idx
        self._readers[slot] -= 1
        nbytes = self._held[slot]
        if nbytes and self._readers[slot] <= 0:
            self._held[slot] = 0
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
    inner = AllOf(env, processes)
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
    if state.task_down(item.device):
        # The task died: park forever on a fresh event. Peers' deadlines
        # (collective join, recv, run watchdog) report the loss.
        state.park_stalled(item)
        yield state.env.event()
    deps = _legacy_dependencies(item, processes)
    if deps:
        yield AllOf(state.env, deps)
    if state.task_down(item.device):
        # Crashed while waiting on producers (the fault fired mid-run).
        state.park_stalled(item)
        yield state.env.event()
    yield from _item_proc(state, item)


class _Driven:
    """A plan item's generator, driven through event callbacks.

    Semantically identical to spawning the generator as a simulator
    process — same events, same timestamps — but skips the process
    object, its Initialize event and its completion event. Failures of
    yielded events are thrown into the generator (so its cleanup runs)
    and then surface through the run's done event.

    The event being waited on holds the bound ``resume``; this object
    holds its dispatcher, item and generator and nothing that refers back
    to it, so it dies by reference count when the generator finishes.
    """

    __slots__ = ("dispatcher", "item", "gen")

    def __init__(self, dispatcher: "_Dispatcher", item: Item, gen):
        self.dispatcher = dispatcher
        self.item = item
        self.gen = gen

    def advance(self, send_value, throw_exc) -> None:
        gen = self.gen
        while True:
            try:
                if throw_exc is not None:
                    target = gen.throw(throw_exc)
                else:
                    target = gen.send(send_value)
            except StopIteration:
                self.dispatcher._count_fast()
                self.dispatcher._item_done(self.item)
                return
            except BaseException as exc:
                self.dispatcher._fail(exc)
                return
            if target.callbacks is None:  # already processed
                if target._ok:
                    send_value, throw_exc = target._value, None
                else:
                    target._defused = True
                    send_value, throw_exc = None, target._value
                continue
            target.callbacks.append(self.resume)
            return

    def resume(self, event: Event) -> None:
        if event._ok:
            self.advance(event._value, None)
        else:
            event._defused = True
            self.advance(None, event._value)


class _OpElapsed:
    """What a light-lane op's cost timeout calls: release, finalize, cascade.

    Same rule as :class:`_Driven` — the timeout holds this object, which
    holds the dispatcher and the op's results and nothing that refers
    back; an error fails the run, not the simulator.
    """

    __slots__ = ("dispatcher", "item", "request", "outputs", "start")

    def __init__(self, dispatcher: "_Dispatcher", item: Item, request,
                 outputs, start: float):
        self.dispatcher = dispatcher
        self.item = item
        self.request = request
        self.outputs = outputs
        self.start = start

    def __call__(self, _event: Event) -> None:
        dispatcher = self.dispatcher
        try:
            dispatcher._finish_op(
                self.item, self.request, self.outputs, self.start
            )
            dispatcher._item_done(self.item)
        except BaseException as exc:
            dispatcher._fail(exc)


class _Dispatcher:
    """Ready-list scheduler with per-item dependency counters."""

    def __init__(self, state: ExecutionState):
        self.state = state
        self.env = state.env
        self.counts = state.plan.dep_counts.copy()
        self.remaining = len(state.plan.items)
        self.done = self.env.event()
        self.finished = False
        self.faults = state.fault_injector

    def start(self) -> Event:
        if self.state.deadline_seconds is not None:
            self._arm_run_watchdog()
        plan = self.state.plan
        self._dispatch(
            item for item, deps in zip(plan.items, plan.dep_counts) if not deps
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
    def _completed(self, item: Item) -> list[Item]:
        self.remaining -= 1
        ready = []
        counts, items = self.counts, self.state.plan.items
        for uid in item.dependents:
            counts[uid] -= 1
            if not counts[uid]:
                ready.append(items[uid])
        if self.remaining == 0 and not self.finished:
            self.finished = True
            self.done.succeed()
        return ready

    def _fail(self, exc: BaseException) -> None:
        if not self.finished:
            self.finished = True
            self.done.fail(exc)

    def _item_done(self, item: Item) -> None:
        """Light-lane completion: bookkeeping plus cascading dispatch."""
        self._dispatch(self._completed(item))

    # -- dispatch ---------------------------------------------------------------
    def _dispatch(self, ready) -> None:
        queue = deque(ready)
        while queue:
            if self.finished and self.remaining > 0:
                return  # a failure was reported: stop feeding new work
            item = queue.popleft()
            try:
                if self.faults is not None and self.state.task_down(item.device):
                    # The item's task is crashed: park it (never completes).
                    # Peers' deadlines surface the loss as an error.
                    self.state.park_stalled(item)
                    continue
                if item.kind == "const":
                    _finish_const(self.state, item)
                    self._count_fast()
                    queue.extend(self._completed(item))
                elif item.kind == "recv":
                    _run_recv(self.state, item)
                    self._count_fast()
                    self._item_done(item)
                elif item.kind == "send":
                    self._start_driven(item, _run_send(self.state, item))
                elif item.kind == "collective":
                    self._start_driven(
                        item, _run_collective(self.state, item)
                    )
                else:  # "op"
                    if self._start_op(item):
                        queue.extend(self._completed(item))
            except BaseException as exc:  # kernel/validation errors
                self._fail(exc)
                return

    def _count_fast(self) -> None:
        if self.state.metadata is not None:
            self.state.metadata.fast_path_items += 1

    def _guard(self, fn) -> None:
        """Run a continuation; route exceptions to the run's done event."""
        try:
            fn()
        except BaseException as exc:
            self._fail(exc)

    # -- light lane: driven generators -------------------------------------------
    def _start_driven(self, item: Item, gen) -> None:
        _Driven(self, item, gen).advance(None, None)

    # -- light lane: op ----------------------------------------------------------
    def _start_op(self, item: Item) -> bool:
        """Begin a light-lane op; returns True if it completed synchronously.

        Generator kernels fall back to the process lane (the generator is
        created lazily, so nothing has executed yet when we hand it over).
        """
        state = self.state
        op = item.op
        if op.type in _NO_DEVICE_HOLD:
            # Queue ops have generator kernels and fall back inside
            # _run_op_body; other no-hold ops complete inline.
            return self._run_op_body(item, None, state.env.now)
        device = state.device_obj(item.device)
        request = device.resource.try_acquire()
        if request is not None:
            if op_def(op.type).inline:
                # Inline-eligible (``register_kernel(..., inline=True)``):
                # a plain-function kernel that never yields and always
                # costs zero simulated seconds. The hold would last zero
                # seconds, so claim and return the slot now — FIFO grant
                # order is unchanged, no events are scheduled; on a busy
                # device it queues like any other op.
                device.resource.release(request)
                return self._run_op_body(item, None, state.env.now)
            return self._run_op_body(item, request, state.env.now)
        self._queue_op(item, device.resource)
        return False

    def _queue_op(self, item: Item, resource) -> None:
        """Wait in the device FIFO; run the body once the slot is granted."""
        start = self.env.now
        request = resource.request()
        request.callbacks.append(
            lambda _ev: self._guard(
                lambda: self._run_op_granted(item, request, start)
            )
        )

    def _run_op_granted(self, item: Item, request, start: float) -> None:
        """Continuation once a queued device request is finally granted."""
        if self._run_op_body(item, request, start):
            self._item_done(item)

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
            inputs = [state.resolve_source(s) for s in item.sources]
            result = dispatch(item.op, inputs, state.kernel_ctx(item.device),
                              item.price)
            if inspect.isgenerator(result):
                # Blocking kernel: drive it as a callback chain that
                # inherits (and eventually releases) the held request.
                self._start_driven(
                    item, _finish_generator(state, item, result, request, start)
                )
                return False
            outputs, cost = result
            seconds = _cost_seconds(state, item, cost)
        except BaseException:
            if request is not None:
                request.resource.release(request)
            raise
        if seconds <= 0:
            self._finish_op(item, request, outputs, start)
            return True

        if cost.host_bytes > 0:
            self._run_op_on_gil(item, request, outputs, start, seconds)
        else:
            state.env.timeout(seconds).callbacks.append(
                _OpElapsed(self, item, request, outputs, start)
            )
        return False

    def _run_op_on_gil(self, item: Item, request, outputs, start: float,
                       seconds: float) -> None:
        """Host-side Python work serializes on the task's GIL."""
        gil = self.state.task_runtime(item.device).gil
        gil_req = gil.try_acquire()

        def with_gil(_ev=None):
            def work():
                timeout = self.env.timeout(seconds)
                timeout.callbacks.append(
                    lambda _t: self._guard(release_and_finish)
                )

            self._guard(work)

        def release_and_finish():
            gil.release(gil_req)
            self._finish_op(item, request, outputs, start)
            self._item_done(item)

        if gil_req is not None:
            with_gil()
        else:
            gil_req = gil.request()
            gil_req.callbacks.append(with_gil)

    def _finish_op(self, item: Item, request, outputs, start: float) -> None:
        state = self.state
        if request is not None:
            request.resource.release(request)
        _finalize_op(state, item, outputs, start)
        self._count_fast()


def _cost_seconds(state: ExecutionState, item: Item, cost) -> float:
    """Simulated seconds the executing device charges for ``cost``: the
    plan's, for a priced item (``Item.seconds``)."""
    seconds = item.seconds
    if seconds is None:
        seconds = cost_seconds(state.device_obj(item.device), item, cost)
    return seconds


def _finalize_op(state: ExecutionState, item: Item, outputs, start: float) -> None:
    """Post-kernel bookkeeping shared by every execution lane.

    Outputs are live before inputs can be released: the kernel's working
    set holds both (this is what makes big tiles tight on a 1 GB K420).
    """
    state.values[item.uid] = outputs
    state.register_outputs(item, outputs)
    for source in item.sources:
        if source[0] is not FEED:
            state.consume(source[0], source[1])
    _record_node_stats(state, item, start)


def _finish_generator(state: ExecutionState, item: Item, gen, request,
                      start: float):
    """Process-lane continuation for a light-lane op whose kernel yields."""
    env = state.env
    try:
        result = yield from gen
        outputs, cost = result
        seconds = _cost_seconds(state, item, cost)
        if seconds > 0:
            if cost.host_bytes > 0:
                task = state.task_runtime(item.device)
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
    _finalize_op(state, item, outputs, start)


def _record_node_stats(state: ExecutionState, item: Item, start: float) -> None:
    if state.trace and state.metadata is not None and item.op is not None:
        state.metadata.step_stats.append(
            NodeStats(
                device=item.device,
                op_name=item.op.name,
                op_type=item.op.type,
                start=start,
                end=state.env.now,
                out_bytes=sum(
                    value_nbytes(v) for v in state.values[item.uid] or []
                ),
            )
        )


def _finish_const(state: ExecutionState, item: Item) -> None:
    outputs = state.values[item.uid] = list(item.const_values)
    state.register_outputs(item, outputs)
    _record_node_stats(state, item, state.env.now)


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
        _finish_const(state, item)
        return
    else:
        yield from _run_op(state, item)


def _run_send(state: ExecutionState, item: Item):
    env = state.env
    if item.sources:
        value = state.resolve_source(item.sources[0])
        nbytes = value_nbytes(value)
    else:
        value, nbytes = None, 0  # control edge
    src_dev = state.device_obj(item.device)
    dst_dev = state.device_obj(item.dst_device)
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
    if item.sources:
        producer, idx = item.sources[0]
        state.consume(producer, idx)
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
        state.register_outputs(item, [value])


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
    group.devices[rank] = state.device_obj(item.device)
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
                item.collective_algorithm or "ring", op.name,
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
    result = group.results[rank]
    state.values[item.uid] = [result]
    state.register_outputs(item, [result])
    if item.sources and item.sources[0][0] is not FEED:
        producer, idx = item.sources[0]
        state.consume(producer, idx)
    _record_node_stats(state, item, start)


def _run_op(state: ExecutionState, item: Item):
    env = state.env
    op = item.op
    device = state.device_obj(item.device)
    task = state.task_runtime(item.device)
    inputs = [state.resolve_source(s) for s in item.sources]
    ctx = state.kernel_ctx(item.device)
    hold_device = op.type not in _NO_DEVICE_HOLD
    request = None
    start = env.now
    try:
        if hold_device:
            # A free slot is claimed synchronously, as the dispatcher
            # does: a grant event costs one URGENT calendar hop that const
            # items do not pay, and same-instant device-FIFO order would
            # then depend on whether the optimizer turned a producer into
            # a const item (fuzz seed 331).
            request = device.resource.try_acquire()
            if request is None:
                request = device.resource.request()
                yield request
        result = dispatch(op, inputs, ctx, item.price)
        if inspect.isgenerator(result):
            result = yield from result
        outputs, cost = result
        seconds = _cost_seconds(state, item, cost)
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
    _finalize_op(state, item, outputs, start)
