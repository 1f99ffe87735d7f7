"""A deterministic discrete-event simulation kernel.

The kernel follows the SimPy model: *processes* are Python generators that
``yield`` *events*; the :class:`Environment` owns a virtual clock and an
event calendar. Determinism is guaranteed by one total pop order, so
repeated runs of the same program produce identical schedules — essential
for reproducible benchmarks.

The calendar has two lanes. An event triggered now (``succeed``,
``fail``, a process's start and exit, an interrupt) joins the URGENT
lane, a FIFO of the current instant; a timed entry (a timeout) joins a
heap keyed ``(time, seq)``. ``step`` pops the FIFO first. Every entry
draws the next ``seq`` of one per-environment counter, so the order is
that of a single heap keyed ``(time, priority, seq)`` with triggered
events ahead of timeouts at the same instant: a triggered event always
sits at ``now`` (the clock moves only once the FIFO is empty), and the
FIFO holds them in ``seq`` order.

Only the features the runtime needs are implemented: timeouts, generic
events, process events, the value-free ``AllOf`` join, interrupts,
generators driven by callback without a process (:class:`Driver`) and
deadline timers that leave the calendar once their watched event fired
(:func:`arm_deadline`).
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Driver",
    "AllOf",
    "Interrupt",
    "arm_deadline",
]

_PENDING = object()  # sentinel: event value not yet decided


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self):
        return self.args[0] if self.args else None


class Event:
    """An occurrence at a point in simulated time.

    An event goes through three states: *pending* (created), *triggered*
    (value decided, sitting in the calendar) and *processed* (callbacks run).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused = False
        self._processed = False

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise RuntimeError("Event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise RuntimeError("Event value not yet available")
        return self._value

    # -- triggering -----------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # env._schedule(self), inlined (see _schedule).
        env = self.env
        env._seq += 1
        env._urgent.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def defused(self) -> "Event":
        """Mark a failed event as handled so the kernel will not re-raise."""
        self._defused = True
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN, which `delay < 0` lets through
            raise ValueError(f"delay must be >= 0, got {delay}")
        # Event.__init__ and the timed heap's push, flattened: a timeout is
        # born triggered, so it is built and pushed in one step. Timeouts
        # (and the executor's ``_OpTimeout``, built the same way) are the
        # heap's only entries.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._processed = False
        self.delay = delay
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now + delay, seq, self))


class Initialize(Event):
    """Internal event that starts a freshly created process (or a driven
    generator that keeps a process's start hop): an entry in the current
    instant's lane, whose one callback is ``start``."""

    __slots__ = ()

    def __init__(self, env: "Environment", start: Callable[[Event], None]):
        super().__init__(env)
        self.callbacks = [start]
        self._ok = True
        self._value = None
        env._schedule(self)


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The process event's value is the generator's return value; if the
    generator raises, the process event fails with that exception.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str | None = None):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = Initialize(env, self._resume)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise RuntimeError(f"{self.name} has terminated; cannot interrupt")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks = [self._resume]
        self.env._schedule(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        while True:
            # Detach from the event that woke us.
            if self._target is not None and self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:
                    pass
            self._target = None
            try:
                if event._ok:
                    next_target = self._generator.send(event._value)
                else:
                    # The event failed: throw into the generator so it can
                    # handle (or propagate) the failure. The error's
                    # traceback will hold this frame: keep neither the
                    # failed event nor, once thrown, the error.
                    event._defused = True
                    exc = event._value
                    del event
                    try:
                        next_target = self._generator.throw(exc)
                    finally:
                        exc = None
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.env._schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.env._schedule(self)
                break

            if not isinstance(next_target, Event):
                exc = RuntimeError(
                    f"Process {self.name!r} yielded a non-event: {next_target!r}"
                )
                event = Event(self.env)
                event._ok = False
                event._value = exc
                event._defused = True
                continue
            if next_target.env is not self.env:
                raise RuntimeError("Cannot wait for an event from another environment")

            if next_target.callbacks is None:
                # Already processed: loop immediately with its outcome.
                event = next_target
                self._target = next_target
                continue
            next_target.callbacks.append(self._resume)
            self._target = next_target
            break


class Driver:
    """A generator driven through event callbacks: a process's loop
    without the process.

    :meth:`advance` sends each yielded event's value into the generator,
    or throws its failure (defused, so the generator's cleanup runs), and
    parks :meth:`resume` on the next event it yields; :meth:`returned`
    or :meth:`raised` hears how the generator ended. Unlike
    :class:`Process` it pushes no calendar entry of its own — no start,
    no exit — and has no name; a subclass that must keep a process's
    hops pushes them itself. A subclass holds the generator in ``gen``
    plus whatever its hooks need, in slots. The event being waited on
    holds the bound ``resume``, and the driver holds nothing that refers
    back to it, so it dies by reference count when the generator ends.
    """

    __slots__ = ()
    gen: Generator[Event, Any, Any]

    def advance(self, send_value: Any,
                throw_exc: Optional[BaseException]) -> None:
        gen = self.gen
        while True:
            try:
                if throw_exc is not None:
                    try:
                        target = gen.throw(throw_exc)
                    finally:
                        throw_exc = None  # its traceback holds this frame
                else:
                    target = gen.send(send_value)
            except StopIteration as stop:
                self.returned(stop.value)
                return
            except BaseException as exc:
                self.raised(exc)
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
            # The error's traceback will hold this frame: keep neither the
            # failed event nor, once thrown, the error.
            event._defused = True
            exc = event._value
            del event
            try:
                self.advance(None, exc)
            finally:
                exc = None

    def returned(self, value: Any) -> None:
        raise NotImplementedError

    def raised(self, exc: BaseException) -> None:
        raise NotImplementedError


class AllOf(Event):
    """A join: triggers, with the value ``None``, once every child event
    has been processed successfully, and fails with the first child that
    fails. Nobody reads which child carried what (a transfer's concurrent
    hops, a collective round, a reference-executor item's producers), so
    it keeps no children and builds no value."""

    __slots__ = ("_left",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        children = list(events)
        for ev in children:
            if ev.env is not env:
                raise RuntimeError("An AllOf spans a single environment")
        self._left = len(children)
        if not children:
            self.succeed()
            return
        check = self._check
        for ev in children:
            if ev.callbacks is None:  # already processed
                check(ev)
                if self._value is not _PENDING:
                    break
            else:
                ev.callbacks.append(check)

    def _check(self, event: Event) -> None:
        if not event._ok:
            # Always defuse: a child failing after the join has already
            # triggered (e.g. a cascade of dependent process failures) must
            # not crash the simulation loop.
            event._defused = True
        if self._value is not _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._left -= 1
        if not self._left:
            self.succeed()


def arm_deadline(env: "Environment", delay: float, watched: Event,
                 expire: Callable[[], None]) -> None:
    """Call ``expire()`` in ``delay`` seconds unless ``watched`` triggers first.

    The timer is cancelled as soon as ``watched`` is processed: its
    callback goes at once, so a far-future timer never pins what
    ``expire`` closes over — a finished run's tensors, plan and state —
    and its calendar entry goes at the calendar's next compaction
    (:meth:`Environment._cancel`). An entry that reaches the top first
    pops empty, in one step, as it would have uncancelled.
    """
    timer = env.timeout(delay)

    def fire(_ev: Event) -> None:
        if not watched.triggered:
            expire()

    def cancel(_ev: Event) -> None:
        if timer.callbacks is not None:  # not popped yet
            timer.callbacks.remove(fire)
            env._cancel(timer)

    timer.callbacks.append(fire)
    watched.callbacks.append(cancel)


class Environment:
    """Execution environment: virtual clock plus event calendar."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # Timed entries, keyed (time, seq, event).
        self._queue: list[tuple[float, int, Event]] = []
        # Events triggered at _now, in seq order; their seq is not kept.
        self._urgent: deque[Event] = deque()
        self._seq = 0
        # Events whose entries _cancel may drop; some may have popped.
        self._cancelled: set[Event] = set()

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    # -- event construction ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str | None = None) -> Process:
        return Process(self, generator, name=name)

    # -- scheduling -----------------------------------------------------------
    def _schedule(self, event: Event) -> None:
        """Enter ``event``, triggered now, into the current instant's lane.

        ``Event.succeed``, the hottest caller, inlines these two lines.
        The entry draws a ``seq`` like any other, which only its place in
        the lane records.
        """
        self._seq += 1
        self._urgent.append(event)

    def _cancel(self, event: Event) -> None:
        """Let ``event``'s calendar entry go; its callbacks are gone.

        Lazy, by asyncio's rule for cancelled timer handles: entries stay
        until the cancelled ones outnumber half the calendar (both lanes),
        then one pass filters them all out of the heap and re-heapifies in
        place (``run`` holds the list). Keys are unique, so the rebuilt
        heap pops what is left in the same order. An entry that reaches
        the top before that pops as an empty event, one step; its event
        stays counted until the next compaction, which can only bring that
        compaction forward. ``step`` and ``run`` never look at the set, so
        a calendar with nothing cancelled pays nothing per pop.
        """
        cancelled = self._cancelled
        cancelled.add(event)
        queue = self._queue
        if 2 * len(cancelled) > len(queue) + len(self._urgent):
            queue[:] = [entry for entry in queue if entry[2] not in cancelled]
            heapify(queue)
            cancelled.clear()

    def clear(self) -> None:
        """Drop every calendar entry, in both lanes; the clock stays where
        it is.

        An entry's event names this environment back (``Event.env``), so
        a finished simulation's leftovers keep it alive until the cyclic
        collector runs; cleared, both die by reference count.
        """
        self._queue.clear()
        self._urgent.clear()
        self._cancelled.clear()

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` when drained)."""
        if self._urgent:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event (the calendar's only pop site):
        the current instant's oldest triggered event, else the earliest
        timed one."""
        urgent = self._urgent
        if urgent:
            event = urgent.popleft()
        else:
            try:
                self._now, _, event = heappop(self._queue)
            except IndexError:
                raise RuntimeError("No scheduled events") from None
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        event._processed = True
        if not event._ok:
            # The error's traceback may hold this frame (a callback caught
            # it, or it is raised here): let go of the failed event and of
            # what it ran, so that the frame closes no cycle through them.
            exc = None if event._defused else event._value
            if callbacks:
                del callback
            del event, callbacks
            if exc is not None:
                # Nobody handled the failure: surface it to the caller of run().
                try:
                    raise exc
                finally:
                    exc = None

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        Args:
            until: ``None`` drains the calendar; a number runs until the
                clock reaches that time; an :class:`Event` runs until the
                event is processed and returns its value.
        """
        # Every event goes through self.step (looked up once per call, so
        # a subclass or a counting wrapper on the class still sees each).
        step, queue, urgent = self.step, self._queue, self._urgent
        if until is None:
            while urgent or queue:
                step()
            return None
        if isinstance(until, Event):
            while not until._processed:
                if not (urgent or queue):
                    raise RuntimeError(
                        f"Simulation drained before {until!r} triggered (deadlock?)"
                    )
                step()
            if not until._ok:
                raise until._value
            return until._value
        horizon = float(until)
        if not horizon >= self._now:  # NaN compares false: reject it too
            raise ValueError(f"until={horizon} lies in the past (now={self._now})")
        # The current instant's lane sits at now <= horizon: it always plays.
        while urgent or (queue and queue[0][0] <= horizon):
            step()
        self._now = horizon
        return None
