"""A deterministic discrete-event simulation kernel.

The kernel follows the SimPy model: *processes* are Python generators that
``yield`` *events*; the :class:`Environment` owns a virtual clock and an
event calendar. Determinism is guaranteed by breaking ties on
``(time, priority, sequence_number)`` so repeated runs of the same program
produce identical schedules — essential for reproducible benchmarks.

Only the features the runtime needs are implemented: timeouts, generic
events, process events, ``AllOf``/``AnyOf`` conditions and interrupts.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "arm_deadline",
    "URGENT",
    "NORMAL",
]

# Scheduling priorities: URGENT is used for propagating already-triggered
# events (zero logical delay), NORMAL for timeouts and fresh work.
URGENT = 0
NORMAL = 1

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
        # env._schedule(self, URGENT), pushed in place (see _schedule).
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now, URGENT, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self, URGENT)
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
        # Event.__init__ and env._schedule(self, NORMAL, delay), flattened:
        # a timeout is born triggered, so it is built and pushed in one step.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._processed = False
        self.delay = delay
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now + delay, NORMAL, seq, self))


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env._schedule(self, URGENT)


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
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise RuntimeError(f"{self.name} has terminated; cannot interrupt")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks = [self._resume]
        self.env._schedule(event, URGENT)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self.env._active_process = self
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
                    # handle (or propagate) the failure.
                    event._defused = True
                    next_target = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.env._schedule(self, URGENT)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.env._schedule(self, URGENT)
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
        self.env._active_process = None


class Condition(Event):
    """Waits for a quorum of child events (basis of AllOf / AnyOf)."""

    __slots__ = ("_events", "_count_needed", "_count_done")

    def __init__(self, env: "Environment", events: Iterable[Event], need_all: bool):
        super().__init__(env)
        self._events = list(events)
        for ev in self._events:
            if ev.env is not env:
                raise RuntimeError("Conditions span a single environment")
        self._count_needed = len(self._events) if need_all else min(1, len(self._events))
        self._count_done = 0
        if self._count_needed == 0:
            self.succeed(self._collect())
            return
        for ev in self._events:
            if ev.callbacks is None:  # already processed
                self._check(ev)
                if self.triggered:
                    break
            else:
                ev.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* events count: Timeouts carry their value from
        # creation, so `triggered` alone would leak future outcomes.
        return {
            ev: ev._value
            for ev in self._events
            if ev.triggered and ev._ok and ev.callbacks is None
        }

    def _check(self, event: Event) -> None:
        if not event._ok:
            # Always defuse: a child failing after the condition has already
            # triggered (e.g. a cascade of dependent process failures) must
            # not crash the simulation loop.
            event._defused = True
        if self._value is not _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._count_done += 1
        if self._count_done >= self._count_needed:
            self.succeed(self._collect())


class AllOf(Condition):
    """Triggers once every child event has triggered successfully."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, need_all=True)


class AnyOf(Condition):
    """Triggers as soon as any child event triggers."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, need_all=False)


def arm_deadline(env: "Environment", delay: float, watched: Event,
                 expire: Callable[[], None]) -> None:
    """Call ``expire()`` in ``delay`` seconds unless ``watched`` triggers first.

    There is no calendar cancellation (the timer's entry stays, so step
    counts are exact); instead the callback is detached as soon as
    ``watched`` is processed, so a far-future timer never pins what
    ``expire`` closes over — a finished run's tensors, plan and state.
    """
    timer = env.timeout(delay)

    def fire(_ev: Event) -> None:
        if not watched.triggered:
            expire()

    def detach(_ev: Event) -> None:
        if timer.callbacks is not None:
            timer.callbacks.remove(fire)

    timer.callbacks.append(fire)
    watched.callbacks.append(detach)


class Environment:
    """Execution environment: virtual clock plus event calendar."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event construction ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str | None = None) -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        """Enter ``event`` into the calendar: the one general entry point.

        The two hottest callers, ``Timeout.__init__`` and ``Event.succeed``,
        push their entry themselves to save this call per event. They
        build the identical key — the next ``_seq``, and ``now + 0.0 ==
        now`` for an undelayed event — so the pop order cannot tell them
        from a call to this method.
        """
        self._seq += 1
        heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` when drained)."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event (the calendar's only pop site)."""
        try:
            self._now, _, _, event = heappop(self._queue)
        except IndexError:
            raise RuntimeError("No scheduled events") from None
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        event._processed = True
        if not event._ok and not event._defused:
            # Nobody handled the failure: surface it to the caller of run().
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        Args:
            until: ``None`` drains the calendar; a number runs until the
                clock reaches that time; an :class:`Event` runs until the
                event is processed and returns its value.
        """
        # Every event goes through self.step (looked up once per call, so
        # a subclass or a counting wrapper on the class still sees each).
        step, queue = self.step, self._queue
        if until is None:
            while queue:
                step()
            return None
        if isinstance(until, Event):
            while not until._processed:
                if not queue:
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
        while queue and queue[0][0] <= horizon:
            step()
        self._now = horizon
        return None
