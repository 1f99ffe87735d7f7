"""Shared resources for the DES kernel.

Three primitives cover everything the runtime needs:

* :class:`Resource` — a counted FIFO resource (GPU compute stream = capacity
  1, CPU with N usable cores = capacity N).
* :class:`Store` — a blocking FIFO buffer of items (the basis of simulated
  TensorFlow ``FIFOQueue``\\ s and RPC inboxes).
* :class:`BandwidthLink` — a *processor-sharing* link: ``k`` concurrent
  transfers each progress at ``rate / k``. This is what creates the NUMA /
  I/O contention behaviour the paper observes on Kebnekaise (Fig. 9).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.simnet.events import Environment, Event


__all__ = ["Resource", "Store", "BandwidthLink", "Request"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    The request is its own handle — what :meth:`Resource.release` takes —
    never its own value: a grant carries ``None``, so a finished claim
    refers to nothing that refers back to it and dies by reference count.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """A counted resource with FIFO granting order."""

    def __init__(self, env: Environment, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._waiters: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Request:
        """Claim a slot; the returned event succeeds once granted."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed()
        else:
            self._waiters.append(req)
        return req

    def try_acquire(self) -> Optional[Request]:
        """Grant a slot immediately, or return ``None`` if all are taken.

        Equivalent to :meth:`request` when a slot is free, but the
        returned request is already processed — no calendar event is
        scheduled, so callers on a synchronous fast path pay nothing.
        ``release`` works on it as usual.
        """
        if len(self._users) >= self.capacity:
            return None
        req = Request(self)
        req._ok = True
        req._value = None
        req._processed = True
        req.callbacks = None  # processed: nothing can wait on it
        self._users.add(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        if request in self._users:
            self._users.remove(request)
        elif request in self._waiters:
            # Cancelling a never-granted claim.
            self._waiters.remove(request)
            return
        else:
            raise RuntimeError(f"{self.name}: releasing a slot that was never granted")
        while self._waiters and len(self._users) < self.capacity:
            nxt = self._waiters.popleft()
            self._users.add(nxt)
            nxt.succeed()

    def use(self, duration: float):
        """Convenience process body: hold one slot for ``duration`` seconds."""
        req = self.request()
        yield req
        try:
            yield self.env.timeout(duration)
        finally:
            self.release(req)


class Store:
    """A blocking FIFO buffer with optional capacity.

    ``put`` returns an event that succeeds when the item has been accepted;
    ``get`` returns an event that succeeds with the oldest item. FIFO order
    holds for both items and waiters.
    """

    def __init__(self, env: Environment, capacity: float = float("inf"), name: str = "store"):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def put_queue_length(self) -> int:
        return len(self._putters)

    @property
    def get_queue_length(self) -> int:
        return len(self._getters)

    def put(self, item: Any) -> Event:
        event = Event(self.env)
        self._putters.append((event, item))
        self._dispatch()
        return event

    def get(self) -> Event:
        event = Event(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def try_put(self, item: Any) -> bool:
        """Accept ``item`` synchronously, or return False if it would wait.

        FIFO-fair: refuses while earlier putters queue. Waiting getters
        are served immediately, exactly as an event-based put would.
        """
        if self._putters or len(self.items) >= self.capacity:
            return False
        self.items.append(item)
        self._dispatch()  # serve any blocked getters
        return True

    def try_get(self):
        """``(True, item)`` if available synchronously, else ``(False, None)``.

        FIFO-fair: refuses while earlier getters queue.
        """
        if self._getters or not self.items:
            return False, None
        item = self.items.popleft()
        self._dispatch()  # accept any blocked putters into the free slot
        return True, item

    def _dispatch(self) -> None:
        # Accept puts while there is room.
        while self._putters and len(self.items) < self.capacity:
            put_event, item = self._putters.popleft()
            if put_event.triggered:  # cancelled externally
                continue
            self.items.append(item)
            put_event.succeed()
        # Serve gets while there are items.
        while self._getters and self.items:
            get_event = self._getters.popleft()
            if get_event.triggered:
                continue
            get_event.succeed(self.items.popleft())
        # Serving gets may have freed room for more puts.
        while self._putters and len(self.items) < self.capacity:
            put_event, item = self._putters.popleft()
            if put_event.triggered:
                continue
            self.items.append(item)
            put_event.succeed()
            while self._getters and self.items:
                get_event = self._getters.popleft()
                if get_event.triggered:
                    continue
                get_event.succeed(self.items.popleft())

    def cancel(self, event: Event, error: BaseException) -> None:
        """Fail a pending put/get (queue close / cancellation semantics)."""
        if event.triggered:
            return
        self._getters = deque(e for e in self._getters if e is not event)
        self._putters = deque((e, i) for (e, i) in self._putters if e is not event)
        event.fail(error)

    def fail_all_waiters(self, error_factory) -> None:
        """Fail every pending get/put, e.g. when a queue is closed."""
        getters, self._getters = self._getters, deque()
        putters, self._putters = self._putters, deque()
        for ev in getters:
            if not ev.triggered:
                ev.fail(error_factory())
        for ev, _ in putters:
            if not ev.triggered:
                ev.fail(error_factory())


class _Flow:
    __slots__ = ("remaining", "event", "nbytes")

    def __init__(self, nbytes: float, event: Event):
        self.nbytes = nbytes
        self.remaining = float(nbytes)
        self.event = event


class BandwidthLink:
    """A fair-share (processor-sharing) bandwidth resource.

    With ``k`` active transfers each progresses at ``rate / k`` bytes/s.
    Whenever the active set changes, all flows' progress is brought up to
    date and the next completion is (re)scheduled. There is no calendar
    cancellation: a superseded wake-up still fires, and is recognised as
    stale because it is not the timer the link armed last.

    Bytes are conserved exactly: the integral of per-flow rate over time
    equals the flow's size at completion.
    """

    def __init__(self, env: Environment, rate: float, name: str = "link"):
        if not rate > 0:  # also rejects NaN, which `rate <= 0` lets through
            raise ValueError(f"rate must be positive, got {rate}")
        self.env = env
        self.rate = float(rate)
        self.name = name
        self._flows: list[_Flow] = []
        self._last_update = env.now
        self._wake: Optional[Event] = None  # the timer armed last
        self.bytes_moved = 0.0  # lifetime accounting, for utilisation reports

    @property
    def active_transfers(self) -> int:
        return len(self._flows)

    def current_rate_per_flow(self) -> float:
        return self.rate / len(self._flows) if self._flows else self.rate

    def set_rate(self, rate: float) -> None:
        """Change the link rate mid-simulation (fault injection).

        In-flight flows are credited their progress at the old rate up
        to now, then continue at the new rate; completions are
        rescheduled accordingly.
        """
        if not rate > 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self._advance()
        self.rate = float(rate)
        self._reschedule()

    def transfer(self, nbytes: float) -> Event:
        """Start a transfer; the event succeeds when the last byte arrives."""
        if not nbytes >= 0:  # also rejects NaN
            raise ValueError(f"transfer size must be >= 0, got {nbytes}")
        event = Event(self.env)
        if nbytes == 0:
            event.succeed(0.0)
            return event
        self._advance()
        self._flows.append(_Flow(nbytes, event))
        self._reschedule()
        return event

    # -- internals ------------------------------------------------------------
    def _advance(self) -> None:
        """Credit progress to all active flows up to ``env.now``."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._flows:
            return
        per_flow = self.rate / len(self._flows)
        credit = per_flow * dt
        for flow in self._flows:
            flow.remaining -= credit
        self.bytes_moved += credit * len(self._flows)

    def _reschedule(self) -> None:
        """Schedule a wake-up at the earliest projected completion."""
        flows = self._flows
        if not flows:
            self._wake = None
            return
        if len(flows) == 1:  # the common case: nothing to scan or share
            per_flow, min_remaining = self.rate, flows[0].remaining
        else:
            per_flow = self.rate / len(flows)
            min_remaining = min(f.remaining for f in flows)
        self._wake = timer = self.env.timeout(max(min_remaining, 0.0) / per_flow)
        timer.callbacks.append(self._on_wake)

    def _on_wake(self, timer: Event) -> None:
        if timer is not self._wake:
            return  # superseded by a newer schedule
        self._advance()
        flows = self._flows
        if len(flows) == 1:
            finished, self._flows = flows, []
        else:
            # This wake targets the projected completion of the flow that
            # had the least remaining bytes; floating-point drift can leave
            # a sub-byte residue (and a naive epsilon test would then
            # re-schedule a zero-length timeout forever). Completing every
            # flow within a sub-byte band of the minimum guarantees
            # progress each wake.
            threshold = min(f.remaining for f in flows) + 1e-6
            finished = [f for f in flows if f.remaining <= threshold]
            self._flows = [f for f in flows if f.remaining > threshold]
        for flow in finished:
            # Absorb accumulated floating error into the accounting.
            self.bytes_moved -= flow.remaining
            flow.event.succeed(flow.nbytes)
        self._reschedule()
