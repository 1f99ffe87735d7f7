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

from repro.simnet.events import _PENDING, Environment, Event


__all__ = ["Resource", "Store", "BandwidthLink", "Request"]

_INF = float("inf")


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    The request is its own handle — what :meth:`Resource.release` takes —
    never its own value: a grant carries ``None``, so a finished claim
    refers to nothing that refers back to it and dies by reference count.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Event.__init__, flattened as Timeout's is: one per device claim.
        self.env = resource.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._processed = False
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
        # Built flat, already granted and processed.
        req = Request.__new__(Request)
        req.env = self.env
        req.callbacks = None  # processed: nothing can wait on it
        req._value = None
        req._ok = True
        req._defused = False
        req._processed = True
        req.resource = self
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


class _Flow(Event):
    """One transfer on a :class:`BandwidthLink`: its own completion
    event, carrying its size and the bytes it has still to move. The
    link's wake-up completes it in place, without a calendar entry."""

    __slots__ = ("nbytes", "remaining")

    def __init__(self, env: Environment, nbytes: float):
        # Event.__init__, flattened as Timeout's is: one per link hop.
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._processed = False
        self.nbytes = nbytes
        self.remaining = float(nbytes)


class BandwidthLink:
    """A fair-share (processor-sharing) bandwidth resource.

    With ``k`` active transfers each progresses at ``rate / k`` bytes/s.
    Whenever the active set changes, all flows' progress is brought up to
    date and the next completion is (re)scheduled. There is no calendar
    cancellation: a superseded wake-up keeps its calendar entry, but its
    callbacks are emptied when a newer one is armed, so it pops and runs
    nothing. A wake-up completes the flows that finished itself, in the
    order their own calendar entries would have popped.

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

    def set_rate(self, rate: float) -> None:
        """Change the link rate mid-simulation (fault injection).

        In-flight flows are credited their progress at the old rate up
        to now, then continue at the new rate; completions are
        rescheduled accordingly.
        """
        if not rate > 0:
            raise ValueError(f"rate must be positive, got {rate}")
        least = self._advance()
        self.rate = float(rate)
        if self._wake is not None:
            self._wake.callbacks.clear()  # superseded: pops, runs nothing
        self._arm(least)

    def transfer(self, nbytes: float) -> Event:
        """Start a transfer; the event succeeds with ``nbytes`` when the
        last byte arrives."""
        if not nbytes >= 0:  # also rejects NaN
            raise ValueError(f"transfer size must be >= 0, got {nbytes}")
        if nbytes == 0:
            event = Event(self.env)
            event.succeed(0.0)
            return event
        least = self._advance()
        flow = _Flow(self.env, nbytes)
        if flow.remaining < least:
            least = flow.remaining
        self._flows.append(flow)
        if self._wake is not None:
            self._wake.callbacks.clear()  # superseded: pops, runs nothing
        self._arm(least)
        return flow

    # -- internals ------------------------------------------------------------
    def _advance(self) -> float:
        """Credit progress to all active flows up to ``env.now``; return
        the least bytes any has left (``inf`` when idle), found in the
        same pass."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        least = _INF
        flows = self._flows
        if dt <= 0 or not flows:
            for flow in flows:
                if flow.remaining < least:
                    least = flow.remaining
            return least
        credit = self.rate / len(flows) * dt
        for flow in flows:
            flow.remaining = remaining = flow.remaining - credit
            if remaining < least:
                least = remaining
        self.bytes_moved += credit * len(flows)
        return least

    def _arm(self, least: float) -> None:
        """Schedule a wake-up at the projected completion of the flow
        with ``least`` bytes left (none when idle)."""
        flows = self._flows
        if not flows:
            self._wake = None
            return
        # The one-flow case does not share: the rate itself, undivided.
        per_flow = self.rate if len(flows) == 1 else self.rate / len(flows)
        self._wake = timer = self.env.timeout(max(least, 0.0) / per_flow)
        timer.callbacks.append(self._on_wake)

    def _on_wake(self, _timer: Event) -> None:
        least = self._advance()
        flows = self._flows
        if len(flows) == 1:
            finished, self._flows, least = flows, [], _INF
        else:
            # This wake targets the projected completion of the flow that
            # had the least remaining bytes; floating-point drift can leave
            # a sub-byte residue (and a naive epsilon test would then
            # re-schedule a zero-length timeout forever). Completing every
            # flow within a sub-byte band of the minimum guarantees
            # progress each wake. One pass splits the flows and finds the
            # least left among those that stay.
            threshold = least + 1e-6
            finished, kept, least = [], [], _INF
            for flow in flows:
                remaining = flow.remaining
                if remaining <= threshold:
                    finished.append(flow)
                else:
                    kept.append(flow)
                    if remaining < least:
                        least = remaining
            self._flows = kept
        # The finished flows complete here, as ``succeed`` and ``step``
        # would have completed them: each would enter the URGENT lane and,
        # since a timed wake pops only once that lane is empty, pop right
        # after this wake, one after the other. So each takes its value
        # and its calendar number, the next wake is armed, and then each
        # runs its callbacks, in list order — with no calendar entry.
        for flow in finished:
            # Absorb accumulated floating error into the accounting.
            self.bytes_moved -= flow.remaining
            flow._value = flow.nbytes
        env = self.env
        env._seq += len(finished)
        self._arm(least)
        try:
            for flow in finished:
                callbacks, flow.callbacks = flow.callbacks, None
                for callback in callbacks:
                    callback(flow)
                flow._processed = True
        except BaseException:
            # A callback raised out of the simulation, as out of ``step``:
            # the flows not yet run wait at the front of the URGENT lane,
            # where their own entries would have waited.
            env._urgent.extendleft(
                reversed([f for f in finished if f.callbacks is not None]))
            raise
