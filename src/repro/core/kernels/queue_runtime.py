"""Runtime state of a FIFO queue.

The graph-level :class:`~repro.core.ops.queue_ops.FIFOQueue` compiles to
ops whose kernels operate on a :class:`SimQueue` held in the owning task's
:class:`~repro.core.kernels.registry.ResourceManager`. Blocking semantics
(enqueue on full, dequeue on empty) ride on the DES
:class:`~repro.simnet.resources.Store`.
"""

from __future__ import annotations

from typing import Any, Sequence


from repro.errors import CancelledError, OutOfRangeError
from repro.simnet.events import Environment, Event
from repro.simnet.resources import Store

__all__ = ["SimQueue"]


class SimQueue:
    """A bounded multi-component FIFO queue with TF close semantics.

    * ``enqueue`` blocks while the queue holds ``capacity`` elements and
      fails with :class:`CancelledError` once the queue is closed.
    * ``dequeue`` blocks while empty; after ``close()`` it drains remaining
      elements, then fails with :class:`OutOfRangeError` (exactly TF's
      behaviour, which the paper's reducers rely on for shutdown).
    """

    def __init__(
        self,
        env: Environment,
        capacity: int,
        num_components: int,
        name: str,
    ):
        self.env = env
        self.capacity = capacity
        self.num_components = num_components
        self.name = name
        self._store = Store(env, capacity=capacity, name=name)
        self._closed = False
        # Dequeue waiters blocked on an *empty* queue must be failed when the
        # queue closes; the Store handles that via fail_all_waiters.

    # -- state ------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def size(self) -> int:
        return len(self._store)

    # -- operations --------------------------------------------------------
    def enqueue(self, components: Sequence[Any]) -> Event:
        """Event that succeeds once the element is accepted."""
        if self._closed:
            event = self.env.event()
            event.fail(
                CancelledError(f"Queue {self.name!r} is closed; enqueue rejected")
            )
            return event
        if len(components) != self.num_components:
            event = self.env.event()
            from repro.errors import InvalidArgumentError

            event.fail(
                InvalidArgumentError(
                    f"Queue {self.name!r} expects {self.num_components} "
                    f"components, got {len(components)}"
                )
            )
            return event
        return self._store.put(tuple(components))

    def try_enqueue(self, components: Sequence[Any]) -> bool:
        """Accept synchronously when there is room; False falls back to
        the event-based :meth:`enqueue` (including all failure cases)."""
        if self._closed or len(components) != self.num_components:
            return False
        return self._store.try_put(tuple(components))

    def dequeue(self) -> Event:
        """Event that succeeds with a components tuple."""
        if self._closed and len(self._store) == 0 and self._store.put_queue_length == 0:
            event = self.env.event()
            event.fail(
                OutOfRangeError(f"Queue {self.name!r} is closed and empty")
            )
            return event
        return self._store.get()

    def try_dequeue(self) -> tuple[bool, Any]:
        """``(True, components)`` when an element is ready synchronously;
        ``(False, None)`` falls back to the event-based :meth:`dequeue`."""
        return self._store.try_get()

    def close(self, cancel_pending_enqueues: bool = False) -> None:
        self._closed = True
        # Pending blocked getters can never be satisfied (no new enqueues
        # will arrive beyond those already blocked as putters).
        if cancel_pending_enqueues:
            self._store.fail_all_waiters(
                lambda: CancelledError(f"Queue {self.name!r} closed; op cancelled")
            )
        else:
            # Allow blocked putters to land, but fail starved getters once
            # there is provably nothing left to deliver.
            if self._store.put_queue_length == 0 and len(self._store) == 0:
                self._store.fail_all_waiters(
                    lambda: OutOfRangeError(f"Queue {self.name!r} is closed and empty")
                )

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"<SimQueue {self.name!r} size={self.size()}/{self.capacity} {state}>"
        )
