"""Key-based tensor rendezvous.

TF moves tensors between devices through a rendezvous table: the producer
``_Send``\\ s under a key, the consumer ``_Recv``\\ s under the same key, and
whichever side arrives first waits. Keys are unique per edge and every
run gets its own :class:`Rendezvous`, so values match exactly once.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import DeadlineExceededError, InternalError
from repro.simnet.events import Environment, Event, arm_deadline

__all__ = ["Rendezvous", "make_key"]


def make_key(src_device: str, dst_device: str, tensor_name: str) -> str:
    return f"{src_device};{dst_device};{tensor_name}"


class Rendezvous:
    """Exactly-once key/value matching between producers and consumers."""

    def __init__(self, env: Environment):
        self.env = env
        self._values: dict[str, Any] = {}
        self._waiters: dict[str, list[Event]] = {}
        self.sends = 0
        self.recvs = 0
        self.deadline_failures = 0

    def send(self, key: str, value: Any) -> None:
        """Deposit ``value``; wakes all waiting receivers."""
        if key in self._values:
            raise InternalError(f"Duplicate rendezvous send for key {key!r}")
        self.sends += 1
        self._values[key] = value
        for event in self._waiters.pop(key, ()):
            event.succeed(value)

    def recv(self, key: str, deadline: Optional[float] = None) -> Event:
        """Event delivering the value sent under ``key``.

        Multiple receivers of the same key all get the value (one send may
        feed several consumers on the destination device). With a
        ``deadline`` (simulated seconds), a value that has not arrived in
        time fails the event with :class:`DeadlineExceededError` naming
        the key — a dead producer surfaces as an error instead of a hang.
        """
        self.recvs += 1
        event = Event(self.env)
        if key in self._values:
            event.succeed(self._values[key])
            return event
        self._waiters.setdefault(key, []).append(event)
        if deadline is not None:
            def expire():
                waiters = self._waiters.get(key)
                if waiters and event in waiters:
                    waiters.remove(event)
                    if not waiters:
                        del self._waiters[key]
                self.deadline_failures += 1
                event.fail(DeadlineExceededError(
                    f"recv deadline of {deadline:g} sim-seconds exceeded "
                    f"for rendezvous key {key!r}: the producer never sent "
                    f"(worker lost or stalled)"
                ))

            arm_deadline(self.env, deadline, event, expire)
        return event

    def recv_nowait(self, key: str) -> tuple[bool, Any]:
        """``(True, value)`` if ``key`` was already sent, else ``(False, None)``.

        The synchronous flavour of :meth:`recv` for executors that already
        know the producer completed: no event is allocated or scheduled.
        """
        if key in self._values:
            self.recvs += 1
            return True, self._values[key]
        return False, None

    def pending_keys(self) -> list[str]:
        """Keys with waiting receivers (deadlock diagnostics)."""
        return sorted(self._waiters)

    def __repr__(self) -> str:
        return (
            f"<Rendezvous {self.sends} sends / {self.recvs} recvs, "
            f"{len(self._waiters)} waiting>"
        )
