"""The recovery loop: checkpoint → detect → restore → replay, written once.

User-level checkpointing is the whole fault-tolerance mechanism of the
TF system paper: Save/Restore ops plus a small client library. This is
that library's loop. A driver hands it two hooks:

* ``advance(step) -> step`` runs from committed step ``step`` to the
  end, checkpointing as it goes, and returns the final step. A fault it
  detects leaves it as a :class:`Fault` naming the error and the last
  step committed before it.
* ``restore() -> step | None`` brings the state back to the newest
  checkpoint it can and returns that checkpoint's step (``None``: there
  is none, so the replay starts from step 0). A detection error from a
  restore (a peer still down) is one more failed attempt at recovering
  from the same fault.

The hooks own the restart mechanism: SGD restores into its live
session, CG boots a fresh cluster. The loop owns the rest: the attempt
bound and the backoff sleeps (a :class:`RetryPolicy`, slept on the
simulated clock), the fault log and the replay accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import DeadlineExceededError, UnavailableError
from repro.runtime.retry import RetryPolicy

__all__ = ["DETECTED", "Fault", "Recovery", "run_recoverable"]

# What fault detection raises: a deadline on a lost peer, or a peer that
# is known to be down.
DETECTED = (DeadlineExceededError, UnavailableError)


class Fault(Exception):
    """``error`` (one of :data:`DETECTED`) detected by ``advance`` after
    ``step`` committed steps."""

    def __init__(self, error: Exception, step: int):
        super().__init__(error)
        self.error = error
        self.step = step


@dataclass
class Recovery:
    """What one recoverable run did."""

    step: int = 0  # final committed step
    recoveries: int = 0  # faults recovered from
    replayed: int = 0  # committed steps recomputed after restores
    # (sim time, error class name, message) per detected fault.
    fault_log: list = field(default_factory=list)


def run_recoverable(env, advance: Callable[[int], int],
                    restore: Callable[[], Optional[int]],
                    policy: RetryPolicy) -> Recovery:
    """Run ``advance`` to the end, restoring and replaying after faults.

    Each fault gets the whole of ``policy``, counted as
    :func:`repro.runtime.retry.retry_gen` counts: the advance that
    failed is the first attempt, and each retry sleeps the next backoff
    delay on ``env``'s clock, then restores. Once they are spent, the
    last detection error is raised again, as the cause of an error of
    its class that says why the loop stopped.
    """
    record = Recovery()
    restored = 0
    while True:
        try:
            record.step = advance(restored)
            return record
        except Fault as fault:
            error, reached = fault.error, fault.step
        record.recoveries += 1
        record.fault_log.append((env.now, type(error).__name__, str(error)))
        for delay in policy.delays():
            env.run(until=env.timeout(delay))
            try:
                restored = restore() or 0
                break
            except DETECTED as exc:
                error = exc
        else:
            raise type(error)(
                f"{error} (recovery gave up: {policy} allows no more "
                f"restarts)"
            ) from error
        record.replayed += reached - restored
