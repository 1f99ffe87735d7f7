"""Retry with exponential backoff over simulated time.

Transient faults (dropped messages, a task mid-restart) surface as
:class:`~repro.errors.UnavailableError`; gRPC clients classically mask
them with capped exponential backoff. :class:`RetryPolicy` captures the
schedule, :func:`retry_gen` drives a generator-shaped attempt under it
inside the DES (backoff sleeps advance the simulated clock, never the
wall clock), and the checkpoint-restart loop of
:mod:`repro.runtime.recovery` sleeps :meth:`RetryPolicy.delays` between
its restore attempts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.errors import InvalidArgumentError, UnavailableError

__all__ = ["RetryPolicy", "retry_gen"]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff: attempt, sleep, attempt, ...

    ``max_attempts`` counts attempts (not retries): 5 means the first
    try plus up to 4 retries. Backoff delays are *simulated* seconds.
    """

    max_attempts: int = 5
    initial_backoff: float = 1e-3
    multiplier: float = 2.0
    max_backoff: float = 1.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise InvalidArgumentError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.initial_backoff < 0 or self.max_backoff < 0:
            raise InvalidArgumentError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise InvalidArgumentError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )

    def delays(self) -> Iterator[float]:
        """The backoff sleeps between attempts (``max_attempts - 1``)."""
        delay = self.initial_backoff
        for _ in range(self.max_attempts - 1):
            yield min(delay, self.max_backoff)
            delay *= self.multiplier


def retry_gen(env, attempt: Callable[[], Iterator], policy: Optional[RetryPolicy],
              retryable=(UnavailableError,), on_retry=None):
    """Drive ``attempt()`` generators under ``policy`` inside the DES.

    ``attempt`` is called afresh per try and its generator is delegated
    to; a ``retryable`` failure sleeps the next backoff delay in
    simulated time and tries again. The last failure propagates. With
    ``policy=None`` the attempt runs exactly once (no masking).
    ``on_retry(exc, delay)`` is called before each backoff sleep.
    """
    if policy is None:
        return (yield from attempt())
    remaining = list(policy.delays())
    while True:
        try:
            return (yield from attempt())
        except retryable as exc:
            if not remaining:
                raise
            delay = remaining.pop(0)
            if on_retry is not None:
                on_retry(exc, delay)
            yield env.timeout(delay)
