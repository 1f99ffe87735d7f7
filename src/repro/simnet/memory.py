"""Device memory accounting.

A :class:`MemoryPool` tracks allocations against a capacity and raises
:class:`~repro.errors.ResourceExhaustedError` on overflow — giving the
K420's 1 GB limit (which forced the paper to use 4096² tiles on Tegner)
real teeth in the simulation.
"""

from __future__ import annotations

from repro.errors import InternalError, ResourceExhaustedError

__all__ = ["MemoryPool"]


class MemoryPool:
    """A simple high-water-mark allocator for one device."""

    def __init__(self, capacity: int, name: str = "mem"):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.name = name
        self.in_use = 0
        self.peak = 0
        self.alloc_count = 0

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def allocate(self, nbytes: int) -> int:
        """Reserve ``nbytes``; returns the amount for symmetric freeing."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        if self.in_use + nbytes > self.capacity:
            raise ResourceExhaustedError(
                f"OOM on {self.name}: requested {nbytes} B with "
                f"{self.available} B free of {self.capacity} B"
            )
        self.in_use = in_use = self.in_use + nbytes
        self.alloc_count += 1
        if in_use > self.peak:
            self.peak = in_use
        return nbytes

    def free(self, nbytes: int) -> None:
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"negative free: {nbytes}")
        if nbytes > self.in_use:
            raise InternalError(
                f"{self.name}: freeing {nbytes} B but only {self.in_use} B in use"
            )
        self.in_use -= nbytes

    def utilisation(self) -> float:
        return self.in_use / self.capacity

    def __repr__(self) -> str:
        return (
            f"<MemoryPool {self.name} {self.in_use}/{self.capacity} B "
            f"(peak {self.peak})>"
        )
