"""Simulated parallel filesystem (Lustre).

Files are ``.npy``-style arrays living in machine-wide storage. Reads and
writes move bytes across the filesystem's aggregate link *and* the calling
node's NIC (Lustre traffic rides the same fabric), so many co-located
instances pulling tiles contend exactly where the paper's Kebnekaise runs
did.

Files can be stored *concrete* (real ndarray) or *declared* (metadata
only) — declared files support paper-scale problems in shape-only mode.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

import numpy as np

from repro.core.tensor import SymbolicValue
from repro.errors import AlreadyExistsError, NotFoundError
from repro.simnet.events import AllOf, Environment
from repro.simnet.resources import BandwidthLink

__all__ = ["SimFileSystem"]


class SimFileSystem:
    """Machine-wide shared store of named arrays."""

    def __init__(self, env: Environment, aggregate_rate: float,
                 name: str = "lustre", client_rate: Optional[float] = None):
        self.env = env
        self.name = name
        self.link = BandwidthLink(env, aggregate_rate, name=f"{name}/ost")
        # A single client stream cannot saturate the filesystem: np.load
        # over Lustre tops out well below the fabric (striping, request
        # pipelining, the Python read path). Modelled as a per-read cap.
        self.client_rate = client_rate if client_rate is not None else aggregate_rate
        self._files: dict[str, Union[np.ndarray, SymbolicValue]] = {}
        self.bytes_read = 0
        self.bytes_written = 0

    # -- setup-time API (no simulated time) -----------------------------------
    def store_array(self, path: str, array: np.ndarray, overwrite: bool = True) -> None:
        """Place a concrete array into the filesystem (pre-processing step)."""
        if not overwrite and path in self._files:
            raise AlreadyExistsError(f"File {path!r} already exists")
        # The file owns its array, in the dtype ``stat`` declares: the
        # caller's stays writeable and a read charges the bytes it returns.
        arr = np.array(array, dtype=SymbolicValue.of(array).dtype.np_dtype)
        arr.setflags(write=False)
        self._files[path] = arr

    def declare_file(self, path: str, shape, dtype, overwrite: bool = True) -> None:
        """Register a file by metadata only (paper-scale shape-only runs)."""
        if not overwrite and path in self._files:
            raise AlreadyExistsError(f"File {path!r} already exists")
        self._files[path] = SymbolicValue(shape, dtype)

    def exists(self, path: str) -> bool:
        return path in self._files

    def listdir(self, prefix: str = "") -> list[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    def stat(self, path: str) -> SymbolicValue:
        value = self._lookup(path)
        return SymbolicValue.of(value)

    def get_array(self, path: str) -> np.ndarray:
        """Direct concrete access (testing / final validation)."""
        value = self._lookup(path)
        if isinstance(value, SymbolicValue):
            raise NotFoundError(f"File {path!r} is declared metadata-only")
        return value

    def delete(self, path: str) -> None:
        self._lookup(path)
        del self._files[path]

    def _lookup(self, path: str):
        try:
            return self._files[path]
        except KeyError:
            raise NotFoundError(f"No such file: {path!r}") from None

    # -- simulated-time API ------------------------------------------------------
    def read(self, path: str, node, symbolic: bool = False) -> Iterator:
        """Generator: move the file to ``node`` and return its contents."""
        value = self._lookup(path)
        spec = SymbolicValue.of(value)
        yield from self._move(spec.nbytes, node)
        self.bytes_read += spec.nbytes
        if symbolic or isinstance(value, SymbolicValue):
            return spec
        return value

    def write(self, path: str, value, node) -> Iterator:
        """Generator: move ``value`` from ``node`` to storage and persist it."""
        spec = SymbolicValue.of(value)
        yield from self._move(spec.nbytes, node)
        self.bytes_written += spec.nbytes
        if isinstance(value, SymbolicValue):
            self._files[path] = spec
        else:
            arr = np.asarray(value).copy()
            arr.setflags(write=False)
            self._files[path] = arr
        return None

    def _move(self, nbytes: int, node) -> Iterator:
        """Occupy the OST link, the node NIC, and the per-stream cap."""
        if nbytes == 0:
            return
        events = [
            self.link.transfer(nbytes),
            self.env.timeout(nbytes / self.client_rate),
        ]
        if node is not None:
            events.append(node.nic_link.transfer(nbytes))
        yield AllOf(self.env, events)
