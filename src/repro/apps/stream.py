"""TF-STREAM: the paper's communication micro-benchmark (Section IV-A).

Two tasks on two nodes — a parameter server and a worker. A vector lives
on a device of each task; an ``assign_add`` pushes the worker's vector to
the parameter server and adds it there. Invoking that op through a
session, *without fetching the result back* (the paper's explicit trick),
times one transfer; 100 invocations give the sustained MB/s of Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro as tf
from repro.apps.common import ClusterHandle, build_cluster, session_config
from repro.errors import InvalidArgumentError

__all__ = ["run_stream", "StreamResult"]

MB = 1024 * 1024


@dataclass
class StreamResult:
    """Outcome of one STREAM configuration."""

    system: str
    device: str  # "cpu" or "gpu"
    protocol: str  # server protocol string
    size_bytes: int
    iterations: int
    seconds_per_transfer: float
    validated: bool

    @property
    def bandwidth(self) -> float:
        """Sustained bytes/second."""
        return self.size_bytes / self.seconds_per_transfer

    @property
    def bandwidth_mbs(self) -> float:
        """MB/s as the paper reports (1 MB = 2**20 B)."""
        return self.bandwidth / MB


def run_stream(
    system: str = "tegner-k420",
    device: str = "gpu",
    size_mb: float = 128,
    protocol: str = "grpc+verbs",
    iterations: int = 100,
    shape_only: bool = True,
    cluster: ClusterHandle | None = None,
    optimize: bool | None = None,
) -> StreamResult:
    """Run the STREAM benchmark on a simulated system.

    Args:
        system: machine configuration (see :data:`repro.apps.common.SYSTEMS`).
        device: whether the vectors live in host or GPU memory.
        size_mb: transfer size (the paper sweeps 2, 16, 128 MB).
        protocol: "grpc" | "grpc+mpi" | "grpc+verbs".
        iterations: number of timed transfers (paper: 100).
        shape_only: skip materializing the vectors (identical timing path).
    """
    if device not in ("cpu", "gpu"):
        raise InvalidArgumentError(f"device must be cpu or gpu, got {device!r}")
    size_bytes = int(size_mb * MB)
    n = size_bytes // 4  # float32 elements
    # One task per node: STREAM measures the *inter-node* fabric ("we
    # create a simple TensorFlow cluster with two tasks ... on the two
    # nodes"), so Table I's co-location density does not apply here.
    handle = cluster or build_cluster(system, {"ps": 1, "worker": 1},
                                      protocol=protocol, tasks_per_node=1)
    env = handle.env

    g = tf.Graph()
    with g.as_default():
        with g.device(f"/job:ps/task:0/device:{device}:0"):
            target = tf.Variable(
                tf.zeros([n], dtype=tf.float32, graph=g), name="target"
            )
        with g.device(f"/job:worker/task:0/device:{device}:0"):
            source = tf.Variable(
                tf.ones([n], dtype=tf.float32, graph=g), name="source"
            )
        update = tf.assign_add(target, source.value())

    config = session_config(shape_only=shape_only, optimize=optimize)
    sess = tf.Session(handle.server("worker", 0), graph=g, config=config)
    sess.run([target.initializer, source.initializer])
    # Warm-up transfer (connection setup, first-touch effects).
    sess.run(update.op)
    start = env.now
    for _ in range(iterations):
        # Fetch the *operation*, not the tensor: no result flows back.
        sess.run(update.op)
    elapsed = env.now - start

    validated = False
    if not shape_only:
        final = sess.run(target)
        expected = float(iterations + 1)  # warm-up included
        validated = bool(np.allclose(final, expected))
    result = StreamResult(
        system=system,
        device=device,
        protocol=protocol,
        size_bytes=size_bytes,
        iterations=iterations,
        seconds_per_transfer=elapsed / iterations,
        validated=validated,
    )
    if cluster is None:  # built here: nothing else runs on it
        handle.close()
    return result
