"""Tiled matrix–matrix multiplication (paper Section IV, Fig. 4).

The two input matrices are pre-processed into square tiles stored on the
parallel filesystem. A dataset of tile-index triples ``(i, k, j)`` is
sharded across workers; each worker loads its tiles, multiplies them on
its GPU, and pushes ``(i, j, partial)`` into the FIFO queue of the reducer
responsible for target ``(i, j)`` (the paper uses two reducers keyed by
odd/even target index). Reducers accumulate partials into NumPy arrays —
a map-reduce over tiles, with the input pipeline shaped exactly like an
ML training pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Optional

import numpy as np

import repro as tf
from repro.apps.common import ClusterHandle, build_cluster, session_config
from repro.core.tensor import SymbolicValue
from repro.errors import InvalidArgumentError, OutOfRangeError
from repro.simnet.parameters import PARAMETERS

__all__ = ["run_matmul", "MatmulResult"]


@dataclass
class MatmulResult:
    """Outcome of one tiled-matmul configuration."""

    system: str
    n: int
    tile: int
    num_gpus: int
    num_reducers: int
    protocol: str
    elapsed: float  # simulated seconds, map start -> all tiles stored
    products: int  # number of tile-tile multiplications
    validated: bool
    max_error: float = 0.0

    @property
    def flops(self) -> float:
        """The paper's convention: 2N^3 - N^2."""
        return 2.0 * self.n**3 - float(self.n) ** 2

    @property
    def gflops(self) -> float:
        return self.flops / self.elapsed / 1e9


def _make_tiles(fs, n: int, tile: int, shape_only: bool, seed: int):
    """Pre-process A and B into tiles on the filesystem (paper's prep step)."""
    nt = n // tile
    rng = np.random.default_rng(seed)
    blocks = {"A": {}, "B": {}}
    for name in ("A", "B"):
        for i in range(nt):
            for j in range(nt):
                path = f"{name}_{i}_{j}.npy"
                if shape_only:
                    fs.declare_file(path, (tile, tile), "float32")
                else:
                    data = rng.standard_normal((tile, tile)).astype(np.float32)
                    fs.store_array(path, data)
                    blocks[name][(i, j)] = data
    return blocks


def run_matmul(
    system: str = "tegner-k420",
    n: int = 1024,
    tile: int = 256,
    num_gpus: int = 2,
    num_reducers: int = 2,
    protocol: str = "grpc+verbs",
    shape_only: bool = True,
    queue_capacity: int = 4,
    seed: int = 0,
    store_results: bool = True,
    cluster: Optional[ClusterHandle] = None,
    optimize: Optional[bool] = None,
) -> MatmulResult:
    """Run the tiled matmul application.

    In concrete mode (``shape_only=False``) the final matrix is assembled
    and validated against ``A @ B``.
    """
    if n % tile != 0:
        raise InvalidArgumentError(f"tile {tile} must divide n {n}")
    nt = n // tile
    if num_reducers < 1 or num_gpus < 1:
        raise InvalidArgumentError("need >= 1 reducer and >= 1 worker")
    # Workers are placed first so "N GPUs" fills whole nodes with worker
    # instances exactly as the paper's runs do (4 GPUs on Kebnekaise = one
    # fully-loaded node); reducers land on the nodes after them.
    handle = cluster or build_cluster(
        system, {"worker": num_gpus, "reducer": num_reducers}, protocol=protocol
    )
    env = handle.env
    fs = handle.filesystem
    blocks = _make_tiles(fs, n, tile, shape_only, seed)

    # Work list: (i, k, j); the reducer for target (i, j) is chosen by
    # index parity, generalized to any reducer count.
    def reducer_of(i: int, j: int) -> int:
        return (i * nt + j) % num_reducers

    items = [(i, k, j) for i in range(nt) for j in range(nt) for k in range(nt)]
    per_reducer_counts = [0] * num_reducers
    for i, _k, j in items:
        per_reducer_counts[reducer_of(i, j)] += 1

    g = tf.Graph(seed=seed)
    with g.as_default():
        queues = []
        for r in range(num_reducers):
            with g.device(f"/job:reducer/task:{r}/device:cpu:0"):
                queues.append(tf.FIFOQueue(
                    queue_capacity,
                    [tf.int64, tf.int64, tf.float32],
                    shapes=[[], [], [tile, tile]],
                    name=f"result_queue_{r}",
                ))
        # Per (worker, reducer) pipeline: a dataset shard feeding one
        # enqueue op; the graph is identical across iterations, with all
        # state flowing through the pipeline (pure data-driven).
        enqueue_ops: dict[tuple[int, int], object] = {}
        dequeue_ops = []
        for w in range(num_gpus):
            for r in range(num_reducers):
                mine = [
                    (i, k, j)
                    for idx, (i, k, j) in enumerate(items)
                    if reducer_of(i, j) == r and idx % num_gpus == w
                ]
                if not mine:
                    continue
                arr = np.asarray(mine, dtype=np.int64)
                with g.device(f"/job:worker/task:{w}/device:cpu:0"):
                    ds = tf.Dataset.from_tensor_slices(
                        (arr[:, 0], arr[:, 1], arr[:, 2])
                    )
                    it_i, it_k, it_j = ds.make_one_shot_iterator(
                        name=f"items_w{w}_r{r}"
                    ).get_next()
                    a = tf.read_tile("A_{0}_{1}.npy", [it_i, it_k],
                                     dtype=tf.float32, shape=[tile, tile],
                                     name=f"loadA_w{w}_r{r}")
                    b = tf.read_tile("B_{0}_{1}.npy", [it_k, it_j],
                                     dtype=tf.float32, shape=[tile, tile],
                                     name=f"loadB_w{w}_r{r}")
                with g.device(f"/job:worker/task:{w}/device:gpu:0"):
                    c = tf.matmul(a, b, name=f"mm_w{w}_r{r}")
                enqueue_ops[(w, r)] = queues[r].enqueue(
                    [it_i, it_j, c], name=f"push_w{w}_r{r}"
                )
        for r in range(num_reducers):
            dequeue_ops.append(queues[r].dequeue(name=f"pop_{r}"))

    start_time = env.now
    finish_times: dict[int, float] = {}
    accumulators: list[dict[tuple[int, int], np.ndarray]] = [
        {} for _ in range(num_reducers)
    ]

    def worker_proc(w: int):
        sess = tf.Session(handle.server("worker", w), graph=g,
                          config=session_config(shape_only, optimize))
        active = [r for r in range(num_reducers) if (w, r) in enqueue_ops]
        # Round-robin across reducer pipelines so both queues fill evenly.
        while active:
            for r in list(active):
                try:
                    yield from sess.run_gen(enqueue_ops[(w, r)])
                except OutOfRangeError:
                    active.remove(r)

    def reducer_proc(r: int):
        sess = tf.Session(handle.server("reducer", r), graph=g,
                          config=session_config(shape_only, optimize))
        node = handle.server("reducer", r).runtime.node
        acc = accumulators[r]
        tile_bytes = tile * tile * 4
        for _ in range(per_reducer_counts[r]):
            i_val, j_val, c_val = yield from sess.run_gen(dequeue_ops[r])
            # Local accumulation on the reducer host: one `+=` on the
            # delivered ndarray — client-loop overhead applies, but it is
            # lighter than the slicing-insertion merge loops of the FFT app
            # (hence a multiple of the interpreter-bound byte rate).
            accumulate_rate = (PARAMETERS["matmul.accumulate_speedup"].value
                               * node.cpu.model.python_bytes_rate)
            yield env.timeout(3 * tile_bytes / accumulate_rate)
            if not shape_only:
                key = (int(i_val), int(j_val))
                if key in acc:
                    acc[key] = acc[key] + c_val
                else:
                    acc[key] = c_val.copy()
        if store_results:
            for (i, j), value in sorted(acc.items()) if acc else []:
                yield from fs.write(f"C_{i}_{j}.npy", value, node)
            if shape_only:
                # Same I/O volume, metadata only.
                my_targets = {
                    (i, j) for i in range(nt) for j in range(nt)
                    if reducer_of(i, j) == r
                }
                for i, j in sorted(my_targets):
                    yield from fs.write(
                        f"C_{i}_{j}.npy",
                        SymbolicValue((tile, tile), tf.float32), node,
                    )
        finish_times[r] = env.now

    procs = [env.process(worker_proc(w)) for w in range(num_gpus)]
    procs += [env.process(reducer_proc(r)) for r in range(num_reducers)]
    for proc in procs:
        env.run(until=proc)
    elapsed = max(finish_times.values()) - start_time

    validated = False
    max_error = 0.0
    if not shape_only:
        a_full = np.block([
            [blocks["A"][(i, k)] for k in range(nt)] for i in range(nt)
        ])
        b_full = np.block([
            [blocks["B"][(k, j)] for j in range(nt)] for k in range(nt)
        ])
        expected = a_full @ b_full
        c_full = np.block([
            [fs.get_array(f"C_{i}_{j}.npy") for j in range(nt)]
            for i in range(nt)
        ])
        max_error = float(np.max(np.abs(c_full - expected)))
        scale = float(np.max(np.abs(expected))) or 1.0
        validated = bool(max_error / scale < 1e-4)
    result = MatmulResult(
        system=system,
        n=n,
        tile=tile,
        num_gpus=num_gpus,
        num_reducers=num_reducers,
        protocol=protocol,
        elapsed=elapsed,
        products=len(items),
        validated=validated,
        max_error=max_error,
    )
    if cluster is None:  # built here: nothing else runs on it
        handle.close()
    return result
