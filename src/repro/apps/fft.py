"""Distributed 1-D FFT (paper Section IV, Fig. 6).

The length-``N`` complex signal is split into ``T`` interleaved tiles
(``x[t::T]``, the Cooley–Tukey decimation-in-time decomposition), stored
on the filesystem. Workers load their tiles, run the FFT on their GPU and
push ``(index, transform)`` into the merger's queue. The merger collects
all tiles and then recombines them **locally in Python/NumPy** with
twiddle factors — the serial host phase the paper identifies as the
bottleneck ("the process of merging in Python takes considerably longer
execution time than the computation part"). Scaling numbers therefore
time the run only up to the point where all tiles are collected, exactly
as the paper reports Fig. 11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

import repro as tf
from repro.apps.common import ClusterHandle, build_cluster, session_config
from repro.errors import InvalidArgumentError, OutOfRangeError
from repro.simnet.parameters import PARAMETERS

__all__ = ["run_fft", "FFTResult", "merge_subtransforms"]


@dataclass
class FFTResult:
    """Outcome of one FFT configuration."""

    system: str
    n: int
    num_tiles: int
    num_gpus: int
    collect_seconds: float  # start -> all tiles at the merger (paper metric)
    merge_seconds: float  # serial Python recombination
    validated: bool
    max_error: float = 0.0
    spectrum: Optional[np.ndarray] = None  # merged transform (concrete mode)

    @property
    def flops(self) -> float:
        """The paper's convention: 5 N log2 N."""
        return 5.0 * self.n * math.log2(self.n)

    @property
    def gflops(self) -> float:
        """Gflops/s to the collection point — Fig. 11's metric."""
        return self.flops / self.collect_seconds / 1e9

    @property
    def gflops_with_merge(self) -> float:
        return self.flops / (self.collect_seconds + self.merge_seconds) / 1e9


def merge_subtransforms(tiles: list[np.ndarray]) -> np.ndarray:
    """Recombine FFTs of interleaved subsequences into the full FFT.

    ``tiles[t] = FFT(x[t::T])`` with ``T`` a power of two. Combines level
    by level (radix-2): the FFT of ``x[j::S]`` (length ``L``) is built
    from stride-``2S`` transforms as
    ``F_{j,S}[k] = F_{j,2S}[k mod L/2] + exp(-2πik/L) F_{j+S,2S}[k mod L/2]``.
    """
    t_count = len(tiles)
    if t_count & (t_count - 1):
        raise InvalidArgumentError(f"num_tiles must be a power of two, got {t_count}")
    level = {j: np.asarray(tile, dtype=np.complex128)
             for j, tile in enumerate(tiles)}
    stride = t_count
    while stride > 1:
        half = stride // 2
        merged = {}
        for j in range(half):
            even = level[j]
            odd = level[j + half]
            length = 2 * even.shape[0]
            k = np.arange(length)
            twiddle = np.exp(-2j * np.pi * k / length)
            doubled_even = np.concatenate([even, even])
            doubled_odd = np.concatenate([odd, odd])
            merged[j] = doubled_even + twiddle * doubled_odd
        level = merged
        stride = half
    return level[0]


def _store_tiles(fs, n, num_tiles, shape_only, seed, signal=None):
    tile_len = n // num_tiles
    if shape_only:
        for t in range(num_tiles):
            fs.declare_file(f"fft_tile_{t}.npy", (tile_len,), "complex128")
        return None
    if signal is not None:
        signal = np.asarray(signal, dtype=np.complex128)
        if signal.shape != (n,):
            raise InvalidArgumentError(
                f"signal shape {signal.shape} does not match n={n}"
            )
    else:
        rng = np.random.default_rng(seed)
        signal = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(
            np.complex128
        )
    for t in range(num_tiles):
        fs.store_array(f"fft_tile_{t}.npy", np.ascontiguousarray(signal[t::num_tiles]))
    return signal


def run_fft(
    system: str = "tegner-k80",
    n: int = 1 << 12,
    num_tiles: int = 8,
    num_gpus: int = 2,
    protocol: str = "grpc+verbs",
    shape_only: bool = True,
    queue_capacity: int = 8,
    seed: int = 0,
    cluster: Optional[ClusterHandle] = None,
    signal=None,
    optimize: Optional[bool] = None,
) -> FFTResult:
    """Run the distributed FFT application.

    Paper configurations: K420 — ``n=2**29`` in 64 tiles; K80 —
    ``n=2**31`` in 128 tiles; 1 merger + {2, 4, 8} GPUs.
    """
    if n % num_tiles != 0:
        raise InvalidArgumentError(f"num_tiles {num_tiles} must divide n {n}")
    if num_tiles & (num_tiles - 1):
        raise InvalidArgumentError("num_tiles must be a power of two")
    tile_len = n // num_tiles
    handle = cluster or build_cluster(
        system, {"merger": 1, "worker": num_gpus}, protocol=protocol
    )
    env = handle.env
    fs = handle.filesystem
    signal = _store_tiles(fs, n, num_tiles, shape_only, seed, signal=signal)

    g = tf.Graph(seed=seed)
    with g.as_default():
        with g.device("/job:merger/task:0/device:cpu:0"):
            result_queue = tf.FIFOQueue(
                queue_capacity, [tf.int64, tf.complex128],
                shapes=[[], [tile_len]], name="results",
            )
            pop = result_queue.dequeue(name="pop")
        enqueue_ops = []
        for w in range(num_gpus):
            my_tiles = np.asarray(
                [t for t in range(num_tiles) if t % num_gpus == w],
                dtype=np.int64,
            )
            if my_tiles.size == 0:
                continue
            with g.device(f"/job:worker/task:{w}/device:cpu:0"):
                ds = tf.Dataset.from_tensor_slices(my_tiles)
                idx = ds.make_one_shot_iterator(name=f"tiles_w{w}").get_next()
                raw = tf.read_tile("fft_tile_{0}.npy", [idx],
                                   dtype=tf.complex128, shape=[tile_len],
                                   name=f"load_w{w}")
            with g.device(f"/job:worker/task:{w}/device:gpu:0"):
                spectrum = tf.fft(raw, name=f"fft_w{w}")
            enqueue_ops.append(result_queue.enqueue([idx, spectrum],
                                                    name=f"push_w{w}"))

    shape_cfg = session_config(shape_only=shape_only, optimize=optimize)
    state = {"collect_end": None, "merge_end": None}
    collected: dict[int, np.ndarray] = {}

    def worker_proc(op_index: int):
        sess = tf.Session(handle.server("worker", op_index), graph=g,
                          config=shape_cfg)
        try:
            while True:
                yield from sess.run_gen(enqueue_ops[op_index])
        except OutOfRangeError:
            return

    def merger_proc():
        sess = tf.Session(handle.server("merger", 0), graph=g,
                          config=shape_cfg)
        node = handle.server("merger", 0).runtime.node
        tile_bytes = tile_len * 16
        # Extracting a dequeued tile into the client's collection buffer is
        # a serial host-side copy; the paper found this extraction path
        # expensive enough that naive slicing insertion "prevented any
        # scaling" — even the improved version caps the merger's intake.
        extract_rate = (node.cpu.model.numpy_bytes_rate
                        / PARAMETERS["fft.extract_slowdown"].value)
        for _ in range(num_tiles):
            idx_val, data = yield from sess.run_gen(list(pop))
            yield env.timeout(tile_bytes / extract_rate)
            if not shape_only:
                collected[int(idx_val)] = data
        state["collect_end"] = env.now
        # Serial Python/NumPy merge on the merger host: log2(T) passes,
        # each streaming ~3 length-N complex arrays through the interpreter.
        passes = math.log2(num_tiles)
        merge_bytes = 3.0 * n * 16 * passes
        yield env.timeout(merge_bytes / node.cpu.model.python_bytes_rate)
        state["merge_end"] = env.now

    start = env.now
    procs = [env.process(worker_proc(i)) for i in range(len(enqueue_ops))]
    procs.append(env.process(merger_proc()))
    for proc in procs:
        env.run(until=proc)

    validated = False
    max_error = 0.0
    merged = None
    if not shape_only:
        tiles = [collected[t] for t in range(num_tiles)]
        merged = merge_subtransforms(tiles)
        reference = np.fft.fft(signal)
        max_error = float(np.max(np.abs(merged - reference)))
        scale = float(np.max(np.abs(reference))) or 1.0
        validated = bool(max_error / scale < 1e-9)
    result = FFTResult(
        system=system,
        n=n,
        num_tiles=num_tiles,
        num_gpus=num_gpus,
        collect_seconds=state["collect_end"] - start,
        merge_seconds=state["merge_end"] - state["collect_end"],
        validated=validated,
        max_error=max_error,
        spectrum=merged,
    )
    if cluster is None:  # built here: nothing else runs on it
        handle.close()
    return result
