"""Distributed 2-D Jacobi heat stencil with halo exchange.

The first workload in this repository where *communication topology*,
not kernel time, dominates. The unit square carries a Laplace/heat
problem (hot top edge, cold sides and bottom); the grid is sharded into
horizontal row blocks, one per worker, each living in a persistent
variable on the worker's device. Per iteration:

* every worker exchanges one halo row with each neighbour — the slices
  are built *on the owner's device*, so the partitioner's ``_Send`` /
  ``_Recv`` insertion moves exactly one ``n``-cell row per edge across
  the fabric (the canonical nearest-neighbour exchange of MPI stencil
  codes);
* the 5-point update runs locally on each block;
* a per-worker residual partial ``sum((u_new - u)^2)`` lands in a scalar
  variable.

Every ``check_every`` iterations the workers synchronize globally — the
convergence test plus a full-field assembly (the restart-file /
inspection sync of production stencil codes) — via one of two
head-to-head mechanisms:

* ``mode="collective"``: graph-level :func:`repro.all_reduce` over the
  residual partials plus :func:`repro.all_gather` over the blocks. The
  partitioner lowers both into ring legs over the simulated transports
  — every link carries ``(W-1)/W`` of the field, no dedicated server.
* ``mode="reducer"``: the paper's central pattern — partials and blocks
  stream to the chief task, are reduced/concatenated there, and the
  results fan back out to every worker through per-worker identities.

Both modes accumulate in rank order starting from zeros, so residual
histories and fields are *byte-identical*; only the simulated clock
differs, and the ring wins once ``W >= 4`` because the chief's NIC
serializes ``O(W)`` field copies while each ring link carries less than
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import repro as tf
from repro.apps.common import (
    ClusterHandle,
    build_cluster,
    session_config,
    task_device,
)
from repro.errors import InvalidArgumentError

__all__ = [
    "run_stencil",
    "StencilResult",
    "jacobi_reference",
]


@dataclass
class StencilResult:
    """Outcome of one stencil configuration."""

    system: str
    n: int
    num_workers: int
    mode: str
    iterations: int  # iterations actually run
    elapsed: float  # simulated seconds, iteration loop + checks
    check_elapsed: float  # simulated seconds spent in global syncs only
    residual_history: list = field(default_factory=list)
    converged: bool = False
    solution: Optional[np.ndarray] = None  # assembled field (concrete mode)
    validated: bool = False
    plan_items: int = 0

    @property
    def seconds_per_iteration(self) -> float:
        return self.elapsed / max(self.iterations, 1)


def jacobi_reference(n: int, iterations: int) -> tuple[np.ndarray, list[float]]:
    """NumPy reference: the exact update the graph performs, in order.

    Returns the field after ``iterations`` sweeps and the residual
    ``sum((u_new - u)^2)`` per sweep.
    """
    u = _initial_field(n)
    residuals = []
    for _ in range(iterations):
        padded = np.zeros((n + 2, n + 2))
        padded[1:-1, 1:-1] = u
        new = 0.25 * (
            padded[:-2, 1:-1] + padded[2:, 1:-1]
            + padded[1:-1, :-2] + padded[1:-1, 2:]
        )
        new[:, 0] = 0.0
        new[:, -1] = 0.0
        new[0, :] = 1.0
        new[-1, :] = 0.0
        residuals.append(float(np.sum((new - u) ** 2)))
        u = new
    return u, residuals


def _initial_field(n: int) -> np.ndarray:
    u = np.zeros((n, n))
    u[0, :] = 1.0
    return u


def run_stencil(
    system: str = "tegner-k420",
    n: int = 64,
    num_workers: int = 2,
    iterations: int = 100,
    check_every: int = 10,
    mode: str = "collective",
    tol: float = 0.0,
    protocol: str = "grpc+verbs",
    shape_only: bool = False,
    device_type: str = "cpu",
    cluster: Optional[ClusterHandle] = None,
    optimize: Optional[bool] = None,
    algorithm: str = "auto",
) -> StencilResult:
    """Run the sharded Jacobi stencil.

    Args:
        n: grid dimension (``num_workers`` must divide it; every block
            needs at least two rows and the grid at least three columns).
        iterations: maximum Jacobi sweeps.
        check_every: global sync (convergence test + field assembly)
            cadence in sweeps.
        mode: ``"collective"`` (ring allreduce/allgather graph ops) or
            ``"reducer"`` (central chief-task reduce + fan-out).
        algorithm: collective-mode schedule for the residual allreduce
            (``"auto"``/``"ring"``/``"tree"``; auto picks tree — the
            residual is a scalar, squarely in the latency-bound regime).
            Residual histories and fields stay byte-identical across
            algorithms.
        tol: stop when the global residual drops below this (concrete
            mode only; ``0.0`` disables early exit).
        shape_only: run paper-scale problems without materializing data.
        device_type: where each worker's block lives. The default is
            ``"cpu"``: stencils are memory-bound, and host-memory tensors
            ride RDMA at >6 GB/s on the paper's systems while GPU tensors
            stage through PCIe (1.3 GB/s on a K420) — a staging penalty
            the ring's duplex traffic pays twice per hop.
        optimize: force plan-time optimization and the executor fast path
            on/off together for the A/B benchmark lanes.
    """
    if mode not in ("collective", "reducer"):
        raise InvalidArgumentError(
            f"mode must be 'collective' or 'reducer', got {mode!r}"
        )
    if n % num_workers != 0:
        raise InvalidArgumentError(
            f"num_workers {num_workers} must divide n {n}"
        )
    rows = n // num_workers
    if rows < 2 or n < 3:
        raise InvalidArgumentError(
            f"blocks need >= 2 rows and >= 3 columns; got {rows} x {n}"
        )
    handle = cluster or build_cluster(
        system, {"chief": 1, "worker": num_workers}, protocol=protocol
    )
    env = handle.env
    devs = [task_device("worker", w, device_type, 0)
            for w in range(num_workers)]
    chief_device = task_device("chief", 0, "cpu", 0)

    g = tf.Graph()
    with g.as_default():
        u_vars, res_vars = [], []
        for w in range(num_workers):
            with g.device(devs[w]), g.name_scope(f"worker{w}"):
                if w == 0:
                    init = tf.concat(
                        [tf.ones([1, n], dtype=tf.float64, graph=g),
                         tf.zeros([rows - 1, n], dtype=tf.float64, graph=g)],
                        axis=0, name="u0",
                    )
                else:
                    init = tf.zeros([rows, n], dtype=tf.float64, graph=g)
                u_vars.append(tf.Variable(init, name="u"))
                res_vars.append(tf.Variable(
                    tf.zeros([], dtype=tf.float64, graph=g), name="res"))

        # ---- one Jacobi sweep ------------------------------------------------
        # Halo rows are sliced on the *owner's* device so only one row per
        # edge crosses the wire; the consumer-side concat then triggers
        # the partitioner's send/recv pair.
        reads, first_rows, last_rows = [], {}, {}
        for w in range(num_workers):
            with g.device(devs[w]), g.name_scope(f"sweep{w}"):
                read = u_vars[w].value()
                reads.append(read)
                if w > 0:  # upper neighbour consumes my first row
                    first_rows[w] = tf.slice_(read, [0, 0], [1, n],
                                              name="halo_up")
                if w < num_workers - 1:  # lower neighbour, my last row
                    last_rows[w] = tf.slice_(read, [rows - 1, 0], [1, n],
                                             name="halo_down")

        step_ops = []
        for w in range(num_workers):
            with g.device(devs[w]), g.name_scope(f"update{w}"):
                top = (
                    last_rows[w - 1] if w > 0
                    else tf.zeros([1, n], dtype=tf.float64, graph=g)
                )
                bottom = (
                    first_rows[w + 1] if w < num_workers - 1
                    else tf.zeros([1, n], dtype=tf.float64, graph=g)
                )
                ext = tf.concat([top, reads[w], bottom], axis=0, name="ext")
                side = tf.zeros([rows + 2, 1], dtype=tf.float64, graph=g)
                ext2 = tf.concat([side, ext, side], axis=1, name="ext2")
                up = tf.slice_(ext2, [0, 1], [rows, n], name="up")
                down = tf.slice_(ext2, [2, 1], [rows, n], name="down")
                left = tf.slice_(ext2, [1, 0], [rows, n], name="left")
                right = tf.slice_(ext2, [1, 2], [rows, n], name="right")
                new_full = tf.multiply(
                    tf.constant(0.25, dtype=tf.float64),
                    tf.add(tf.add(up, down), tf.add(left, right)),
                    name="avg",
                )
                # Reimpose the Dirichlet boundary: cold side columns
                # everywhere, hot top row on worker 0, cold bottom row on
                # the last worker.
                col = tf.zeros([rows, 1], dtype=tf.float64, graph=g)
                new_block = tf.concat(
                    [col, tf.slice_(new_full, [0, 1], [rows, n - 2]), col],
                    axis=1, name="cols",
                )
                if w == 0:
                    new_block = tf.concat(
                        [tf.ones([1, n], dtype=tf.float64, graph=g),
                         tf.slice_(new_block, [1, 0], [rows - 1, n])],
                        axis=0, name="top_bc",
                    )
                if w == num_workers - 1:
                    new_block = tf.concat(
                        [tf.slice_(new_block, [0, 0], [rows - 1, n]),
                         tf.zeros([1, n], dtype=tf.float64, graph=g)],
                        axis=0, name="bottom_bc",
                    )
                diff = tf.subtract(new_block, reads[w], name="diff")
                res_partial = tf.reduce_sum(tf.square(diff), name="res_partial")
                store_res = tf.assign(res_vars[w], res_partial)
                # Order my block's store after every halo read of it, so
                # neighbours never see a half-updated sweep.
                halo_consumers = []
                if w in first_rows:
                    halo_consumers.append(first_rows[w].op)
                if w in last_rows:
                    halo_consumers.append(last_rows[w].op)
                with g.control_dependencies(halo_consumers or [reads[w].op]):
                    store_u = tf.assign(u_vars[w], new_block)
                step_ops.append(tf.group(store_u.op, store_res.op,
                                         name="step", graph=g))
        step_op = tf.group(*step_ops, name="sweep", graph=g)

        # ---- global sync: convergence test + field assembly ------------------
        res_reads = [rv.value() for rv in res_vars]
        sync_reads = []
        for w in range(num_workers):
            with g.device(devs[w]):
                sync_reads.append(u_vars[w].value())
        if mode == "collective":
            totals = tf.all_reduce(res_reads, algorithm=algorithm,
                                   name="res_allreduce")
            fields = tf.all_gather(sync_reads, name="field_allgather")
            res_fetch = totals[0]
            field_fetch = fields[0]
            sync_op = tf.group(totals[0].op, fields[0].op,
                               name="sync", graph=g)
        else:
            with g.device(chief_device):
                total = tf.add_n(res_reads, name="res_total")
                full_field = tf.concat(sync_reads, axis=0, name="field")
            echoes = []
            for w in range(num_workers):
                with g.device(devs[w]):
                    echoes.append(tf.identity(total, name=f"res_echo{w}"))
                    echoes.append(tf.identity(full_field, name=f"field_copy{w}"))
            res_fetch = total
            field_fetch = full_field
            sync_op = tf.group(*[e.op for e in echoes], name="sync", graph=g)

    config = session_config(shape_only=shape_only, optimize=optimize)
    sess = tf.Session(handle.server("chief", 0), graph=g, config=config)
    for v in (*u_vars, *res_vars):
        sess.run(v.initializer)

    residual_history: list = []
    converged = False
    check_elapsed = 0.0
    ran = 0
    start = env.now
    for it in range(iterations):
        sess.run(step_op)
        ran = it + 1
        if check_every and ran % check_every == 0:
            t0 = env.now
            residual, _ = sess.run([res_fetch, sync_op])
            check_elapsed += env.now - t0
            residual_history.append(
                residual if shape_only else float(residual)
            )
            if not shape_only and tol > 0.0 and float(residual) < tol:
                converged = True
                break
    elapsed = env.now - start

    solution = None
    validated = False
    if not shape_only:
        solution = np.asarray(sess.run(field_fetch))
        reference, _ = jacobi_reference(n, ran)
        validated = bool(np.allclose(solution, reference, atol=1e-12))
    result = StencilResult(
        system=system,
        n=n,
        num_workers=num_workers,
        mode=mode,
        iterations=ran,
        elapsed=elapsed,
        check_elapsed=check_elapsed,
        residual_history=residual_history,
        converged=converged,
        solution=solution,
        validated=validated,
        plan_items=sess.plan_cache_info()["items"],
    )
    if cluster is None:  # built here: nothing else runs on it
        handle.close()
    return result
