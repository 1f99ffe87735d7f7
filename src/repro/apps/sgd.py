"""Data-parallel SGD: ring allreduce on the backward path.

The Horovod use case proper, and the training scenario the paper's
discussion section argues HPC interconnects should serve: every worker
holds a replica of the model weights and one shard of the data; each
step it runs the forward pass and reverse-mode autodiff
(:mod:`repro.core.gradients`) *locally*, then the per-worker gradients
are summed across all ranks and every replica applies the identical SGD
update. The gradient exchange — the scalability bottleneck at HPC scale
— runs through one of two head-to-head mechanisms:

* ``mode="collective"``: graph-level :func:`repro.all_reduce` over the
  local gradients (and the scalar loss partials). The partitioner
  lowers both into ring legs over the simulated transports — every link
  carries ``2(W-1)/W`` of the gradient buffer, no dedicated server.
* ``mode="reducer"``: the paper's central pattern — gradients stream to
  the chief task, are summed there, and the total fans back out to
  every worker through per-worker identities.

Both mechanisms accumulate in rank order starting from zeros, so the
weight trajectories are **byte-identical**; only the simulated clock
differs, and the ring wins once the gradient is large enough that the
chief's NIC serializes ``O(W)`` buffer copies (``tests/perf/
test_sim_headlines.py`` pins the exchange at 2/4/8 workers).

The model is linear regression — ``loss = sum((X_w @ w - y_w)^2)`` per
shard — which exercises exactly the gradient registry the autodiff
ships with (MatMul, Sub, Square, Sum). With ``blocks > 1`` the feature
dimension splits into per-layer weight blocks plus a scalar bias, so
one step emits ``blocks + 1`` *small* gradients and their allreduces —
the many-small-tensors regime. ``algorithm=`` selects the collective
schedule (``"auto"``/``"ring"``/``"tree"``); it preserves
byte-identical weight trajectories and only moves the simulated clock.
``momentum=`` applies classic momentum through per-variable slot state.

Both frontends run the same step builder: ``frontend="session"``
hand-builds the graph and drives ``Session.run``;
``frontend="function"`` traces the identical builder through
``@repro.function``, asserting the trace-once path. Weight trajectories
are byte-identical across frontends too.
"""

from __future__ import annotations

import math
import os
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
from repro.core.checkpoint import Saver, checkpoint_step, latest_checkpoint
from repro.errors import InvalidArgumentError, NotFoundError
from repro.runtime.recovery import DETECTED, Fault, run_recoverable
from repro.runtime.retry import RetryPolicy
from repro.simnet.faults import FaultInjector

__all__ = [
    "SGDResult",
    "SGDRestartResult",
    "make_regression_problem",
    "run_sgd",
    "run_sgd_restartable",
    "sgd_reference",
]


@dataclass
class SGDResult:
    """Outcome of one data-parallel SGD configuration."""

    system: str
    d: int
    num_workers: int
    rows_per_worker: int
    mode: str
    frontend: str
    steps: int
    elapsed: float  # simulated seconds, training loop only
    blocks: int = 1
    momentum: float = 0.0
    algorithm: str = "auto"
    loss_history: list = field(default_factory=list)
    # Concatenated parameter vector (all weight blocks, then the bias
    # when blocks > 1) after each step.
    trajectory: list = field(default_factory=list)
    weights: Optional[np.ndarray] = None  # final weights (concrete mode)
    validated: bool = False  # matches the NumPy reference byte for byte
    plan_items: int = 0
    trace_count: int = 0  # function frontend only
    # Plan diagnostics captured from the first training step (session
    # frontend): optimizer pass statistics and the lowering's per-op
    # algorithm decisions.
    pass_stats: list = field(default_factory=list)
    collective_algorithms: dict = field(default_factory=dict)

    @property
    def seconds_per_step(self) -> float:
        return self.elapsed / max(self.steps, 1)


def make_regression_problem(
    d: int, rows_per_worker: int, num_workers: int, seed: int = 0,
    noise: float = 0.1,
):
    """A linear-regression instance sharded by rows across workers.

    Returns ``(X_shards, y_shards, w_true)`` with one
    ``(rows_per_worker, d)`` design block and one target slice per
    worker, generated as ``y = X @ w_true + noise``.
    """
    rng = np.random.default_rng(seed)
    rows = rows_per_worker * num_workers
    x = rng.standard_normal((rows, d))
    w_true = rng.standard_normal(d)
    y = x @ w_true + noise * rng.standard_normal(rows)
    x_shards = [x[w * rows_per_worker:(w + 1) * rows_per_worker]
                for w in range(num_workers)]
    y_shards = [y[w * rows_per_worker:(w + 1) * rows_per_worker]
                for w in range(num_workers)]
    return x_shards, y_shards, w_true


def sgd_reference(x_shards, y_shards, steps: int, learning_rate: float,
                  blocks: int = 1, momentum: float = 0.0):
    """NumPy reference performing the graph's arithmetic, in its order.

    Per step and per shard (rank order, accumulating from zeros — the
    collective kernels' canonical order): ``g_w = X_w^T (2 (X_w w - y_w))``
    and ``l_w = sum((X_w w - y_w)^2)``; then ``w -= lr * sum_w g_w``
    (through the velocity slot when ``momentum > 0``). With
    ``blocks > 1`` the features split into per-layer weight blocks plus
    a scalar bias, mirroring the graph's block-wise prediction chain.
    Returns ``(weights, loss_history, trajectory)`` with weights/
    trajectory entries as the concatenated parameter vector.
    """
    d = x_shards[0].shape[1]
    if blocks == 1:
        params = [np.zeros(d)]
        bs = d
    else:
        bs = d // blocks
        params = [np.zeros(bs) for _ in range(blocks)]
        params.append(np.zeros(()))
    velocities = [np.zeros_like(p) for p in params]
    losses, trajectory = [], []
    for _ in range(steps):
        total_grads = [np.zeros_like(p) for p in params]
        total_loss = np.zeros(())
        for x_w, y_w in zip(x_shards, y_shards):
            pred = x_w[:, 0:bs] @ params[0] if blocks > 1 else x_w @ params[0]
            for k in range(1, blocks):
                pred = pred + x_w[:, k * bs:(k + 1) * bs] @ params[k]
            if blocks > 1:
                pred = pred + params[-1]
            err = pred - y_w
            total_loss = total_loss + np.sum(np.square(err))
            seed = 2.0 * err
            for k in range(blocks):
                x_k = x_w[:, k * bs:(k + 1) * bs] if blocks > 1 else x_w
                total_grads[k] = total_grads[k] + x_k.T @ seed
            if blocks > 1:
                total_grads[-1] = total_grads[-1] + np.sum(seed)
        for p in range(len(params)):
            if momentum:
                velocities[p] = momentum * velocities[p] + total_grads[p]
                step_value = velocities[p]
            else:
                step_value = total_grads[p]
            params[p] = params[p] - learning_rate * step_value
        losses.append(float(total_loss))
        trajectory.append(
            np.concatenate([np.reshape(p, -1) for p in params])
        )
    return trajectory[-1] if trajectory else np.concatenate(
        [np.reshape(p, -1) for p in params]
    ), losses, trajectory


def _build_step(num_workers, d, rows, data, learning_rate, mode, devs,
                chief_device, shape_only, blocks=1, momentum=0.0,
                algorithm="auto"):
    """Build one training step into the current default graph.

    Shared by both frontends (hand-built Session graphs and
    ``@repro.function`` traces record the identical ops). Returns
    ``(loss_fetch, updates, variables, num_params)`` — ``updates`` are
    the ``AssignSub`` output tensors from :func:`repro.apply_gradients`,
    worker-major (the first ``num_params`` entries are worker 0's).

    With ``blocks == 1`` the model is the single weight vector; with
    ``blocks > 1`` each worker holds ``blocks`` per-layer weight blocks
    plus a scalar bias, and each parameter gets its own gradient
    exchange — the many-small-collectives workload.
    """
    g = tf.get_default_graph()
    if blocks < 1 or d % blocks != 0:
        raise InvalidArgumentError(
            f"blocks must be >= 1 and divide d: got blocks={blocks}, d={d}"
        )
    bs = d // blocks
    all_vars, local_grads, loss_partials = [], [], []
    for w in range(num_workers):
        with g.device(devs[w]), g.name_scope(f"worker{w}"):
            if blocks == 1:
                params = [tf.Variable(
                    tf.zeros([d], dtype=tf.float64, graph=g), name="w")]
            else:
                params = [
                    tf.Variable(tf.zeros([bs], dtype=tf.float64, graph=g),
                                name=f"w{k}")
                    for k in range(blocks)
                ]
                params.append(tf.Variable(
                    tf.zeros([], dtype=tf.float64, graph=g), name="b"))
            all_vars.append(params)
            if shape_only:
                x_w = tf.zeros([rows, d], dtype=tf.float64, graph=g,
                               name="X")
                y_w = tf.zeros([rows], dtype=tf.float64, graph=g, name="y")
            else:
                x_w = tf.constant(data[0][w], name="X", graph=g)
                y_w = tf.constant(data[1][w], name="y", graph=g)
            reads = [p.value() for p in params]
            if blocks == 1:
                pred = tf.matmul(x_w, reads[0], name="pred")
            else:
                pred = tf.matmul(
                    tf.slice_(x_w, [0, 0], [rows, bs], name="x0"),
                    reads[0], name="pred0")
                for k in range(1, blocks):
                    part = tf.matmul(
                        tf.slice_(x_w, [0, k * bs], [rows, bs],
                                  name=f"x{k}"),
                        reads[k], name=f"pred{k}")
                    pred = tf.add(pred, part, name=f"acc{k}")
                pred = tf.add(pred, reads[-1], name="biased")
            err = tf.subtract(pred, y_w, name="err")
            loss_partials.append(
                tf.reduce_sum(tf.square(err), name="loss_partial"))
            # Reverse-mode autodiff, emitted on this worker's device: the
            # backward subgraph (2 X^T err per block) lands where the
            # forward ran.
            local_grads.append(
                tf.gradients(loss_partials[w], reads, name="backward"))

    num_params = len(all_vars[0])
    if mode == "collective":
        synced_per_param = []
        for p in range(num_params):
            synced_per_param.append(tf.all_reduce(
                [local_grads[w][p] for w in range(num_workers)],
                algorithm=algorithm,
                name=f"grad_allreduce{p}" if num_params > 1
                else "grad_allreduce",
            ))
        totals = tf.all_reduce(loss_partials, algorithm=algorithm,
                               name="loss_allreduce")
        loss_fetch = totals[0]
        synced = [
            [synced_per_param[p][w] for p in range(num_params)]
            for w in range(num_workers)
        ]
    else:
        with g.device(chief_device):
            total_grads = [
                tf.add_n([local_grads[w][p] for w in range(num_workers)],
                         name=f"grad_total{p}" if num_params > 1
                         else "grad_total")
                for p in range(num_params)
            ]
            loss_fetch = tf.add_n(loss_partials, name="loss_total")
        synced = []
        for w in range(num_workers):
            with g.device(devs[w]):
                synced.append([
                    tf.identity(total_grads[p],
                                name=f"grad_echo{w}_{p}" if num_params > 1
                                else f"grad_echo{w}")
                    for p in range(num_params)
                ])

    pairs = [
        (synced[w][p], all_vars[w][p])
        for w in range(num_workers)
        for p in range(num_params)
    ]
    updates = tf.apply_gradients(pairs, learning_rate, momentum=momentum,
                                 name="sgd")
    return loss_fetch, updates, all_vars, num_params


def run_sgd(
    system: str = "tegner-k420",
    d: int = 32,
    num_workers: int = 2,
    rows_per_worker: int = 16,
    steps: int = 10,
    learning_rate: float = 0.005,
    mode: str = "collective",
    frontend: str = "session",
    seed: int = 0,
    protocol: str = "grpc+verbs",
    shape_only: bool = False,
    device_type: str = "cpu",
    cluster: Optional[ClusterHandle] = None,
    optimize: Optional[bool] = None,
    blocks: int = 1,
    momentum: float = 0.0,
    algorithm: str = "auto",
) -> SGDResult:
    """Train the data-parallel linear regression.

    Args:
        d: feature (= gradient buffer) dimension; the gradient exchange
            moves ``8 d`` bytes per rank per step.
        num_workers: data-parallel replicas, one per simulated worker.
        rows_per_worker: rows of the design matrix per shard.
        steps: SGD steps to run.
        mode: ``"collective"`` (ring allreduce graph ops on the backward
            path) or ``"reducer"`` (central chief-task sum + fan-out).
        frontend: ``"session"`` (hand-built graph + ``Session.run``
            loop) or ``"function"`` (the same builder traced once by
            ``@repro.function`` and dispatched from the trace cache).
        shape_only: run paper-scale gradients without materializing
            data (no trajectory/validation; the DES clock still ticks).
        device_type: where each replica's weights live (default CPU —
            gradient exchange is bandwidth-bound, and host tensors ride
            RDMA without the PCIe staging penalty).
        optimize: force plan-time optimization and the executor fast
            path on/off together for the A/B benchmark lanes.
        blocks: per-layer weight blocks (must divide ``d``); with more
            than one, a scalar bias joins too and every parameter gets
            its own gradient collective — the many-small-gradients
            workload.
        momentum: classic momentum coefficient (0 = plain SGD), applied
            through per-variable slot state on the weights' devices.
        algorithm: collective schedule for the gradient/loss exchanges
            (``"auto"``/``"ring"``/``"tree"``; collective mode only).

    Weight trajectories are byte-identical across modes, frontends and
    algorithms; only the simulated clock moves.
    """
    if mode not in ("collective", "reducer"):
        raise InvalidArgumentError(
            f"mode must be 'collective' or 'reducer', got {mode!r}"
        )
    if frontend not in ("session", "function"):
        raise InvalidArgumentError(
            f"frontend must be 'session' or 'function', got {frontend!r}"
        )
    if steps < 1:
        raise InvalidArgumentError(f"steps must be >= 1, got {steps}")
    handle = cluster or build_cluster(
        system, {"chief": 1, "worker": num_workers}, protocol=protocol
    )
    env = handle.env
    devs = [task_device("worker", w, device_type, 0)
            for w in range(num_workers)]
    chief_device = task_device("chief", 0, "cpu", 0)
    data = (None if shape_only else
            make_regression_problem(d, rows_per_worker, num_workers, seed)[:2])
    config = session_config(shape_only=shape_only, optimize=optimize)

    loss_history: list = []
    trajectory: list = []
    trace_count = 0
    first_step_metadata = tf.RunMetadata()

    def record_step(loss, param_values):
        loss_history.append(loss if shape_only else float(loss))
        if not shape_only:
            trajectory.append(np.concatenate(
                [np.reshape(np.asarray(v), -1) for v in param_values]
            ))

    if frontend == "session":
        g = tf.Graph()
        with g.as_default():
            loss_fetch, updates, all_vars, num_params = _build_step(
                num_workers, d, rows_per_worker, data, learning_rate, mode,
                devs, chief_device, shape_only, blocks=blocks,
                momentum=momentum, algorithm=algorithm,
            )
            step_op = tf.group(*[u.op for u in updates], name="train",
                               graph=g)
        sess = tf.Session(handle.server("chief", 0), graph=g, config=config)
        # Momentum slots live in the graph's variable collection next to
        # the weights; initialize everything the builder registered.
        for v in g.get_collection(tf.GraphKeys.GLOBAL_VARIABLES):
            sess.run(v.initializer)
        start = env.now
        for it in range(steps):
            # Worker 0's freshly-assigned parameters come back with the
            # loss; the remaining replicas update through step_op.
            values = sess.run(
                [loss_fetch, *updates[:num_params], step_op],
                run_metadata=first_step_metadata if it == 0 else None,
            )
            record_step(values[0], values[1:1 + num_params])
        elapsed = env.now - start
        plan_items = sess.plan_cache_info()["items"]
    else:
        def sgd_step():
            loss_fetch, updates, _, num_params = _build_step(
                num_workers, d, rows_per_worker, data, learning_rate, mode,
                devs, chief_device, shape_only, blocks=blocks,
                momentum=momentum, algorithm=algorithm,
            )
            # The updated worker-0 parameters come back as the AssignSub
            # outputs; the remaining replicas' updates are auto-fetched
            # as traced side effects.
            return (loss_fetch, *updates[:num_params])

        step = tf.function(sgd_step, name="sgd_step",
                           target=handle.server("chief", 0), config=config)
        start = env.now
        for _ in range(steps):
            values = step()
            record_step(values[0], values[1:])
        elapsed = env.now - start
        trace_count = step.trace_count
        plan_items = step.session.plan_cache_info()["items"]

    weights = None
    validated = False
    if not shape_only:
        weights = trajectory[-1]
        _, ref_losses, ref_traj = sgd_reference(
            data[0], data[1], steps, learning_rate, blocks=blocks,
            momentum=momentum,
        )
        validated = bool(
            np.array_equal(weights, ref_traj[-1])
            and loss_history == ref_losses
        )
    result = SGDResult(
        system=system,
        d=d,
        num_workers=num_workers,
        rows_per_worker=rows_per_worker,
        mode=mode,
        frontend=frontend,
        steps=steps,
        elapsed=elapsed,
        blocks=blocks,
        momentum=momentum,
        algorithm=algorithm,
        loss_history=loss_history,
        trajectory=trajectory,
        weights=weights,
        validated=validated,
        plan_items=plan_items,
        trace_count=trace_count,
        pass_stats=list(first_step_metadata.pass_stats),
        collective_algorithms=dict(first_step_metadata.collective_algorithms),
    )
    if cluster is None:  # built here: nothing else runs on it
        handle.close()
    return result


# ---------------------------------------------------------------------------
# Fault-tolerant training: checkpoint-restart around the same step graph
# ---------------------------------------------------------------------------

@dataclass
class SGDRestartResult:
    """Outcome of one fault-tolerant SGD run."""

    system: str
    d: int
    num_workers: int
    steps: int
    checkpoint_every: int
    elapsed: float  # simulated seconds, training loop incl. recovery
    recoveries: int = 0  # checkpoint restores performed
    steps_replayed: int = 0  # committed steps recomputed after restores
    checkpoints_written: int = 0
    loss_history: list = field(default_factory=list)
    trajectory: list = field(default_factory=list)
    weights: Optional[np.ndarray] = None
    validated: bool = False  # byte-identical to the fault-free reference
    # (sim time, exception class name, message) per detected fault.
    fault_log: list = field(default_factory=list)
    injector_stats: dict = field(default_factory=dict)
    metadata_retries: int = 0
    metadata_deadlines: int = 0

    @property
    def seconds_per_step(self) -> float:
        return self.elapsed / max(self.steps, 1)


# Eight restore attempts per recovery (the failed step is attempt one),
# each after a backoff sleep: 0.05 s, doubling, uncapped.
_RECOVERY_POLICY = RetryPolicy(max_attempts=9, initial_backoff=0.05,
                               max_backoff=math.inf)


def run_sgd_restartable(
    system: str = "tegner-k420",
    d: int = 32,
    num_workers: int = 2,
    rows_per_worker: int = 16,
    steps: int = 10,
    learning_rate: float = 0.005,
    seed: int = 0,
    protocol: str = "grpc+verbs",
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 5,
    fault_plan=None,
    operation_timeout_ms: float = 250.0,
    retry_policy: Optional[RetryPolicy] = None,
    recovery_policy: RetryPolicy = _RECOVERY_POLICY,
    mode: str = "collective",
    blocks: int = 1,
    momentum: float = 0.0,
    algorithm: str = "auto",
) -> SGDRestartResult:
    """Train the data-parallel regression with checkpoint-restart.

    The same step graph as :func:`run_sgd`, driven by the recovery loop
    of :mod:`repro.runtime.recovery`: a per-run deadline turns a lost
    worker into :class:`DeadlineExceededError` instead of a hang,
    transient message drops are retried with exponential backoff, and on
    worker loss the loop backs off (in simulated time, letting a
    scheduled restart land), restores every replica in place from the
    latest intact checkpoint and replays from there. Because the step
    arithmetic is deterministic and a restore overwrites any
    partially-applied update, the recovered weight trajectory is
    **byte-identical** to a fault-free run — which this function
    verifies against the NumPy reference.

    Args:
        checkpoint_dir: where ``Saver`` snapshots land (required).
        checkpoint_every: snapshot every k committed steps (plus one at
            step 0, so a crash before the first snapshot can recover).
        fault_plan: a :class:`repro.simnet.faults.FaultPlan` to install
            (None = fault-free; the driver still checkpoints).
        operation_timeout_ms: per-run deadline in simulated ms.
        retry_policy: backoff for transient sends (None = the default
            :class:`RetryPolicy`).
        recovery_policy: restore attempts and the backoff (simulated
            seconds) before each, per recovery.
    """
    if checkpoint_dir is None:
        raise InvalidArgumentError("run_sgd_restartable needs checkpoint_dir=")
    if checkpoint_every < 1:
        raise InvalidArgumentError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    handle = build_cluster(
        system, {"chief": 1, "worker": num_workers}, protocol=protocol
    )
    env = handle.env
    injector = None
    if fault_plan is not None:
        injector = FaultInjector(fault_plan).install(handle.machine)
    devs = [task_device("worker", w, "cpu", 0) for w in range(num_workers)]
    chief_device = task_device("chief", 0, "cpu", 0)
    data = make_regression_problem(d, rows_per_worker, num_workers, seed)[:2]

    config = session_config(shape_only=False)
    config.operation_timeout_ms = operation_timeout_ms
    config.retry_policy = retry_policy or RetryPolicy()

    g = tf.Graph()
    with g.as_default():
        loss_fetch, updates, _all_vars, num_params = _build_step(
            num_workers, d, rows_per_worker, data, learning_rate, mode,
            devs, chief_device, shape_only=False, blocks=blocks,
            momentum=momentum, algorithm=algorithm,
        )
        step_op = tf.group(*[u.op for u in updates], name="train", graph=g)
    sess = tf.Session(handle.server("chief", 0), graph=g, config=config)
    metadata = tf.RunMetadata()
    for v in g.get_collection(tf.GraphKeys.GLOBAL_VARIABLES):
        sess.run(v.initializer, run_metadata=metadata)
    saver = Saver(graph=g)
    prefix = os.path.join(checkpoint_dir, "sgd")

    loss_history: list = []
    trajectory: list = []
    checkpoints_written = 0

    def save(step):
        nonlocal checkpoints_written
        saver.save(sess, prefix, global_step=step)
        checkpoints_written += 1

    def advance(step):
        del loss_history[step:]
        del trajectory[step:]
        while step < steps:
            try:
                values = sess.run(
                    [loss_fetch, *updates[:num_params], step_op],
                    run_metadata=metadata,
                )
                step += 1
                loss_history.append(float(values[0]))
                trajectory.append(np.concatenate(
                    [np.reshape(np.asarray(v), -1)
                     for v in values[1:1 + num_params]]
                ))
                if step % checkpoint_every == 0:
                    save(step)
            except DETECTED as exc:
                raise Fault(exc, step) from exc
        return step

    def restore():
        # Restores ride the same deadlines: a worker still down fails
        # this attempt, and the loop backs off and tries again.
        path = latest_checkpoint(checkpoint_dir, prefix="sgd-")
        if path is None:
            raise NotFoundError(f"No intact checkpoint under {checkpoint_dir!r}")
        saver.restore(sess, path)
        return checkpoint_step(path)

    start = env.now
    save(0)
    recovery = run_recoverable(env, advance, restore, recovery_policy)
    elapsed = env.now - start

    weights = trajectory[-1]
    _, ref_losses, ref_traj = sgd_reference(
        data[0], data[1], steps, learning_rate, blocks=blocks,
        momentum=momentum,
    )
    validated = bool(
        len(trajectory) == len(ref_traj)
        and all(np.array_equal(a, b) for a, b in zip(trajectory, ref_traj))
        and loss_history == ref_losses
    )
    result = SGDRestartResult(
        system=system,
        d=d,
        num_workers=num_workers,
        steps=steps,
        checkpoint_every=checkpoint_every,
        elapsed=elapsed,
        recoveries=recovery.recoveries,
        steps_replayed=recovery.replayed,
        checkpoints_written=checkpoints_written,
        loss_history=loss_history,
        trajectory=trajectory,
        weights=weights,
        validated=validated,
        fault_log=recovery.fault_log,
        injector_stats=dict(injector.stats) if injector else {},
        metadata_retries=metadata.retries,
        metadata_deadlines=metadata.deadline_exceeded,
    )
    handle.close()
    return result
