"""Distributed Conjugate Gradient solver (paper Section IV, Fig. 5).

The SPD system ``A x = b`` is split into horizontal row blocks, one per
worker; each worker keeps its block and its slices of ``x``/``r`` in
persistent variables on its GPU (the paper's workaround for the 2 GB
GraphDef limit: only the loop *body* is a graph, state lives in
variables). Per iteration:

* local matvec ``q_w = A_w p`` on the worker's GPU;
* two scalar reductions (``p·q`` and ``r·r``) through queue-based
  reducers (Fig. 5's two-queue pattern);
* an allgather of the updated ``p`` slices through a gather queue, with
  the concatenation done in NumPy on the reducer task (the paper uses
  NumPy for "merging and other auxiliary operations").

Computation is double precision, as in the paper, and checkpoint/restart
is supported through :class:`repro.core.checkpoint.Saver`.
"""

from __future__ import annotations

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
from repro.core.checkpoint import Saver, latest_common_checkpoint
from repro.core.tensor import SymbolicValue
from repro.errors import (
    DeadlineExceededError,
    InvalidArgumentError,
    NotFoundError,
    UnavailableError,
)
from repro.runtime.recovery import Fault, run_recoverable
from repro.runtime.retry import RetryPolicy
from repro.runtime.sync import QueueReducer
from repro.simnet.events import Environment, Interrupt
from repro.simnet.faults import FaultInjector

__all__ = [
    "run_cg",
    "run_cg_single",
    "run_cg_with_recovery",
    "cg_step",
    "CGResult",
    "CGSingleResult",
    "CGRecoveryResult",
    "make_spd_problem",
]


@dataclass
class CGResult:
    """Outcome of one CG configuration."""

    system: str
    n: int
    num_gpus: int
    iterations: int
    elapsed: float  # simulated seconds, iteration loop only
    residual: float  # ||b - A x|| / ||b|| (concrete mode only)
    validated: bool
    checkpoint_path: Optional[str] = None
    solution: Optional[np.ndarray] = None  # assembled x (concrete mode)
    # Total schedulable plan items across all sessions' cached plans —
    # the optimizer benchmark's item-count metric.
    plan_items: int = 0
    # Fault outcome: the run was cut short by an injected worker loss
    # (``crashed``); ``completed_step`` is the highest iteration number
    # every worker had committed when the loss was detected, and
    # ``fault_detail`` carries the detection exception's message.
    crashed: bool = False
    completed_step: int = 0
    fault_detail: Optional[str] = None

    @property
    def flops(self) -> float:
        """The paper's convention: iterations * 2 * N^2 (matvec only)."""
        return self.iterations * 2.0 * float(self.n) ** 2

    @property
    def gflops(self) -> float:
        return self.flops / self.elapsed / 1e9

    @property
    def seconds_per_iteration(self) -> float:
        return self.elapsed / self.iterations


def make_spd_problem(n: int, seed: int = 0):
    """A well-conditioned SPD system (for concrete validation runs)."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T / n + np.eye(n) * 2.0
    b = rng.standard_normal(n)
    return a, b


def _store_problem(fs, n, num_gpus, shape_only, seed, problem=None):
    rows = n // num_gpus
    if shape_only:
        for w in range(num_gpus):
            fs.declare_file(f"cg_A_{w}.npy", (rows, n), "float64")
            fs.declare_file(f"cg_b_{w}.npy", (rows,), "float64")
        return None, None
    if problem is not None:
        a, b = problem
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != (n, n) or b.shape != (n,):
            raise InvalidArgumentError(
                f"problem shapes {a.shape}/{b.shape} do not match n={n}"
            )
    else:
        a, b = make_spd_problem(n, seed)
    for w in range(num_gpus):
        fs.store_array(f"cg_A_{w}.npy", a[w * rows:(w + 1) * rows])
        fs.store_array(f"cg_b_{w}.npy", b[w * rows:(w + 1) * rows])
    return a, b


def run_cg(
    system: str = "kebnekaise-v100",
    n: int = 512,
    num_gpus: int = 2,
    iterations: int = 500,
    protocol: str = "grpc+verbs",
    shape_only: bool = True,
    seed: int = 0,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    resume_dir: Optional[str] = None,
    cluster: Optional[ClusterHandle] = None,
    problem=None,
    optimize: Optional[bool] = None,
    fault_plan=None,
    *,
    _resume_cut=None,
) -> CGResult:
    """Run the distributed CG solver.

    Args:
        n: matrix dimension (paper: 16384, 32768, 65536).
        num_gpus: worker count == row blocks (must divide n).
        iterations: fixed iteration count (paper: 500).
        checkpoint_dir/checkpoint_every: snapshot worker state every k
            iterations (concrete mode). Snapshots are tagged with the
            absolute iteration (``cg_w{w}-{step}``), so a resumed run
            continues the numbering instead of overwriting older ones.
        resume_dir: skip setup and restore every worker from the newest
            iteration *all* workers checkpointed intact (a consistent
            cut; a mixed one would corrupt the solve), then run
            ``iterations`` more from there.
        problem: optional concrete ``(A, b)`` pair (e.g. a discretized PDE,
            the paper's motivating CG use case); defaults to a random SPD
            system.
        optimize: force plan-time graph optimization and the executor fast
            path on/off for every session (``None`` keeps the defaults);
            ``tests/perf/test_sim_headlines.py`` pins both arms.
        fault_plan: a :class:`repro.simnet.faults.FaultPlan` to install
            on the cluster. A worker crash interrupts that worker's sim
            process; the run returns early with ``crashed=True`` instead
            of hanging (use :func:`run_cg_with_recovery` to restart).
        _resume_cut: the cut of ``resume_dir`` a recovery driver already
            found, so it is not searched for twice.
    """
    if n % num_gpus != 0:
        raise InvalidArgumentError(f"num_gpus {num_gpus} must divide n {n}")
    rows = n // num_gpus
    start_step, resume_paths = 0, None
    if resume_dir is not None:
        cut = _resume_cut or _consistent_cut(resume_dir, num_gpus)
        if cut is None:
            raise NotFoundError(
                f"No iteration every worker checkpointed intact under "
                f"{resume_dir!r}"
            )
        start_step, resume_paths = cut
    handle = cluster or build_cluster(
        system, {"reducer": 1, "worker": num_gpus}, protocol=protocol
    )
    env = handle.env
    fs = handle.filesystem
    injector = None
    if fault_plan is not None:
        injector = FaultInjector(fault_plan).install(handle.machine)
    a_full, b_full = _store_problem(fs, n, num_gpus, shape_only, seed,
                                    problem=problem)

    g = tf.Graph(seed=seed)
    reducer_device = task_device("reducer", 0, "cpu", 0)
    with g.as_default():
        pq_red = QueueReducer(num_gpus, dtype=tf.float64, device=reducer_device,
                              name="pq", graph=g)
        rs_red = QueueReducer(num_gpus, dtype=tf.float64, device=reducer_device,
                              name="rs", graph=g)
        with g.device(reducer_device):
            gather_in = tf.FIFOQueue(num_gpus, [tf.int64, tf.float64],
                                     shapes=[[], [rows]], name="gather_in")
            gather_out = tf.FIFOQueue(num_gpus, [tf.float64], shapes=[[n]],
                                      name="gather_out")
            full_p_feed = tf.placeholder(tf.float64, shape=[n], name="full_p")
            # One session run broadcasts all copies (Fig. 5: "a number of
            # copies equivalent to the total number of workers will be
            # pushed into the queue").
            gather_bcast = tf.group(
                *[gather_out.enqueue(full_p_feed, name=f"bcast_{w}")
                  for w in range(num_gpus)],
                name="bcast", graph=g,
            )
            gather_pops = [gather_in.dequeue(name=f"collect_{w}")
                           for w in range(num_gpus)]

        setup_ops, step_ops, rs_fetches, savers = [], [], [], []
        x_vars = []
        for w in range(num_gpus):
            dev = task_device("worker", w, "gpu", 0)
            with g.device(dev), g.name_scope(f"worker{w}"):
                a_var = tf.Variable(
                    tf.zeros([rows, n], dtype=tf.float64, graph=g), name="A")
                x_var = tf.Variable(
                    tf.zeros([rows], dtype=tf.float64, graph=g), name="x")
                r_var = tf.Variable(
                    tf.zeros([rows], dtype=tf.float64, graph=g), name="r")
                p_var = tf.Variable(
                    tf.zeros([n], dtype=tf.float64, graph=g), name="p")
                rs_var = tf.Variable(
                    tf.zeros([], dtype=tf.float64, graph=g), name="rs_old")
                x_vars.append(x_var)

                # ---- setup: load the block, r0 = b, p0 = gather(b) ------
                a_tile = tf.read_tile("cg_A_{0}.npy", [w], dtype=tf.float64,
                                      shape=[rows, n], name="loadA")
                b_tile = tf.read_tile("cg_b_{0}.npy", [w], dtype=tf.float64,
                                      shape=[rows], name="loadb")
                load_a = tf.assign(a_var, a_tile)
                init_x = tf.assign(x_var, tf.zeros([rows], dtype=tf.float64,
                                                   graph=g))
                init_r = tf.assign(r_var, b_tile)
                rs0_partial = tf.dot(init_r, init_r, name="rs0_partial")
                rs0 = rs_red.worker_reduce(rs0_partial, name="rs0")
                init_rs = tf.assign(rs_var, rs0)
                send_b = gather_in.enqueue(
                    [tf.constant(w, dtype=tf.int64), init_r], name="send_b")
                with g.control_dependencies([send_b]):
                    full_b = gather_out.dequeue(name="recv_p0")
                init_p = tf.assign(p_var, full_b)
                setup_ops.append(tf.group(
                    load_a.op, init_x.op, init_rs.op, init_p.op,
                    name="setup", graph=g))

                # ---- one CG iteration (the loop body as a graph) --------
                p_read = p_var.value()
                rs_read = rs_var.value()
                q = tf.matmul(a_var.value(), p_read, name="q")
                p_slice = tf.slice_(p_read, [w * rows], [rows], name="p_slice")
                pq_partial = tf.dot(p_slice, q, name="pq_partial")
                pq = pq_red.worker_reduce(pq_partial, name="pq")
                alpha = tf.divide(rs_read, pq, name="alpha")
                new_x = tf.assign_add(x_var, tf.multiply(alpha, p_slice))
                new_r = tf.assign_sub(r_var, tf.multiply(alpha, q))
                rs_partial = tf.dot(new_r, new_r, name="rs_partial")
                rs_new = rs_red.worker_reduce(rs_partial, name="rs")
                beta = tf.divide(rs_new, rs_read, name="beta")
                new_p_slice = tf.add(new_r, tf.multiply(beta, p_slice),
                                     name="new_p_slice")
                send_p = gather_in.enqueue(
                    [tf.constant(w, dtype=tf.int64), new_p_slice],
                    name="send_p")
                with g.control_dependencies([send_p]):
                    full_p = gather_out.dequeue(name="recv_p")
                # Order the state writes after the reads they supersede.
                with g.control_dependencies([p_read.op, q.op]):
                    store_p = tf.assign(p_var, full_p)
                with g.control_dependencies([rs_read.op, alpha.op, beta.op]):
                    store_rs = tf.assign(rs_var, rs_new)
                step_ops.append(tf.group(
                    new_x.op, store_p.op, store_rs.op, name="step", graph=g))
                rs_fetches.append(rs_new)
            savers.append(
                Saver([a_var, x_var, r_var, p_var, rs_var], graph=g)
                if (checkpoint_dir or resume_dir) else None
            )
        reducer_steps = tf.group(pq_red.reducer_step(), rs_red.reducer_step(),
                                 name="reduce_round", graph=g)
        rs_only_step = rs_red.reducer_step(name="rs_round")

    shape_cfg = session_config(shape_only=shape_only, optimize=optimize)
    worker_sessions = [
        tf.Session(handle.server("worker", w), graph=g, config=shape_cfg)
        for w in range(num_gpus)
    ]
    reducer_session = tf.Session(handle.server("reducer", 0), graph=g,
                                 config=shape_cfg)
    reducer_node = handle.server("reducer", 0).runtime.node
    state = {"loop_start": None, "loop_end": None, "last_rs": None,
             "ready": 0, "done": 0, "iters": [0] * num_gpus}
    # The timed region is the iteration loop only: workers barrier after
    # setup (their block loads straggle on shared NICs) and the clock stops
    # when the last worker completes its final iteration.
    start_barrier = env.event()

    def gather_round():
        """Reducer side of one allgather: collect, concat in NumPy, bcast."""
        pairs = yield from reducer_session.run_gen(
            [t for pair in gather_pops for t in pair])
        # Assemble the full vector on the reducer host (NumPy concat).
        yield env.timeout(n * 8 / reducer_node.cpu.model.python_bytes_rate)
        if shape_only:
            full = SymbolicValue((n,), tf.float64)
        else:
            slices = {}
            for w in range(num_gpus):
                idx = int(pairs[2 * w])
                slices[idx] = pairs[2 * w + 1]
            full = np.concatenate([slices[w] for w in range(num_gpus)])
        yield from reducer_session.run_gen(
            gather_bcast, feed_dict={full_p_feed: full})

    def reducer_proc():
        if resume_paths is None:
            # Setup round: one rs reduction + one gather of b.
            yield from reducer_session.run_gen(rs_only_step)
            yield from gather_round()
        for _ in range(iterations):
            yield from reducer_session.run_gen(reducer_steps)
            yield from gather_round()

    def worker_proc(w: int):
        sess = worker_sessions[w]
        if resume_paths is not None:
            yield from savers[w].restore_gen(sess, resume_paths[w])
        else:
            yield from sess.run_gen(setup_ops[w])
        state["ready"] += 1
        if state["ready"] == num_gpus:
            state["loop_start"] = env.now
            start_barrier.succeed()
        yield start_barrier
        for it in range(iterations):
            _, rs_value = yield from sess.run_gen([step_ops[w], rs_fetches[w]])
            state["iters"][w] = it + 1
            if w == 0:
                state["last_rs"] = rs_value
            if (checkpoint_dir and checkpoint_every
                    and (it + 1) % checkpoint_every == 0):
                yield from savers[w].save_gen(
                    sess, os.path.join(checkpoint_dir, f"cg_w{w}"),
                    global_step=start_step + it + 1,
                )
        state["done"] += 1
        if state["done"] == num_gpus:
            state["loop_end"] = env.now

    procs = [env.process(worker_proc(w)) for w in range(num_gpus)]
    if injector is not None:
        for w, proc in enumerate(procs):
            injector.register_worker("worker", w, proc)
    procs.append(env.process(reducer_proc()))
    crashed = False
    fault_detail = None
    try:
        for proc in procs:
            env.run(until=proc)
    except (Interrupt, DeadlineExceededError, UnavailableError) as exc:
        # A registered worker process was killed (or a deadline fired on
        # its peers): report the partial run instead of hanging. Recovery
        # is driver-level — see run_cg_with_recovery.
        crashed = True
        fault_detail = f"{type(exc).__name__}: {exc}"
    except RuntimeError as exc:
        if fault_plan is None or "drained" not in str(exc):
            raise
        # The crash starved the calendar (e.g. the reducer parked on a
        # queue the dead worker will never feed): same outcome.
        crashed = True
        fault_detail = f"deadlock after fault: {exc}"
    if crashed:
        elapsed = (env.now - state["loop_start"]
                   if state["loop_start"] is not None else 0.0)
    else:
        elapsed = state["loop_end"] - state["loop_start"]

    residual = float("nan")
    validated = False
    x = None
    if not (shape_only or crashed):
        x = np.concatenate([ws.run(xv) for ws, xv in zip(worker_sessions, x_vars)])
        if a_full is None:
            a_full, b_full = problem if problem is not None else make_spd_problem(n, seed)
        residual = float(
            np.linalg.norm(b_full - a_full @ x) / np.linalg.norm(b_full)
        )
        validated = bool(residual < 1e-6) if iterations >= n // 4 else bool(
            residual < 1.0
        )
    plan_items = sum(
        sess.plan_cache_info()["items"]
        for sess in (*worker_sessions, reducer_session)
    )
    return CGResult(
        system=system,
        n=n,
        num_gpus=num_gpus,
        iterations=iterations,
        elapsed=elapsed,
        residual=residual,
        validated=validated,
        checkpoint_path=checkpoint_dir,
        solution=x,
        plan_items=plan_items,
        crashed=crashed,
        completed_step=start_step + min(state["iters"]),
        fault_detail=fault_detail,
    )


# ---------------------------------------------------------------------------
# Checkpoint-restart recovery driver
# ---------------------------------------------------------------------------

# No backoff: a restart boots replacement hardware, with nothing to wait
# for. Finding the cut cannot fail detection, so one restore per fault.
_RECOVERY_POLICY = RetryPolicy(max_attempts=2, initial_backoff=0.0)


def _consistent_cut(checkpoint_dir: str, num_gpus: int):
    """``(step, per-worker paths)`` of the newest iteration every worker
    checkpointed intact, or None (the trailing dash keeps worker 1 from
    matching ``cg_w10-*``)."""
    return latest_common_checkpoint(
        checkpoint_dir, [f"cg_w{w}-" for w in range(num_gpus)])


@dataclass
class CGRecoveryResult:
    """Outcome of a fault-tolerant CG solve (restarts included)."""

    system: str
    n: int
    num_gpus: int
    iterations: int
    checkpoint_every: int
    total_elapsed: float  # simulated seconds summed across attempts
    recoveries: int = 0  # cluster restarts performed
    iterations_replayed: int = 0  # committed iterations recomputed
    residual: float = float("nan")
    validated: bool = False
    solution: Optional[np.ndarray] = None
    attempts: list = field(default_factory=list)  # CGResult per attempt
    fault_log: list = field(default_factory=list)  # see Recovery.fault_log

    @property
    def recovery_overhead(self) -> float:
        """Extra simulated time relative to the final (clean) attempt."""
        clean = self.attempts[-1].elapsed if self.attempts else 0.0
        return self.total_elapsed - clean


def run_cg_with_recovery(
    system: str = "kebnekaise-v100",
    n: int = 64,
    num_gpus: int = 2,
    iterations: int = 20,
    protocol: str = "grpc+verbs",
    seed: int = 0,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 5,
    fault_plan=None,
    problem=None,
) -> CGRecoveryResult:
    """Solve ``A x = b`` with checkpoint-restart across worker losses.

    The paper's CG fault-tolerance story end to end, driven by the
    recovery loop of :mod:`repro.runtime.recovery`: run the distributed
    solver under a fault plan; when a worker is lost, find the newest
    iteration *every* worker checkpointed (a consistent cut), bring up a
    fresh cluster, restore all workers from that cut and continue the
    remaining iterations. Deterministic arithmetic means the recovered
    solution is byte-identical to an uninterrupted solve.

    The fault plan is installed on the first attempt only — a restart
    models replacement hardware, so consumed crash faults do not re-fire
    on the recovered cluster. Each cluster has its own clock, so the
    loop's clock is a job clock charged with every attempt's iteration
    loop.
    """
    if checkpoint_dir is None:
        raise InvalidArgumentError("run_cg_with_recovery needs checkpoint_dir=")
    if checkpoint_every < 1:
        raise InvalidArgumentError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    if problem is None:
        problem = make_spd_problem(n, seed)
    attempts: list = []
    job_clock = Environment()
    cut = None  # what restore() found, for the next advance to restore

    def advance(step):
        res = run_cg(
            system=system, n=n, num_gpus=num_gpus,
            iterations=iterations - step, protocol=protocol,
            shape_only=False, seed=seed, checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            resume_dir=checkpoint_dir if cut else None, problem=problem,
            fault_plan=None if attempts else fault_plan, _resume_cut=cut,
        )
        attempts.append(res)
        job_clock.run(until=job_clock.timeout(res.elapsed))
        if res.crashed:
            raise Fault(UnavailableError(res.fault_detail), res.completed_step)
        return res.completed_step

    def restore():
        nonlocal cut
        cut = _consistent_cut(checkpoint_dir, num_gpus)
        return cut[0] if cut else None

    recovery = run_recoverable(job_clock, advance, restore, _RECOVERY_POLICY)
    final = attempts[-1]
    return CGRecoveryResult(
        system=system,
        n=n,
        num_gpus=num_gpus,
        iterations=iterations,
        checkpoint_every=checkpoint_every,
        total_elapsed=job_clock.now,
        recoveries=recovery.recoveries,
        iterations_replayed=recovery.replayed,
        residual=final.residual,
        validated=final.validated,
        solution=final.solution,
        attempts=attempts,
        fault_log=recovery.fault_log,
    )


# ---------------------------------------------------------------------------
# Single-task CG: the same solver through both frontends
# ---------------------------------------------------------------------------

def cg_step(a, x, r, p, rs, device: str = ""):
    """One CG iteration over full state, as pure dataflow ops.

    The shared kernel of both frontends: traced by ``@repro.function``
    (arguments become placeholders) and reused verbatim by the
    hand-built graph-mode driver — byte-identical numerics and identical
    simulated time by construction. ``device`` is static metadata: the
    matvec and vector updates are pinned there, mirroring the
    distributed solver's per-worker GPU placement.
    """
    with tf.device(device or None):
        q = tf.matmul(a, p, name="q")
        pq = tf.dot(p, q, name="pq")
        alpha = tf.divide(rs, pq, name="alpha")
        x_new = tf.add(x, tf.multiply(alpha, p), name="x_new")
        r_new = tf.subtract(r, tf.multiply(alpha, q), name="r_new")
        rs_new = tf.dot(r_new, r_new, name="rs_new")
        beta = tf.divide(rs_new, rs, name="beta")
        p_new = tf.add(r_new, tf.multiply(beta, p), name="p_new")
    return x_new, r_new, p_new, rs_new


@dataclass
class CGSingleResult:
    """Outcome of one single-task CG run (either frontend)."""

    frontend: str
    system: str
    n: int
    iterations: int
    elapsed: float  # simulated seconds, iteration loop only
    residual: float
    solution: np.ndarray
    trace_count: int = 0  # function frontend only
    plan_cache: dict = None

    @property
    def seconds_per_iteration(self) -> float:
        return self.elapsed / self.iterations


def run_cg_single(
    system: str = "localhost",
    n: int = 64,
    iterations: int = 25,
    seed: int = 0,
    frontend: str = "function",
    problem=None,
    optimize: Optional[bool] = None,
) -> CGSingleResult:
    """Solve ``A x = b`` on one simulated worker, via either frontend.

    ``frontend="function"`` writes the solver imperatively: state lives
    in NumPy on the client, and each iteration calls the
    ``@repro.function``-traced :func:`cg_step` — traced once, then every
    call dispatches through the cached ConcreteFunction and the
    session's plan cache. ``frontend="graph"`` hand-builds the identical
    step graph with explicit placeholders and drives ``Session.run`` in
    a loop (the TF-1.x idiom). Both produce byte-identical values and
    identical simulated time, which the tier-1 suite asserts.
    """
    if frontend not in ("function", "graph"):
        raise InvalidArgumentError(
            f"frontend must be 'function' or 'graph', got {frontend!r}"
        )
    if problem is not None:
        a_full, b_full = problem
        a_full = np.asarray(a_full, dtype=np.float64)
        b_full = np.asarray(b_full, dtype=np.float64)
    else:
        a_full, b_full = make_spd_problem(n, seed)
    handle = build_cluster(system, {"worker": 1})
    server = handle.server("worker", 0)
    device = task_device("worker", 0, "gpu", 0)
    config = session_config(optimize=optimize)

    x = np.zeros(n, dtype=np.float64)
    r = b_full.copy()
    p = b_full.copy()
    rs = np.float64(r @ r)

    env = handle.env
    if frontend == "function":
        step = tf.function(cg_step, name="cg_step", seed=seed, target=server,
                           config=config)
        start = env.now
        for _ in range(iterations):
            x, r, p, rs = step(a_full, x, r, p, rs, device)
        elapsed = env.now - start
        trace_count = step.trace_count
        plan_cache = step.session.plan_cache_info()
    else:
        g = tf.Graph(seed=seed)
        with g.as_default(), g.name_scope("cg_step"):
            a_ph = tf.placeholder(tf.float64, shape=a_full.shape, name="a")
            x_ph = tf.placeholder(tf.float64, shape=[n], name="x")
            r_ph = tf.placeholder(tf.float64, shape=[n], name="r")
            p_ph = tf.placeholder(tf.float64, shape=[n], name="p")
            rs_ph = tf.placeholder(tf.float64, shape=[], name="rs")
            outputs = cg_step(a_ph, x_ph, r_ph, p_ph, rs_ph, device)
        sess = tf.Session(server, graph=g, config=config)
        start = env.now
        for _ in range(iterations):
            x, r, p, rs = sess.run(
                list(outputs),
                feed_dict={a_ph: a_full, x_ph: x, r_ph: r, p_ph: p, rs_ph: rs},
            )
        elapsed = env.now - start
        trace_count = 0
        plan_cache = sess.plan_cache_info()

    residual = float(np.linalg.norm(b_full - a_full @ x) / np.linalg.norm(b_full))
    return CGSingleResult(
        frontend=frontend,
        system=system,
        n=n,
        iterations=iterations,
        elapsed=elapsed,
        residual=residual,
        solution=x,
        trace_count=trace_count,
        plan_cache=plan_cache,
    )
