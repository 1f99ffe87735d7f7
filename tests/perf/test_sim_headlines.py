"""The simulated-clock headlines, pinned bit for bit.

The mechanism numbers the paper's argument rests on: ring vs tree
allreduce, ring vs the central reducer (the Horovod argument), recovery
cost vs checkpoint interval and crash count, what the plan-time
optimizer removes, what the static verifier costs per plan, and the
device memory the executor accounts (peaks, allocation counts, the
paper's out-of-memory point); plus one small point per paper figure.
Each is recomputed here and compared with ``GOLDEN``, floats as ``float.hex``
strings (the idiom of ``tests/runtime/test_collective.py::GOLDEN``).
The simulated clock is deterministic, so any drift is a finding: a
change that moves a headline re-pins it here in the same change and
says why. Beside each pin sit the paper-grounded orderings, which must
hold whatever the numbers are.
"""

import numpy as np
import pytest

import repro as tf
from repro import analysis
from repro.apps.cg import (
    make_spd_problem,
    run_cg,
    run_cg_single,
    run_cg_with_recovery,
)
from repro.apps.common import build_cluster, task_device
from repro.apps.matmul import run_matmul
from repro.apps.sgd import run_sgd, run_sgd_restartable
from repro.apps.stencil import run_stencil
from repro.apps.stream import run_stream
from repro.core.ops import collective_ops
from repro.core.partition import Item, build_plan
from repro.core.placement import Placer
from repro.core.session import admin_rpc_time
from repro.core.tensor import SymbolicValue
from repro.runtime.collective import run_collective, select_algorithm
from repro.runtime.retry import RetryPolicy
from repro.simnet.events import Environment
from repro.simnet.faults import FaultPlan, MessageDrop, WorkerCrash
from repro.simnet.machines import tegner

KB = 1024
MB = 1024 * 1024

GOLDEN = {
    # payload bytes -> (ring s, tree s, auto's choice), 8 Tegner ranks.
    "crossover_w8": {
        8: ("0x1.b86c598670080p-14", "0x1.79af139e49d2bp-16", "tree"),
        1 * KB: ("0x1.bb218a1eddc77p-14", "0x1.92a4c2c6363fap-16", "tree"),
        8 * KB: ("0x1.ce3c135c58f72p-14", "0x1.215e5e68e22b9p-15", "tree"),
        64 * KB: ("0x1.33882ea4193b6p-13", "0x1.f0df234b8d44bp-14", "tree"),
        512 * KB: ("0x1.cb6cab29bf9cfp-12", "0x1.9e4bd8808dd78p-11", "ring"),
        1 * MB: ("0x1.945fcea26aa97p-11", "0x1.9865e5720de20p-10", "ring"),
        8 * MB: ("0x1.64348dac00543p-8", "0x1.933cb0c55deb3p-7", "ring"),
    },
    "allreduce_8x32MB": {
        "ring": "0x1.5f0b58ff505d8p-6",
        "central": "0x1.e47fa39459f0fp-5",
        "standalone_ring": "0x1.5f0b58ff505d9p-6",
    },
    # workers -> (ring s, central s, ring sync s, central sync s).
    "stencil_sync": {
        2: ("0x1.8792345688395p-6", "0x1.8c6c24cf53d51p-6",
            "0x1.9d5a3f5640a5dp-7", "0x1.a70e2047d7dd4p-7"),
        4: ("0x1.88f194c156b76p-6", "0x1.c8b1c380676a3p-6",
            "0x1.cb2c3cda3c7bap-7", "0x1.25564d2c2ef08p-6"),
        8: ("0x1.8d3c9354a8469p-6", "0x1.30bb7d5026c44p-5",
            "0x1.e974bfe21f634p-7", "0x1.c8f4c73cb4f42p-6"),
    },
    # workers -> (ring s, central s) over 4 steps.
    "sgd_exchange": {
        2: ("0x1.face23f249635p-6", "0x1.03e025cf1f140p-5"),
        4: ("0x1.0e2cd3f44d289p-5", "0x1.8c8e854efb250p-5"),
        8: ("0x1.2917c88d5ae22p-5", "0x1.4ef5a22759a33p-4"),
    },
    # checkpoint interval -> (s, recoveries, steps replayed), one crash.
    "recovery_vs_interval": {
        1: ("0x1.a0dfa61cc9d53p-5", 1, 0),
        2: ("0x1.6b89cfde5f124p-5", 1, 2),
        4: ("0x1.290cf7515120ap-5", 1, 0),
        8: ("0x1.30895629a1359p-5", 1, 5),
    },
    # crash count -> (s, recoveries, steps replayed), checkpoint every 4;
    # 0 crashes is the clean run every fault overhead is measured from.
    "recovery_vs_crashes": {
        0: ("0x1.0795ecb6010c1p-5", 0, 0),
        1: ("0x1.290cf7515120ap-5", 1, 0),
        2: ("0x1.5afd4c4f9086bp-5", 2, 3),
    },
    "transient_drops": {
        "elapsed": "0x1.202961726b8b5p-5", "recoveries": 0, "drops": 4,
    },
    # (total s, recoveries, iterations replayed): one CG worker lost at
    # 60 % of a clean 16-iteration solve, checkpoints every 4.
    "cg_recovery": ("0x1.e3ef44b0577fap-6", 1, 0),
    # app -> (plan items on, off, simulated s on, off).
    "optimizer": {
        "fig10_cg": (380, 398,
                     "0x1.7d9cbf7731a5ep+0", "0x1.7d9cbf7731a5ep+0"),
        "sgd": (89, 101, "0x1.7ba3f654dec95p-8", "0x1.8a31c46a19f4ep-8"),
        "stencil": (177, 176,
                    "0x1.9cf69baa84d44p-7", "0x1.9cf69baa84d44p-7"),
    },
    "figure_points": {
        "fig7_stream_s_per_transfer": "0x1.1f6c4b9087fa1p-9",
        "fig8_matmul_gflops": "0x1.3ca3eeeadef94p+3",
        "fig10_cg_plan_items": 202,
        # (simulated s, traces, plan-cache hits) of the traced CG step.
        "fig10_cg_traced": ("0x1.6ef1a82652265p-6", 1, 59),
    },
    "verified_plan_items": 994,
    "verifier_calls": {"pre_optimization": 1, "per_pass": 1, "plan": 1},
    # Device memory as the executor accounts it: pool -> (peak B,
    # allocations, B still allocated after the run).
    "memory": {
        # Shape-only Fig. 10 point: 16384 on 4 Tegner K80s, 5 iterations.
        "fig10_cg": {
            "t01n01/host-mem": (536870920, 271, 0),
            "/job:reducer/task:0/device:gpu:0@t01n01/gpu:0": (40, 55, 0),
            "/job:worker/task:0/device:gpu:0@t01n01/gpu:1":
                (1073938440, 82, 537067528),
            "t01n02/host-mem": (1073741832, 16, 0),
            "/job:worker/task:1/device:gpu:0@t01n02/gpu:0":
                (1073938440, 82, 537067528),
            "/job:worker/task:2/device:gpu:0@t01n02/gpu:1":
                (1073938440, 82, 537067528),
            "t01n03/host-mem": (536870920, 8, 0),
            "/job:worker/task:3/device:gpu:0@t01n03/gpu:0":
                (1073938440, 82, 537067528),
        },
        # Concrete 64 x 64 stencil on 4 workers, 40 sweeps.
        "stencil": {
            "t01n01/host-mem": (32768, 5, 0),
            "/job:chief/task:0/device:gpu:0@t01n01/gpu:0": (0, 0, 0),
            "t01n02/host-mem": (51120, 973, 8200),
            "/job:worker/task:0/device:gpu:0@t01n02/gpu:0": (0, 0, 0),
            "t01n03/host-mem": (50608, 893, 8200),
            "/job:worker/task:1/device:gpu:0@t01n03/gpu:0": (0, 0, 0),
            "t01n04/host-mem": (50608, 893, 8200),
            "/job:worker/task:2/device:gpu:0@t01n04/gpu:0": (0, 0, 0),
            "t01n05/host-mem": (51120, 933, 8200),
            "/job:worker/task:3/device:gpu:0@t01n05/gpu:0": (0, 0, 0),
        },
        # Fig. 10's omitted point, 65536 on 2 K80s: (error, failing item,
        # pools at the failure).
        "fig10_oom": (
            "OOM on /job:worker/task:1/device:gpu:0@t01n02/gpu:0: requested "
            "17179869184 B with 12883853304 B free of 12884901888 B",
            ("recv", "worker1/loadA:0"),
            {
                "t01n01/host-mem": (17179869192, 20, 17179869184),
                "/job:reducer/task:0/device:gpu:0@t01n01/gpu:0": (24, 3, 0),
                "/job:worker/task:0/device:gpu:0@t01n01/gpu:1":
                    (1572872, 10, 1048584),
                "t01n02/host-mem": (17179869192, 3, 0),
                "/job:worker/task:1/device:gpu:0@t01n02/gpu:0":
                    (1572872, 10, 1048584),
            },
        ),
    },
}


def _hexed(value):
    """``value`` with every float replaced by its ``float.hex`` string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return tuple(_hexed(item) for item in value)
    return value


# -- One small point per paper figure ------------------------------------

def test_figure_points():
    """Simulated rates of one small Fig. 7/8/10 point each, and of the
    Fig. 10 step through ``@repro.function``. Whether the values they
    compute validate is ``tests/apps``' job."""
    stream = run_stream(system="tegner-k420", size_mb=2, iterations=5,
                        shape_only=True)
    matmul = run_matmul(system="tegner-k420", n=512, tile=128, num_gpus=2,
                        shape_only=False, seed=1)
    cg = run_cg(system="tegner-k80", n=128, num_gpus=2, iterations=60,
                shape_only=False, seed=7)
    traced = run_cg_single(system="tegner-k80", n=128, iterations=60,
                           frontend="function", seed=7)
    assert _hexed({
        "fig7_stream_s_per_transfer": stream.seconds_per_transfer,
        "fig8_matmul_gflops": matmul.gflops,
        "fig10_cg_plan_items": cg.plan_items,
        "fig10_cg_traced": (traced.elapsed, traced.trace_count,
                            traced.plan_cache["hits"]),
    }) == GOLDEN["figure_points"]


# -- Collectives: ring vs tree, ring vs central reducer ------------------

def _standalone_allreduce(algorithm, world, nbytes):
    env = Environment()
    machine = tegner(env, k420_nodes=world)
    devices = [machine.node(n).cpu for n in sorted(machine.nodes)]
    values = [SymbolicValue((nbytes // 8,), "float64") for _ in range(world)]
    env.run(until=env.process(run_collective(
        "CollectiveAllReduce", devices, values, algorithm=algorithm)))
    return env.now


def test_ring_vs_tree_crossover_at_8_workers():
    """One scalar up to 8 MB: the tree's ``~log2 W`` rounds win while
    latency-bound, the ring's ``2 (W-1)/W`` wire bytes once
    bandwidth-bound, and ``auto`` picks the winner at every payload."""
    payloads = (8, 1 * KB, 8 * KB, 64 * KB, 512 * KB, 1 * MB, 8 * MB)
    times = {
        nbytes: {algorithm: _standalone_allreduce(algorithm, 8, nbytes)
                 for algorithm in ("ring", "tree")}
        for nbytes in payloads
    }
    auto = {nbytes: select_algorithm("CollectiveAllReduce", nbytes, 8)
            for nbytes in payloads}
    assert _hexed({
        nbytes: (times[nbytes]["ring"], times[nbytes]["tree"], auto[nbytes])
        for nbytes in payloads
    }) == GOLDEN["crossover_w8"]

    crossover = next(nbytes for nbytes in payloads
                     if times[nbytes]["ring"] <= times[nbytes]["tree"])
    for nbytes in payloads:
        if nbytes < crossover:
            assert times[nbytes]["tree"] < times[nbytes]["ring"], nbytes
        assert auto[nbytes] == min(times[nbytes], key=times[nbytes].get)
    assert times[8 * MB]["tree"] >= 1.5 * times[8 * MB]["ring"]


def _worker_sources(g, world, nbytes):
    """Per-rank addends materialized *on the worker devices*.

    Identity-of-fed-placeholder pins a zero-cost producer on each rank,
    so cross-device consumers pay real wire time (a bare fed placeholder
    would short-circuit routing: feeds are client-side values). The
    sessions run with graph rewriting off: identity collapse would
    substitute the feed straight through and un-pin the producer.
    """
    phs, srcs = [], []
    for w in range(world):
        with g.device(task_device("worker", w, "cpu", 0)):
            ph = tf.placeholder(tf.float64, shape=[nbytes // 8],
                                name=f"x{w}")
            phs.append(ph)
            srcs.append(tf.identity(ph, name=f"src{w}"))
    return phs, srcs


def _graph_reduction(world, nbytes, central):
    """Simulated seconds of one graph-level sum across ``world`` ranks:
    ``repro.all_reduce``, or add_n on task 0 echoed to every rank."""
    handle = build_cluster("tegner-k420", {"worker": world})
    g = tf.Graph()
    with g.as_default():
        phs, srcs = _worker_sources(g, world, nbytes)
        if central:
            with g.device(task_device("worker", 0, "cpu", 0)):
                total = tf.add_n(srcs, name="central_sum")
            echoes = []
            for w in range(world):
                with g.device(task_device("worker", w, "cpu", 0)):
                    echoes.append(tf.identity(total, name=f"echo{w}"))
            fetch = tf.group(*[e.op for e in echoes], graph=g)
        else:
            fetch = [tf.all_reduce(srcs)[0].op]
    sess = tf.Session(handle.server("worker", 0), graph=g,
                      config=tf.SessionConfig(shape_only=True,
                                              graph_optimization=False))
    feeds = {ph: SymbolicValue((nbytes // 8,), "float64") for ph in phs}
    start = handle.env.now
    sess.run(fetch, feed_dict=feeds)
    return handle.env.now - start - admin_rpc_time(remote_tasks=True)


def test_graph_allreduce_vs_central_reducer_8x32MB():
    ring = _graph_reduction(8, 32 * MB, central=False)
    central = _graph_reduction(8, 32 * MB, central=True)
    standalone = _standalone_allreduce("ring", 8, 32 * MB)
    assert _hexed({"ring": ring, "central": central,
                   "standalone_ring": standalone}) == GOLDEN["allreduce_8x32MB"]

    # The lowered graph op charges exactly the standalone ring's time.
    assert ring == pytest.approx(standalone, rel=1e-12)
    assert ring < central / 2


def test_stencil_sync_scaling():
    """Halo-exchange stencil, global sync every sweep: the ring beats
    the chief's NIC once four workers contend for it, by more at 8."""
    runs = {
        workers: tuple(
            run_stencil(mode=mode, num_workers=workers, n=512, iterations=10,
                        check_every=1, shape_only=True)
            for mode in ("collective", "reducer"))
        for workers in (2, 4, 8)
    }
    assert _hexed({
        workers: (ring.elapsed, central.elapsed,
                  ring.check_elapsed, central.check_elapsed)
        for workers, (ring, central) in runs.items()
    }) == GOLDEN["stencil_sync"]

    for workers in (4, 8):
        ring, central = runs[workers]
        assert ring.elapsed < central.elapsed, workers

    def sync_speedup(workers):
        ring, central = runs[workers]
        return central.check_elapsed / ring.check_elapsed

    assert sync_speedup(8) > sync_speedup(4)


def test_sgd_exchange_scaling():
    """An 8 MB gradient (d = 2^20 float64) summed every step, ring vs
    chief reduce + fan-out: the ring wins by >= 1.5x at 8 workers and
    its advantage grows with W."""
    runs = {
        workers: tuple(
            run_sgd(mode=mode, num_workers=workers, d=1 << 20,
                    rows_per_worker=4, steps=4, shape_only=True)
            for mode in ("collective", "reducer"))
        for workers in (2, 4, 8)
    }
    assert _hexed({
        workers: (ring.elapsed, central.elapsed)
        for workers, (ring, central) in runs.items()
    }) == GOLDEN["sgd_exchange"]

    speedup = {workers: central.elapsed / ring.elapsed
               for workers, (ring, central) in runs.items()}
    assert speedup[8] >= 1.5
    assert speedup[8] > speedup[4] > speedup[2]


# -- Fault tolerance: the recovery tax -----------------------------------

# One step is ~0.9 simulated ms and a clean run ~32 ms, so a 2 ms
# operation deadline detects a loss within ~2 steps and one full
# detect-restore-replay cycle stays under the 25 ms crash spacing.
CRASH_AT = 0.005
CRASH_SPACING = 0.025
RESTART_AFTER = 0.003


def _restartable(tmp_path, tag, checkpoint_every, fault_plan):
    res = run_sgd_restartable(
        num_workers=2, steps=40, checkpoint_dir=str(tmp_path / tag),
        checkpoint_every=checkpoint_every, fault_plan=fault_plan,
        operation_timeout_ms=2.0,
        recovery_policy=RetryPolicy(max_attempts=9, initial_backoff=0.001),
    )
    assert res.validated, (
        f"{tag}: recovered trajectory must be byte-identical to the "
        f"fault-free reference"
    )
    return res


def test_recovery_vs_checkpoint_interval(tmp_path):
    """One mid-run crash, snapshots every 1/2/4/8 steps: dense
    checkpoints pay per-step saves, sparse ones replay more."""
    plan = FaultPlan.single_crash("worker", 1, at=CRASH_AT,
                                  restart_after=RESTART_AFTER)
    runs = {interval: _restartable(tmp_path, f"every{interval}", interval,
                                   plan)
            for interval in (1, 2, 4, 8)}
    assert _hexed({
        interval: (res.elapsed, res.recoveries, res.steps_replayed)
        for interval, res in runs.items()
    }) == GOLDEN["recovery_vs_interval"]

    assert all(res.recoveries >= 1 for res in runs.values())
    assert runs[8].steps_replayed >= runs[1].steps_replayed


def test_recovery_vs_crash_count(tmp_path):
    """0/1/2 crashes, checkpoints every 4 steps, spaced wider than one
    recovery cycle: each extra crash costs strictly more."""
    runs = {}
    for crashes in (0, 1, 2):
        faults = tuple(
            WorkerCrash("worker", k % 2, at=CRASH_AT + k * CRASH_SPACING,
                        restart_after=RESTART_AFTER)
            for k in range(crashes))
        runs[crashes] = _restartable(tmp_path, f"crashes{crashes}", 4,
                                     FaultPlan(faults=faults))
    assert _hexed({
        crashes: (res.elapsed, res.recoveries, res.steps_replayed)
        for crashes, res in runs.items()
    }) == GOLDEN["recovery_vs_crashes"]

    assert [runs[c].recoveries for c in (0, 1, 2)] == [0, 1, 2]
    assert runs[0].elapsed < runs[1].elapsed < runs[2].elapsed


def test_transient_drops_cost_backoff_only(tmp_path):
    res = _restartable(tmp_path, "drops", 4,
                       FaultPlan(faults=(MessageDrop(count=4),), seed=3))
    assert _hexed({"elapsed": res.elapsed, "recoveries": res.recoveries,
                   "drops": res.injector_stats["drops"]}) == \
        GOLDEN["transient_drops"]
    assert res.recoveries == 0  # absorbed by retries, no restore


def test_cg_recovery_cost(tmp_path):
    """CG restarts on a fresh cluster from the newest consistent cut;
    the clock sums every attempt's iteration loop."""
    prob = make_spd_problem(64, 0)
    ref = run_cg(system="kebnekaise-v100", n=64, num_gpus=2, iterations=16,
                 shape_only=False, problem=prob)
    res = run_cg_with_recovery(
        n=64, num_gpus=2, iterations=16, checkpoint_dir=str(tmp_path),
        checkpoint_every=4, problem=prob,
        fault_plan=FaultPlan.single_crash("worker", 1, at=ref.elapsed * 0.6))
    assert _hexed((res.total_elapsed, res.recoveries,
                   res.iterations_replayed)) == GOLDEN["cg_recovery"]
    assert res.solution.tobytes() == ref.solution.tobytes()
    assert res.total_elapsed > ref.elapsed


# -- Plan-time optimizer: fewer plan items, never a slower clock ---------

OPTIMIZED_RUNS = {
    "fig10_cg": (run_cg, dict(system="tegner-k80", n=32768, num_gpus=4,
                              iterations=100, shape_only=True)),
    "sgd": (run_sgd, dict(mode="collective", num_workers=4, d=4096,
                          rows_per_worker=8, steps=8, shape_only=True)),
    "stencil": (run_stencil, dict(mode="collective", num_workers=4, n=256,
                                  iterations=10, check_every=2,
                                  shape_only=True)),
}


@pytest.mark.parametrize("app", sorted(OPTIMIZED_RUNS))
def test_optimizer_on_vs_off(app):
    """Optimizer + fast path vs the unoptimized reference executor.
    Folding may only remove simulated cost (the SGD backward has a
    const-only gradient-seed spread); CG and the stencil have nothing
    to fold, so their clocks agree exactly. The stencil's optimized
    plan is one item longer, so only CG and SGD order their items."""
    runner, config = OPTIMIZED_RUNS[app]
    on = runner(optimize=True, **config)
    off = runner(optimize=False, **config)
    assert _hexed((on.plan_items, off.plan_items, on.elapsed, off.elapsed)) \
        == GOLDEN["optimizer"][app]

    assert on.elapsed <= off.elapsed
    assert (on.elapsed == off.elapsed) == (app != "sgd")
    if app != "stencil":
        assert on.plan_items < off.plan_items


# -- Static verifier: clean burn-in, paid once per plan ------------------

GPUS = 4


def _layered_graph(identities):
    """A ~500-op layered matmul/add graph across 4 GPUs ending in an
    all-reduce, optionally with an Identity after every node (identity
    collapse then rewrites a third of the ops)."""
    g = tf.Graph()
    devices = [f"/device:gpu:{i}" for i in range(GPUS)]
    width = 8
    with g.as_default():
        feeds = [tf.placeholder(tf.float32, (16, 16), name=f"in{i}")
                 for i in range(width)]
        tensors = list(feeds)
        for layer in range(30):
            nxt = []
            for i in range(width):
                with g.device(devices[(layer + i) % GPUS]):
                    t = tf.add(tf.matmul(tensors[i],
                                         tensors[(i + 1) % width]),
                               tensors[i])
                    if identities:
                        t = tf.identity(t)
                    nxt.append(t)
            tensors = nxt
        vals = []
        for rank in range(GPUS):
            with g.device(devices[rank]):
                vals.append(tf.reduce_sum(tensors[rank % width]))
        reduced = collective_ops.all_reduce(vals, devices=devices)
        fetches = [tf.add(t, t) for t in reduced] + tensors
    # Each layer maps v to v + 16 v^2, which stays finite for the
    # 1 / (16 v) layers; 0.001 keeps all 30 well below overflow.
    feed_map = {f.name: np.full((16, 16), 0.001, np.float32) for f in feeds}
    return g, feed_map, fetches


@pytest.mark.parametrize("identities", (False, True),
                         ids=("layered_collective", "identity_heavy"))
def test_verifier_burn_in(identities):
    """Representative plans verify clean: no false positives."""
    g, feed_map, fetches = _layered_graph(identities)
    placer = Placer({("localhost", 0): {"cpu": 1, "gpu": GPUS}},
                    default_job="localhost", default_task=0)
    session = tf.Session(graph=g, config=tf.SessionConfig(num_gpus=GPUS))
    session._task_runtimes()  # fills the device table plans are built with
    plan = build_plan(g, [], fetches, feed_map, placer,
                      client_device="/job:localhost/task:0/device:cpu:0",
                      devices=session._devices, optimize=True, verify=True)
    assert plan.verified
    assert plan.verifier_diagnostics == []
    assert len(plan.items) == GOLDEN["verified_plan_items"]


def test_verifier_runs_once_per_plan(monkeypatch):
    """40 same-fetch runs of one session: the first builds the plan and
    verifies it at all three hook points (pre-optimization graph check,
    re-check after each pass that rewrote something, plan check); the
    other 39 are plan-cache hits and call no verifier."""
    calls = {"pre_optimization": 0, "per_pass": 0, "plan": 0}
    verify_graph, verify_plan = analysis.verify_graph, analysis.verify_plan

    def counting_verify_graph(target, **kwargs):
        calls["per_pass" if kwargs.get("opt_pass")
              else "pre_optimization"] += 1
        return verify_graph(target, **kwargs)

    def counting_verify_plan(plan):
        calls["plan"] += 1
        return verify_plan(plan)

    monkeypatch.setattr(analysis, "verify_graph", counting_verify_graph)
    monkeypatch.setattr(analysis, "verify_plan", counting_verify_plan)
    g, feed_map, fetches = _layered_graph(identities=True)
    after_first, hits = None, 0
    with tf.Session(graph=g,
                    config=tf.SessionConfig(verify_plans=True)) as sess:
        for _ in range(40):
            metadata = tf.RunMetadata()
            sess.run(fetches, feed_dict=feed_map, run_metadata=metadata)
            hits += metadata.plan_cache_hit
            after_first = after_first or dict(calls)
    assert after_first == GOLDEN["verifier_calls"]
    assert calls == after_first
    assert hits == 39


# -- Device memory: every pool sees the same allocate/free sequence ------

def _pools(handle):
    """pool name -> (peak B, allocations, B in use) over the cluster's
    distinct pools (a node's host memory is shared by its tasks)."""
    pools = {id(pool): pool for server in handle.servers.values()
             for pool in server.runtime.memory_pools.values()}
    return {pool.name: (pool.peak, pool.alloc_count, pool.in_use)
            for pool in pools.values()}


def _resident(handle, workers, device_type, nbytes):
    """pool name -> ``nbytes`` of variables each worker keeps on its
    ``device_type`` pool; 0 on every other pool."""
    resident = dict.fromkeys(_pools(handle), 0)
    for w in range(workers):
        runtime = handle.server("worker", w).runtime
        pool = runtime.memory_pools[task_device("worker", w, device_type, 0)]
        resident[pool.name] = nbytes
    return resident


def _in_use(pools):
    return {name: in_use for name, (_, _, in_use) in pools.items()}


def test_memory_of_a_shape_only_cg_point():
    """Peaks and allocation counts pinned; after the run only the
    variables (``A``, ``x``, ``r``, ``p``, ``rs_old``) hold memory."""
    handle = build_cluster("tegner-k80", {"reducer": 1, "worker": 4})
    run_cg(system="tegner-k80", n=16384, num_gpus=4, iterations=5,
           shape_only=True, cluster=handle)
    pools = _pools(handle)
    assert pools == GOLDEN["memory"]["fig10_cg"]
    rows, n = 4096, 16384
    assert _in_use(pools) == _resident(
        handle, 4, "gpu", 8 * (rows * n + 2 * rows + n + 1))


def test_memory_of_a_concrete_stencil():
    """Same on concrete 16 x 64 blocks; the residents are ``u`` and
    ``res``."""
    handle = build_cluster("tegner-k420", {"chief": 1, "worker": 4})
    run_stencil(n=64, num_workers=4, iterations=40, cluster=handle)
    pools = _pools(handle)
    assert pools == GOLDEN["memory"]["stencil"]
    assert _in_use(pools) == _resident(handle, 4, "cpu", 8 * (16 * 64 + 1))


def _failing_item(exc):
    """(kind, op or tensor name) of the plan item whose output allocation
    raised ``exc``: the ``item`` of the innermost
    ``ExecutionState.register_outputs`` frame. The error names only the
    pool, so the item is read off the traceback; a refactor that renames
    that method or its argument fails here, not as a memory drift."""
    item, tb = None, exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_name == "register_outputs":
            item = tb.tb_frame.f_locals.get("item")
        tb = tb.tb_next
    assert isinstance(item, Item), (
        "no register_outputs(item, ...) frame in the OOM's traceback: "
        "point _failing_item at the executor's output allocation again")
    return item.kind, item.op.name if item.op is not None else item.tensor_name


def test_memory_of_the_fig10_oom_point():
    """A 16 GB row block cannot land on a 12 GB K80: the same item's
    allocation fails, with the same bytes in every pool."""
    handle = build_cluster("tegner-k80", {"reducer": 1, "worker": 2})
    with pytest.raises(tf.errors.ResourceExhaustedError) as failure:
        run_cg(system="tegner-k80", n=65536, num_gpus=2, iterations=5,
               shape_only=True, cluster=handle)
    assert (str(failure.value), _failing_item(failure.value),
            _pools(handle)) == GOLDEN["memory"]["fig10_oom"]
