"""Static-verifier overhead benchmark (``SessionConfig.verify_plans``).

Verification must be cheap enough to leave on: the acceptance bar is
<10% plan-build overhead on representative workloads, with every plan
verifying clean (the zero-false-positive burn-in). Three measurements:

* ``layered_collective`` — a ~500-op layered matmul/add graph with an
  all-reduce across 4 GPUs, fed through placeholders. Passes find
  little to rewrite, so this measures the verifier's fixed costs
  (pre-optimization graph check, per-pass delta checks, plan
  verification). Asserted <10%.
* ``identity_heavy`` — the same graph with an Identity after every
  node: identity collapse rewrites a third of the ops, so the per-pass
  delta verification does work proportional to the rewrite. Recorded
  as the documented worst case (cost scales with how much the pipeline
  actually changed, not with graph size).
* ``session_amortized`` — a session running the same fetches
  repeatedly: after the first build the plan cache serves every run, so
  verification amortizes to ~zero. Asserted <10%. This is the number
  the example/bench suite actually experiences under
  ``REPRO_VERIFY_PLANS=1``.

Results land in ``benchmarks/results/BENCH_verifier.json`` via
``record_bench``.
"""

import gc
import time

import numpy as np

import repro as tf
from repro.core.ops import collective_ops
from repro.core.partition import build_plan
from repro.core.placement import Placer

LAYERS = 30
WIDTH = 8
GPUS = 4
REPEATS = 12


def _layered_graph(identities: bool):
    g = tf.Graph()
    devices = [f"/device:gpu:{i}" for i in range(GPUS)]
    with g.as_default():
        feeds = [
            tf.placeholder(tf.float32, (16, 16), name=f"in{i}")
            for i in range(WIDTH)
        ]
        tensors = list(feeds)
        for layer in range(LAYERS):
            nxt = []
            for i in range(WIDTH):
                with g.device(devices[(layer + i) % GPUS]):
                    t = tf.add(
                        tf.matmul(tensors[i], tensors[(i + 1) % WIDTH]),
                        tensors[i],
                    )
                    if identities:
                        t = tf.identity(t)
                    nxt.append(t)
            tensors = nxt
        vals = []
        for rank in range(GPUS):
            with g.device(devices[rank]):
                vals.append(tf.reduce_sum(tensors[rank % WIDTH]))
        reduced = collective_ops.all_reduce(vals, devices=devices)
        fetches = [tf.add(t, t) for t in reduced] + tensors
    # Small values keep 30 chained matmuls bounded (16 * 0.01^2 << 0.01).
    feed_map = {f.name: np.full((16, 16), 0.01, np.float32) for f in feeds}
    return g, feed_map, fetches


def _measure_build(identities: bool):
    """Interleaved min-of-N plan builds, verification on vs off."""
    g, feed_map, fetches = _layered_graph(identities)
    placer = Placer(
        {("localhost", 0): {"cpu": 1, "gpu": GPUS}},
        default_job="localhost",
        default_task=0,
    )

    def build(verify: bool):
        return build_plan(
            g, [], fetches, feed_map, placer,
            client_device="/job:localhost/task:0/device:cpu:0",
            run_id=1,
            optimize=True,
            verify=verify,
        )

    plan = build(True)  # warm caches off the books; also the burn-in probe
    build(False)
    walls = {True: [], False: []}
    for _ in range(REPEATS):
        for verify in (True, False):
            gc.collect()
            t0 = time.perf_counter()
            build(verify)
            walls[verify].append(time.perf_counter() - t0)
    return min(walls[True]), min(walls[False]), plan


def _measure_session(steps: int = 40):
    """Interleaved min-of-N full sessions: one build, many cached runs."""

    def run(verify: bool) -> float:
        g, feed_map, fetches = _layered_graph(identities=False)
        config = tf.SessionConfig(verify_plans=verify)
        gc.collect()
        t0 = time.perf_counter()
        with tf.Session(graph=g, config=config) as sess:
            for _ in range(steps):
                sess.run(fetches, feed_dict=feed_map)
        return time.perf_counter() - t0

    run(True)  # warm-up
    run(False)
    walls = {True: [], False: []}
    for _ in range(3):
        for verify in (True, False):
            walls[verify].append(run(verify))
    return min(walls[True]), min(walls[False])


def _overhead_pct(on: float, off: float) -> float:
    return 100.0 * (on - off) / off


def test_plan_build_overhead(record_bench, record_table):
    on, off, plan = _measure_build(identities=False)
    on_heavy, off_heavy, plan_heavy = _measure_build(identities=True)
    sess_on, sess_off = _measure_session()

    pct = _overhead_pct(on, off)
    pct_heavy = _overhead_pct(on_heavy, off_heavy)
    pct_sess = _overhead_pct(sess_on, sess_off)

    record_bench(
        "verifier", "layered_collective",
        plan_items=len(plan.items),
        wall_off_ms=round(off * 1e3, 3),
        wall_on_ms=round(on * 1e3, 3),
        overhead_pct=round(pct, 1),
        diagnostics=len(plan.verifier_diagnostics),
    )
    record_bench(
        "verifier", "identity_heavy",
        plan_items=len(plan_heavy.items),
        wall_off_ms=round(off_heavy * 1e3, 3),
        wall_on_ms=round(on_heavy * 1e3, 3),
        overhead_pct=round(pct_heavy, 1),
        diagnostics=len(plan_heavy.verifier_diagnostics),
    )
    record_bench(
        "verifier", "session_amortized",
        wall_off_s=round(sess_off, 4),
        wall_on_s=round(sess_on, 4),
        overhead_pct=round(pct_sess, 1),
    )
    record_table(
        "bench_verifier.txt",
        "\n".join([
            "Static-verifier overhead (verify_plans=True vs False, "
            "min-of-N interleaved)",
            f"  layered_collective: build {off * 1e3:.2f} -> "
            f"{on * 1e3:.2f} ms ({pct:+.1f}%)",
            f"  identity_heavy:     build {off_heavy * 1e3:.2f} -> "
            f"{on_heavy * 1e3:.2f} ms ({pct_heavy:+.1f}%, rewrite-heavy "
            "worst case)",
            f"  session_amortized:  {sess_off:.3f} -> {sess_on:.3f} s "
            f"({pct_sess:+.1f}%, plan cache serves repeat runs)",
        ]),
    )

    # Burn-in: representative plans verify clean — no false positives.
    assert plan.verified and not plan.verifier_diagnostics
    assert plan_heavy.verified and not plan_heavy.verifier_diagnostics

    # The acceptance bar: <10% plan-build overhead on the representative
    # workload and on what sessions actually experience. The
    # rewrite-heavy arm is recorded (its verification cost scales with
    # the rewrite volume) and sanity-bounded rather than held to 10%.
    assert pct < 10.0, (
        f"plan-build verification overhead {pct:.1f}% (on={on * 1e3:.2f}ms "
        f"off={off * 1e3:.2f}ms), expected <10%"
    )
    assert pct_sess < 10.0, (
        f"session-level verification overhead {pct_sess:.1f}%, expected <10%"
    )
    assert pct_heavy < 40.0, (
        f"rewrite-heavy verification overhead {pct_heavy:.1f}% looks "
        f"pathological"
    )
