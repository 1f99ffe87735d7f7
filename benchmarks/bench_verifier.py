"""Static-verifier benchmark (``SessionConfig.verify_plans``).

What this file *gates* is what is deterministic: every plan verifies
clean (the zero-false-positive burn-in), verification is paid once per
plan and never by a cached run (exact call counts), and turning it on
does not double a plan build (a pathology guard, not a budget). What it
*measures, prints and records* — advisory, because a wall-clock ratio on
a shared machine is not reproducible and punishes whoever speeds up its
denominator — is the plan-build overhead, three ways:

* ``layered_collective`` — a ~500-op layered matmul/add graph with an
  all-reduce across 4 GPUs, fed through placeholders. Passes find
  little to rewrite, and a pass that rewrote nothing is not re-verified,
  so this measures the verifier's fixed costs (pre-optimization graph
  check, plan verification).
* ``identity_heavy`` — the same graph with an Identity after every
  node: identity collapse rewrites a third of the ops, and every pass
  that rewrote something is followed by one ``verify_graph`` scan of the
  whole working set. The recorded worst case.
* ``session_amortized`` — a session running the same fetches
  repeatedly: after the first build the plan cache serves every run, so
  verification amortizes to ~zero. This is the number the example/bench
  suite actually experiences under ``REPRO_VERIFY_PLANS=1``.

Results land in ``benchmarks/results/BENCH_verifier.json`` via
``record_bench``; run with ``-s`` to see them.
"""

import gc
import time

import numpy as np

import repro as tf
from repro import analysis
from repro.core.ops import collective_ops
from repro.core.partition import build_plan
from repro.core.placement import Placer

LAYERS = 30
WIDTH = 8
GPUS = 4
REPEATS = 12
STEPS = 40


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


def _measure_session(steps: int = STEPS):
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


def _count_session_verifications(monkeypatch):
    """Verifier calls made by ``STEPS`` same-fetch runs of one session.

    Returns ``(calls after the first run, calls after the last run, plan
    cache hits)``; ``calls`` counts the three hook points — the
    pre-optimization graph check, the per-pass re-verification and the
    plan verification.
    """
    calls = {"pre_optimization": 0, "per_pass": 0, "plan": 0}
    verify_graph, verify_plan = analysis.verify_graph, analysis.verify_plan

    def counting_verify_graph(target, **kwargs):
        hook = "per_pass" if kwargs.get("opt_pass") else "pre_optimization"
        calls[hook] += 1
        return verify_graph(target, **kwargs)

    def counting_verify_plan(plan):
        calls["plan"] += 1
        return verify_plan(plan)

    monkeypatch.setattr(analysis, "verify_graph", counting_verify_graph)
    monkeypatch.setattr(analysis, "verify_plan", counting_verify_plan)
    g, feed_map, fetches = _layered_graph(identities=True)
    first, hits = None, 0
    with tf.Session(graph=g,
                    config=tf.SessionConfig(verify_plans=True)) as sess:
        for _ in range(STEPS):
            metadata = tf.RunMetadata()
            sess.run(fetches, feed_dict=feed_map, run_metadata=metadata)
            hits += metadata.plan_cache_hit
            if first is None:
                first = dict(calls)
    return first, calls, hits


def _overhead_pct(on: float, off: float) -> float:
    return 100.0 * (on - off) / off


def test_verification_cost_and_burn_in(record_bench, record_table,
                                       monkeypatch):
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
    table = "\n".join([
        "Static-verifier overhead (verify_plans=True vs False, "
        "min-of-N interleaved; advisory)",
        f"  layered_collective: build {off * 1e3:.2f} -> "
        f"{on * 1e3:.2f} ms ({pct:+.1f}%)",
        f"  identity_heavy:     build {off_heavy * 1e3:.2f} -> "
        f"{on_heavy * 1e3:.2f} ms ({pct_heavy:+.1f}%, rewrite-heavy "
        "worst case)",
        f"  session_amortized:  {sess_off:.3f} -> {sess_on:.3f} s "
        f"({pct_sess:+.1f}%, plan cache serves repeat runs)",
    ])
    record_table("bench_verifier.txt", table)
    print("\n" + table)

    # Burn-in: representative plans verify clean — no false positives.
    assert plan.verified and not plan.verifier_diagnostics
    assert plan_heavy.verified and not plan_heavy.verifier_diagnostics

    # Amortization, as a count: the first run builds and verifies the
    # plan at all three hook points; the other 39 are plan-cache hits
    # and call no verifier.
    first, total, hits = _count_session_verifications(monkeypatch)
    assert first["pre_optimization"] == 1 and first["plan"] == 1
    assert first["per_pass"] >= 1  # identity collapse rewrote the set
    assert total == first and hits == STEPS - 1

    # Pathology guard: verification never doubles a plan build.
    assert on <= 2.0 * off, (
        f"verified build {on * 1e3:.2f} ms is more than twice the "
        f"unverified {off * 1e3:.2f} ms"
    )
    assert on_heavy <= 2.0 * off_heavy, (
        f"rewrite-heavy verified build {on_heavy * 1e3:.2f} ms is more "
        f"than twice the unverified {off_heavy * 1e3:.2f} ms"
    )
