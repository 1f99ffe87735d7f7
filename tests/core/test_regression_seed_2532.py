"""Regression for fuzz seed 2532 (campaign at --ops 24 --max-world 8).

Seed 2532's optimized plan ended at 0.0003000011933333334 on the
dispatcher and at 0.0003000016933333334 on the reference executor
(``executor_fast_path=False``): two ops became ready on ``gpu:0`` at the
same instant — one behind a ``recv``, one behind a collective leg whose
schedule ended with a message of the same size between the same two
devices — and the two lanes granted the device in opposite orders.

Root cause: the reference executor's recv waited on an event from the
per-run rendezvous table that had already succeeded (a recv is never
started before its send completed) but still resumed the process one
calendar hop later; the dispatcher read the table synchronously and
paid no hop. The recv's consumer therefore queued
behind the collective's consumer in one lane and ahead of it in the
other. Gone with the per-run rendezvous table: in both lanes a recv now
reads its send's output slot synchronously. Which of two same-instant
requesters *should* win is still unspecified (ROADMAP item 3); what is
pinned here is that the lanes agree.

The shrunk repro below keeps the tie: ``mean`` reads rank 1's gathered
value through a 32-byte gpu:1 -> gpu:0 transfer that starts when the
gather ends — the instant the broadcast starts its one 32-byte step the
other way — so ``mean`` and ``ge`` request ``gpu:0`` together; their
costs and fetch sizes differ, so the grant order shows in the end time.
"""

import numpy as np
import pytest

import repro as tf
from repro.core.metadata import RunMetadata


def _run(fast_path):
    g = tf.Graph()
    with g.as_default():
        x = tf.placeholder(tf.float64, (2,), name="x")
        devices = ["/device:gpu:0", "/device:gpu:1"]
        gathered = tf.all_gather(
            [tf.sigmoid(x), tf.sqrt(x)], devices=devices, algorithm="ring"
        )
        bcast = tf.broadcast(gathered[0], devices=devices, algorithm="ring")
        ge = tf.greater_equal(bcast[0], gathered[0], name="ge")
        mean = tf.reduce_mean(gathered[1], axis=[0], name="mean")
    metadata = RunMetadata()
    config = tf.SessionConfig(num_gpus=2, executor_fast_path=fast_path)
    with tf.Session(graph=g, config=config) as sess:
        sess.run([mean, ge], feed_dict={x: np.array([0.5, 1.842])},
                 options=tf.RunOptions(trace_level=1), run_metadata=metadata)
        spans = {s.op_name: (s.start, s.end) for s in metadata.step_stats}
        return sess.env.now, spans


def test_recv_consumer_and_collective_consumer_tie_alike_in_both_lanes():
    fast_now, fast_spans = _run(fast_path=True)
    ref_now, ref_spans = _run(fast_path=False)
    for spans in (fast_spans, ref_spans):
        # Still a tie: both consumers ask for gpu:0 at the same instant.
        assert spans["mean"][0] == spans["ge"][0]
    assert ref_spans == fast_spans
    assert ref_now.hex() == fast_now.hex()


def test_fuzz_seed_2532_runs_clean():
    pytest.importorskip("repro.fuzz")
    from repro.fuzz.generator import GeneratorOptions, generate
    from repro.fuzz.harness import run_program

    program = generate(2532, GeneratorOptions(max_ops=24, max_world=8))
    report = run_program(program)
    assert report.ok, [d.describe() for d in report.divergences]
