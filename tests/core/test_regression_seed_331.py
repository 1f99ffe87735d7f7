"""Regression for fuzz seed 331 (campaign at --ops 24 --max-world 8).

With the lane-equality tolerance set to zero, seed 331's optimized plan
ended at 0.0003600052899999999 on the dispatcher and at
0.00036000428999999996 on the reference executor
(``executor_fast_path=False``): ``AddN`` and ``fuzz_var_29/Assign``,
both queued on ``gpu:0`` at t = 0.00024 behind ``Maximum``, were granted
the device in opposite orders.

Root cause: the reference executor took a *free* device slot through
``Resource.request()`` + ``yield``, which grants at once but resumes the
process one URGENT calendar event later, whereas a const item completes
inside its own start event. ``Squeeze`` (a zero-duration op, planned
first) therefore finished after ``Split`` (constant-folded, planned
third), and Squeeze's consumer queued behind Split's. The dispatcher
claims a free slot synchronously and keeps plan order. Unoptimized plans
agreed because there every producer is an op item and pays the same hop.
Fixed in ``executor._run_op``: a free slot is claimed with
``try_acquire()``, no hop.

The shrunk repro below has the same shape — an inline op and a const
item planned after it, each feeding one timed op, all behind a third op
that holds the device — with unequal payloads, so the swapped grant moves
the end of the run by microseconds instead of a nanosecond.
"""

import numpy as np

import repro as tf
from repro.core.metadata import RunMetadata


def _run(fast_path):
    g = tf.Graph()
    with g.as_default():
        x = tf.placeholder(tf.float32, (4, 1), name="x")
        y = tf.placeholder(tf.float32, (4096,), name="y")
        after_inline_op = tf.exp(tf.squeeze(x), name="after_inline_op")
        k = tf.constant(np.ones(4096, np.float32))
        holds_device = tf.multiply(y, y, name="holds_device")
        after_const = tf.add(k, y, name="after_const")
    feed = {x: np.ones((4, 1), np.float32), y: np.ones(4096, np.float32)}
    metadata = RunMetadata()
    config = tf.SessionConfig(executor_fast_path=fast_path)
    with tf.Session(graph=g, config=config) as sess:
        sess.run([after_inline_op, after_const, holds_device],
                 feed_dict=feed, options=tf.RunOptions(trace_level=1),
                 run_metadata=metadata)
        spans = {s.op_name: (s.start, s.end) for s in metadata.step_stats}
        return sess.env.now, spans


def test_same_instant_device_grants_follow_plan_order_in_both_lanes():
    fast_now, fast_spans = _run(fast_path=True)
    ref_now, ref_spans = _run(fast_path=False)
    for spans in (fast_spans, ref_spans):
        assert (spans["holds_device"][1] < spans["after_inline_op"][1]
                < spans["after_const"][1])
    assert ref_spans == fast_spans
    assert ref_now == fast_now
