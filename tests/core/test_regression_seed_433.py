"""Regression for fuzz seed 433 (campaign at --ops 24 --max-world 8).

Three chained allreduces, the third transitively depending on the first
through plain math fed by the second. Found as a hang in the
gradient-bucket pass PR 15 removed (it bucketed the third with the
first, so the merged op consumed a slice of itself); kept as the
chained-collectives-with-math-between program: the fuzz seed must replay
clean and the hand-built graph must equal a NumPy sum byte for byte.
"""

import numpy as np
import pytest

import repro as tf


def _chained_allreduce_graph(world):
    devices = tuple(f"/device:gpu:{r}" for r in range(world))
    values = [
        np.asarray([1.0 + r, 2.0, 3.0 - r], dtype=np.float32)
        for r in range(world)
    ]
    first = tf.all_reduce(
        [tf.constant(v) for v in values], devices=devices, algorithm="ring"
    )
    # Plain math between the collectives.
    sums = [tf.reduce_sum(t, keepdims=True) for t in first]
    second = tf.all_reduce(sums, devices=devices, algorithm="ring")
    third = tf.all_reduce(
        [tf.reduce_sum(t, keepdims=True) for t in second],
        devices=devices, algorithm="ring",
    )
    return first + second + third, values


def test_chained_allreduces_match_numpy_sum():
    world = 3
    g = tf.Graph()
    with g.as_default():
        fetches, values = _chained_allreduce_graph(world)
    with tf.Session(graph=g, config=tf.SessionConfig(num_gpus=world)) as sess:
        got = sess.run(fetches)
    # Allreduce sums in rank order starting from zeros.
    first = np.zeros(3, dtype=np.float32)
    for value in values:
        first = first + value
    second = np.sum(first, keepdims=True) * np.float32(world)
    third = np.sum(second, keepdims=True) * np.float32(world)
    want = [first] * world + [second] * world + [third] * world
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.asarray(a).dtype == b.dtype
        assert np.asarray(a).tobytes() == b.tobytes()


def test_fuzz_seed_433_runs_clean():
    pytest.importorskip("repro.fuzz")
    from repro.fuzz.generator import GeneratorOptions, generate
    from repro.fuzz.harness import run_program

    program = generate(433, GeneratorOptions(max_ops=24, max_world=8))
    report = run_program(program)
    assert report.ok, [d.describe() for d in report.divergences]
