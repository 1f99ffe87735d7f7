"""Edge cases: tile I/O ops, empty traces, and odd-but-legal graphs."""

import json

import numpy as np
import pytest

import repro as tf
from repro.core.metadata import RunMetadata
from repro.core.timeline import Timeline
from repro.errors import InvalidArgumentError, NotFoundError
from repro.simnet.events import Environment
from repro.simnet.machines import localhost


class TestTileIOOps:
    def _session(self):
        env = Environment()
        machine = localhost(env)
        return tf.Session(graph=tf.Graph(), machine=machine), machine

    def test_read_tile_by_index(self):
        sess, machine = self._session()
        machine.filesystem.store_array("t_0_1.npy",
                                       np.full((2, 2), 7.0, np.float32))
        with sess.graph.as_default():
            tile = tf.read_tile("t_{0}_{1}.npy", [0, 1], dtype=tf.float32,
                                shape=[2, 2])
        np.testing.assert_allclose(sess.run(tile), np.full((2, 2), 7.0))

    def test_read_missing_tile_raises(self):
        sess, machine = self._session()
        with sess.graph.as_default():
            tile = tf.read_tile("ghost_{0}.npy", [3], dtype=tf.float32,
                                shape=[2])
        with pytest.raises(NotFoundError):
            sess.run(tile)

    def test_write_then_read_roundtrip(self):
        sess, machine = self._session()
        data = np.arange(6, dtype=np.float64).reshape(2, 3)
        with sess.graph.as_default():
            write = tf.write_tile(tf.constant(data), "out_{0}.npy", [5])
            back = tf.read_tile("out_{0}.npy", [5], dtype=tf.float64,
                                shape=[2, 3])
        sess.run(write)
        np.testing.assert_allclose(sess.run(back), data)
        assert machine.filesystem.exists("out_5.npy")

    def test_bad_pattern_raises(self):
        sess, machine = self._session()
        machine.filesystem.store_array("x.npy", np.zeros(1))
        with sess.graph.as_default():
            tile = tf.read_tile("x_{0}_{1}.npy", [0], dtype=tf.float64,
                                shape=[1])
        with pytest.raises(InvalidArgumentError):
            sess.run(tile)

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "reference"])
    @pytest.mark.parametrize("declared, printed", [
        ((4, 4), r"\(4, 4\)"),  # the plan prices it: checked for equality
        ((None, 4), r"\(\?, 4\)"),  # unpriced: checked for compatibility
    ], ids=["static", "partial"])
    def test_a_tile_contradicting_its_declared_shape_is_rejected(
            self, fast, declared, printed):
        # A consumer of the tile is priced from the declared shape: the
        # file's (2, 2) must not flow on as if it were one.
        env = Environment()
        machine = localhost(env)
        machine.filesystem.store_array("small_0.npy",
                                       np.ones((2, 2), np.float32))
        sess = tf.Session(graph=tf.Graph(), machine=machine,
                          config=tf.SessionConfig(executor_fast_path=fast))
        with sess.graph.as_default():
            tile = tf.read_tile("small_{0}.npy", [0], dtype=tf.float32,
                                shape=declared, name="tile")
            total = tf.reduce_sum(tile * 2.0)
        with pytest.raises(InvalidArgumentError,
                           match=r"ReadTile delivered output 0 as float32 "
                                 r"\(2, 2\), incompatible with its declared "
                                 r"float32 " + printed + r" \[op: tile\]"):
            sess.run(total)

    def test_io_advances_simulated_clock(self):
        sess, machine = self._session()
        machine.filesystem.store_array(
            "big_0.npy", np.zeros(1024 * 1024, np.float64))
        with sess.graph.as_default():
            tile = tf.read_tile("big_{0}.npy", [0], dtype=tf.float64,
                                shape=[1024 * 1024])
        t0 = sess.env.now
        sess.run(tile)
        # 8 MB through the 2 GB/s localhost filesystem: milliseconds.
        assert sess.env.now - t0 > 1e-3


class TestTimelineEdges:
    def test_empty_metadata_renders(self):
        trace = Timeline(RunMetadata()).generate_chrome_trace_format()
        assert json.loads(trace) == {"traceEvents": []}

    def test_transfers_can_be_hidden(self):
        g = tf.Graph()
        with g.as_default():
            with g.device("/cpu:0"):
                a = tf.random_uniform([64, 64])
            with g.device("/gpu:0"):
                c = tf.matmul(a, a)
        sess = tf.Session(graph=g)
        meta = RunMetadata()
        sess.run(c, options=tf.RunOptions(trace_level=1), run_metadata=meta)
        with_x = json.loads(Timeline(meta).generate_chrome_trace_format(True))
        without = json.loads(Timeline(meta).generate_chrome_trace_format(False))
        assert len(without["traceEvents"]) < len(with_x["traceEvents"])


class TestOddGraphs:
    def test_diamond_dependency(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(2.0)
            left = a * tf.constant(3.0)
            right = a * tf.constant(5.0)
            out = left + right
        with tf.Session(graph=g) as sess:
            assert sess.run(out) == pytest.approx(16.0)

    def test_deep_chain(self):
        g = tf.Graph()
        with g.as_default():
            x = tf.constant(0.0)
            for _ in range(64):
                x = x + tf.constant(1.0)
        with tf.Session(graph=g) as sess:
            assert sess.run(x) == pytest.approx(64.0)

    def test_wide_fanout(self):
        g = tf.Graph()
        with g.as_default():
            base = tf.constant(1.0)
            total = tf.add_n([tf.multiply(base, tf.constant(float(i)))
                              for i in range(32)])
        with tf.Session(graph=g) as sess:
            assert sess.run(total) == pytest.approx(sum(range(32)))

    def test_scalar_broadcast_through_stack(self):
        g = tf.Graph()
        with g.as_default():
            rows = tf.stack([tf.fill([3], float(i)) for i in range(2)])
            doubled = rows * tf.constant(2.0)
        with tf.Session(graph=g) as sess:
            np.testing.assert_allclose(
                sess.run(doubled), [[0, 0, 0], [2, 2, 2]])
