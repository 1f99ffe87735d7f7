"""Checkpointing and timeline tooling."""

import json

import numpy as np
import pytest

import repro as tf
from repro.core.checkpoint import Saver, latest_checkpoint, read_checkpoint
from repro.core.metadata import RunMetadata, RunOptions
from repro.core.timeline import Timeline
from repro.errors import NotFoundError


class TestSaver:
    def test_save_restore_roundtrip(self, tmp_path):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(np.array([1.0, 2.0, 3.0]), name="state")
            w = tf.Variable(np.float64(7.0), name="scalar")
            bump = tf.assign_add(v, tf.constant(np.ones(3)))
            saver = Saver(graph=g)
        with tf.Session(graph=g) as sess:
            sess.run(tf.global_variables_initializer(graph=g))
            sess.run(bump.op)
            path = saver.save(sess, str(tmp_path / "ckpt"), global_step=10)
            sess.run(bump.op)  # diverge
            np.testing.assert_allclose(sess.run(v), [3.0, 4.0, 5.0])
            saver.restore(sess, path)
            np.testing.assert_allclose(sess.run(v), [2.0, 3.0, 4.0])
            assert sess.run(w) == pytest.approx(7.0)

    def test_restart_into_fresh_session(self, tmp_path):
        """Checkpoint-restart: a brand-new session resumes from disk."""
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(np.zeros(4), name="x")
            step = tf.assign_add(v, tf.constant(np.ones(4)))
            saver = Saver(graph=g)
        with tf.Session(graph=g) as sess:
            sess.run(v.initializer)
            for _ in range(5):
                sess.run(step.op)
            path = saver.save(sess, str(tmp_path / "ckpt"))
        # New session = new simulated machine = fresh (empty) state.
        with tf.Session(graph=g) as fresh:
            saver.restore(fresh, path)
            np.testing.assert_allclose(fresh.run(v), np.full(4, 5.0))

    def test_missing_variable_in_checkpoint(self, tmp_path):
        g1 = tf.Graph()
        with g1.as_default():
            tf.Variable(1.0, name="only")
            saver1 = Saver(graph=g1)
        with tf.Session(graph=g1) as sess:
            sess.run(tf.global_variables_initializer(graph=g1))
            path = saver1.save(sess, str(tmp_path / "ckpt"))
        g2 = tf.Graph()
        with g2.as_default():
            tf.Variable(1.0, name="other")
            saver2 = Saver(graph=g2)
        with tf.Session(graph=g2) as sess:
            with pytest.raises(NotFoundError):
                saver2.restore(sess, path)

    def test_read_checkpoint_contents(self, tmp_path):
        g = tf.Graph()
        with g.as_default():
            tf.Variable(np.array([9.0]), name="v")
            saver = Saver(graph=g)
        with tf.Session(graph=g) as sess:
            sess.run(tf.global_variables_initializer(graph=g))
            path = saver.save(sess, str(tmp_path / "ckpt"))
        contents = read_checkpoint(path)
        np.testing.assert_allclose(contents["v"], [9.0])

    def test_latest_checkpoint(self, tmp_path):
        g = tf.Graph()
        with g.as_default():
            tf.Variable(1.0, name="v")
            saver = Saver(graph=g)
        with tf.Session(graph=g) as sess:
            sess.run(tf.global_variables_initializer(graph=g))
            saver.save(sess, str(tmp_path / "ckpt"), global_step=1)
            best = saver.save(sess, str(tmp_path / "ckpt"), global_step=12)
        assert latest_checkpoint(str(tmp_path)) == best
        assert latest_checkpoint(str(tmp_path / "nowhere")) is None

    def test_missing_file(self):
        g = tf.Graph()
        with g.as_default():
            tf.Variable(1.0, name="v")
            saver = Saver(graph=g)
        with tf.Session(graph=g) as sess:
            with pytest.raises(NotFoundError):
                saver.restore(sess, "/nonexistent/ckpt")


class TestTimeline:
    def _traced_metadata(self):
        g = tf.Graph()
        with g.as_default():
            with g.device("/cpu:0"):
                a = tf.random_uniform([128, 128])
            with g.device("/gpu:0"):
                c = tf.matmul(a, a)
        sess = tf.Session(graph=g)
        meta = RunMetadata()
        sess.run(c, options=RunOptions(trace_level=RunOptions.FULL_TRACE),
                 run_metadata=meta)
        return meta

    def test_chrome_trace_is_valid_json(self):
        trace = Timeline(self._traced_metadata()).generate_chrome_trace_format()
        doc = json.loads(trace)
        events = doc["traceEvents"]
        assert any(e.get("cat") == "MatMul" for e in events)
        assert any(e.get("cat") == "transfer" for e in events)
        complete = [e for e in events if e.get("ph") == "X"]
        assert all(e["dur"] > 0 for e in complete)

    def test_device_summary(self):
        summary = Timeline(self._traced_metadata()).device_summary()
        assert any("gpu" in device for device in summary)
        assert all(busy >= 0 for busy in summary.values())

    def test_save_to_file(self, tmp_path):
        path = tmp_path / "trace.json"
        Timeline(self._traced_metadata()).save(str(path))
        assert json.loads(path.read_text())["traceEvents"]
