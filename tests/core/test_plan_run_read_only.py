"""Running a plan is read-only on the plan.

``test_plan_build_read_only.py`` pins that building a plan never writes
the graph; this file pins the next layer down: nothing writes an
``ExecutionPlan`` or one of its ``Item``s after ``build_plan`` returns.
Everything a run produces — values, dependency counters, the reference
executor's processes — lives in that run's ``ExecutionState``, which is
why any number of runs may share one cached plan. (Until PR 21 the
executor kept each run's processes and outputs on the plan's items.)
"""

import dataclasses

import numpy as np
import pytest

import repro as tf
from repro.core import session as session_module
from repro.core.graph import Operation
from repro.core.partition import ExecutionPlan, Item
from repro.errors import DeadlineExceededError


def _freeze(value):
    """A comparable deep copy; items by uid and ops by name, so the
    snapshot holds no reference into the plan it describes."""
    if isinstance(value, Item):
        return ("item", value.uid)
    if isinstance(value, Operation):
        return ("op", value.name)
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, *(_freeze(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", *sorted(repr(v) for v in value))
    if isinstance(value, dict):
        return ("dict", *((repr(k), _freeze(v)) for k, v in value.items()))
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def snapshot(plan):
    """Every field of the plan and of each of its items."""
    frozen = {
        f.name: _freeze(getattr(plan, f.name))
        for f in dataclasses.fields(ExecutionPlan) if f.name != "items"
    }
    frozen["items"] = [
        {f.name: _freeze(getattr(item, f.name))
         for f in dataclasses.fields(Item)}
        for item in plan.items
    ]
    return frozen


@pytest.fixture
def built_plans(monkeypatch):
    """``[(plan, snapshot at build_plan's return)]`` for every plan the
    sessions of this test build."""
    built = []
    build_plan = session_module.build_plan

    def recording_build_plan(*args, **kwargs):
        plan = build_plan(*args, **kwargs)
        built.append((plan, snapshot(plan)))
        return plan

    monkeypatch.setattr(session_module, "build_plan", recording_build_plan)
    return built


@pytest.mark.parametrize("fast", [True, False],
                         ids=["fast-path", "reference"])
def test_cold_warm_and_failed_runs_leave_the_plan_as_built(fast, built_plans):
    """One plan with every item kind — op, const, send, recv, collective,
    a blocking queue op — run cold, warm, and to a deadline failure."""
    gpus = ["/device:gpu:0", "/device:gpu:1"]
    g = tf.Graph()
    with g.as_default():
        q = tf.FIFOQueue(4, [tf.float32], shapes=[[2]], name="q")
        taken = q.dequeue(name="taken")
        value = tf.placeholder(tf.float32, [2], name="value")
        put = q.enqueue(value, name="put")
        with g.device(gpus[0]):
            a = tf.constant([1.0, 2.0], name="a")
            same = tf.constant([1.0, 2.0], name="same")  # coalesces into a
            left = tf.multiply(a, 2.0, name="left")
        with g.device(gpus[1]):
            right = tf.add(tf.add(a, same), taken, name="right")
        reduced = tf.all_reduce([left, right], devices=gpus)
    fetches = [right, *reduced]
    sess = tf.Session(graph=g, config=tf.SessionConfig(
        num_gpus=2, executor_fast_path=fast, operation_timeout_ms=50.0))

    def check_unchanged():
        for plan, as_built in built_plans:
            assert snapshot(plan) == as_built

    for scale in (1.0, 5.0):  # a cold run, then a warm one
        sess.run(put, feed_dict={value: [scale, scale]})
        out = sess.run(fetches)
        np.testing.assert_array_equal(out[0], [2.0 + scale, 4.0 + scale])
        np.testing.assert_array_equal(out[1], [4.0 + scale, 8.0 + scale])
        check_unchanged()
    with pytest.raises(DeadlineExceededError):
        sess.run(fetches)  # the queue is empty: the dequeue never returns
    check_unchanged()

    put_plan, fetch_plan = (plan for plan, _ in built_plans)
    assert {item.kind for item in fetch_plan.items} == {
        "op", "const", "send", "recv", "collective"
    }
    info = sess.plan_cache_info()
    assert (info["misses"], info["hits"]) == (2, 3)


def test_items_take_no_new_attributes():
    """``Item`` is a slots dataclass: there is nowhere on a plan to park
    run state, so a stray write is an error and not a shared field."""
    g = tf.Graph()
    with g.as_default():
        c = tf.add(tf.constant(1.0), tf.constant(2.0))
    with tf.Session(graph=g) as sess:
        sess.run(c)
        (plan,) = sess._plan_cache.values()
    item = plan.items[0]
    assert not hasattr(item, "__dict__")
    for name in ("out_values", "process", "anything"):
        with pytest.raises(AttributeError):
            setattr(item, name, None)
