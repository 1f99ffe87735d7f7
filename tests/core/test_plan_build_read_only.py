"""Plan building is read-only on the graph.

No optimizer pass and no lowering stage adds an op to the user's graph or
bumps its version, so the plan cache key of a ``Session.run`` is stable
from the first run on: the second identical run is a cache hit. (Until
PR 15 this held only while the gradient-bucket pass was off — it built
Concat/Slice/AllReduce ops into the graph at plan time.)
"""

import json
from pathlib import Path

import numpy as np
import pytest

import repro as tf
from repro.apps.common import build_cluster, task_device
from repro.apps.sgd import _build_step, make_regression_problem
from repro.core.metadata import RunMetadata
from repro.fuzz.generator import GeneratorOptions, generate

CORPUS = Path(__file__).resolve().parents[2] / "corpus" / "seeds.json"


def assert_plan_build_leaves_graph_alone(sess, graph, fetches, feed_dict=None):
    version, op_count = graph.version, len(graph.operations)
    first, second = RunMetadata(), RunMetadata()
    sess.run(fetches, feed_dict=feed_dict, run_metadata=first)
    sess.run(fetches, feed_dict=feed_dict, run_metadata=second)
    assert graph.version == version
    assert len(graph.operations) == op_count
    assert not first.plan_cache_hit
    assert second.plan_cache_hit


def test_sgd_step_with_ten_allreduces():
    workers, d, rows, blocks = 4, 64, 8, 8
    handle = build_cluster("tegner-k420", {"chief": 1, "worker": workers})
    devs = [task_device("worker", w, "cpu", 0) for w in range(workers)]
    data = make_regression_problem(d, rows, workers, seed=0)[:2]
    g = tf.Graph()
    with g.as_default():
        loss, updates, _, _ = _build_step(
            workers, d, rows, data, 0.005, "collective", devs,
            task_device("chief", 0, "cpu", 0), shape_only=False,
            blocks=blocks,
        )
    allreduces = [op for op in g.operations
                  if op.type == "CollectiveAllReduce"]
    assert len(allreduces) == blocks + 2  # weights + bias + loss partial
    with tf.Session(handle.server("chief", 0), graph=g) as sess:
        for v in g.get_collection(tf.GraphKeys.GLOBAL_VARIABLES):
            sess.run(v.initializer)
        assert_plan_build_leaves_graph_alone(sess, g, [loss, *updates])


def _corpus_programs():
    for record in json.loads(CORPUS.read_text(encoding="utf-8")):
        yield pytest.param(
            record["seed"],
            GeneratorOptions(
                max_ops=record["ops"],
                collectives=record.get("collectives", True),
                gradients=record.get("gradients", True),
                max_world=record["max_world"],
            ),
            id=f"corpus-{record['seed']}",
        )


@pytest.mark.parametrize(
    "seed, options",
    [*_corpus_programs(),
     *(pytest.param(seed, GeneratorOptions(), id=f"seed-{seed}")
       for seed in range(21))],
)
def test_fuzz_programs(seed, options):
    program = generate(seed, options)
    g = tf.Graph()
    with g.as_default():
        built = program.materialize()
    config = tf.SessionConfig(num_gpus=program.gpus)
    # Drawn programs legitimately hit sqrt(-x) and x/0.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"), \
            tf.Session(graph=g, config=config) as sess:
        assert_plan_build_leaves_graph_alone(
            sess, g, built.fetch_tensors, dict(built.feeds)
        )
