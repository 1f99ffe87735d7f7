"""Verification wired into the optimizer pipeline and the session.

The tentpole integration contract: a buggy optimizer pass is caught by
the re-verification that runs after *that* pass, and the resulting
VerificationError names it; sessions opt in through
SessionConfig.verify_plans or the REPRO_VERIFY_PLANS environment
variable; verified plans record their status in RunMetadata.
"""

import pytest

import repro as tf
from repro.core.metadata import PassStats
from repro.core.optimizer import run_pipeline
from repro.errors import VerificationError


def simple_graph():
    g = tf.Graph()
    with g.as_default():
        a = tf.constant([1.0, 2.0], name="a")
        b = tf.identity(a, name="b")
        c = tf.add(b, b, name="c")
    return g, c


def pipeline(g, fetches, verify=True, fetch_ops=()):
    return run_pipeline(
        g,
        g.operations,
        list(fetch_ops),
        list(fetches),
        {},
        verify=verify,
    )


def defect_graph():
    """One graph every planted working-set defect below is cut from.

    ``wide``, ``loose`` and ``ints`` are created *before* ``a`` so the
    planted substitutions onto them point backward in ``node_id`` order —
    nothing but the rule under test distinguishes them from a rewrite a
    real pass could make. ``b`` carries a control dependency on ``gate``;
    ``c`` is the fetched tensor and ``done`` the fetched operation.
    """
    g = tf.Graph()
    with g.as_default():
        tf.constant([1.0, 2.0, 3.0, 4.0], name="wide")  # float32 [4]
        tf.placeholder(tf.float32, [None], name="loose")  # float32 [None]
        tf.constant([1, 2, 3], name="ints")  # int32 [3]
        a = tf.constant([1.0, 2.0, 3.0], name="a")  # float32 [3]
        gate = tf.constant(0.0, name="gate")
        with g.control_dependencies([gate.op]):
            b = tf.negative(a, name="b")
        c = tf.negative(b, name="c")
        done = tf.constant(1.0, name="done")
    return g, c, done.op


def substitute(key, replacement):
    def edit(sg):
        sg.value_subs[key] = sg.graph.get_tensor_by_name(replacement)
    return edit


def drop(name):
    def edit(sg):
        sg.ops = [op for op in sg.ops if op.name != name]
    return edit


CSE, FOLD = "common_subexpression", "constant_folding"

# id -> (edit planted as CSE, edit planted as folding or None,
#        pass that must be blamed, rule, fragment of the message)
PLANTED_DEFECTS = {
    # Shape compatibility is not transitive: each link is fine on its
    # own ([3] ~ [None], [None] ~ [4]); the chain it closes is not.
    "chained-substitution": (
        substitute("a:0", "loose:0"), substitute("loose:0", "wide:0"),
        FOLD, "graph/substitution-type",
        "substituting 'wide:0' for 'a:0' changes shape (3) -> "
        "incompatible (4)",
    ),
    "substitution-cycle": (
        substitute("a:0", "loose:0"), substitute("loose:0", "a:0"),
        FOLD, "graph/substitution-cycle", "loops through",
    ),
    "dtype-changing-substitution": (
        substitute("a:0", "ints:0"), None,
        CSE, "graph/substitution-type", "changes dtype float32 -> int32",
    ),
    "dropped-control-dep": (
        drop("gate"), None,
        CSE, "graph/dangling-ref",
        "control dep 'gate' of surviving op 'b' was dropped",
    ),
    "dropped-fetched-tensor": (
        drop("c"), None,
        CSE, "graph/fetch-dropped", "fetched tensor 'c:0'",
    ),
    "dropped-fetched-op": (
        drop("done"), None,
        CSE, "graph/fetch-dropped", "fetched operation 'done' was dropped",
    ),
    # a:0 -> c:0 points forward in node_id order: b reads a:0, c reads b.
    "forward-substitution-closes-cycle": (
        substitute("a:0", "c:0"), None,
        CSE, "graph/cycle", "created a cycle through b, c",
    ),
}


class TestPerPassVerification:
    def test_clean_pipeline_marks_every_pass_verified(self):
        g, c = simple_graph()
        result = pipeline(g, [c])
        assert result.stats  # at least one pass ran
        for stats in result.stats:
            assert stats.detail.get("verified") is True

    def test_buggy_pass_caught_and_attributed(self, monkeypatch):
        from repro.core.optimizer import cse

        def bad_merge(sg):
            # Drops an op that still has consumers — the defect class a
            # wrong CSE canonicalization produces. ("a" is the canonical
            # producer every surviving edge resolves to by this point.)
            victim = next(op for op in sg.ops if op.name == "a")
            sg.ops = [op for op in sg.ops if op is not victim]
            return PassStats(
                name="common_subexpression",
                nodes_before=len(sg.ops) + 1,
                nodes_after=len(sg.ops),
            )

        monkeypatch.setattr(cse, "merge_common_subexpressions", bad_merge)
        g, c = simple_graph()
        with pytest.raises(VerificationError) as excinfo:
            pipeline(g, [c])
        err = excinfo.value
        assert "common_subexpression" in str(err)
        assert any(d.rule == "graph/dangling-ref" for d in err.diagnostics)
        assert all(
            d.opt_pass == "common_subexpression" for d in err.diagnostics
        )

    def test_buggy_type_changing_fold_caught(self, monkeypatch):
        import numpy as np

        from repro.core.optimizer import constant_folding

        def bad_fold(sg):
            root = next(op for op in sg.ops if op.name == "c")
            # Wrong shape: folding must preserve the recorded specs.
            sg.folded[root.name] = [np.zeros((9, 9), np.float32)]
            return PassStats(name="constant_folding")

        monkeypatch.setattr(constant_folding, "fold_constants", bad_fold)
        g, c = simple_graph()
        with pytest.raises(VerificationError) as excinfo:
            pipeline(g, [c])
        assert any(
            d.rule == "graph/folded-spec" for d in excinfo.value.diagnostics
        )

    @pytest.mark.parametrize("case", sorted(PLANTED_DEFECTS))
    def test_working_set_rule_fires_through_the_hook(self, monkeypatch, case):
        from repro.core.optimizer import constant_folding, cse, dead_code

        cse_edit, fold_edit, blamed, rule, fragment = PLANTED_DEFECTS[case]
        later_passes = []

        def planted(name, edit):
            def bad_pass(sg):
                if edit is not None:
                    edit(sg)
                return PassStats(name=name)
            return bad_pass

        def tripwire(sg):
            later_passes.append("dependency_pruning")
            return PassStats(name="dependency_pruning")

        monkeypatch.setattr(
            cse, "merge_common_subexpressions", planted(CSE, cse_edit)
        )
        monkeypatch.setattr(
            constant_folding, "fold_constants", planted(FOLD, fold_edit)
        )
        monkeypatch.setattr(
            dead_code, "prune_redundant_control_deps", tripwire
        )
        g, c, done = defect_graph()
        with pytest.raises(VerificationError) as excinfo:
            pipeline(g, [c], fetch_ops=[done])
        err = excinfo.value
        assert [(d.rule, d.opt_pass) for d in err.diagnostics] == [
            (rule, blamed)
        ]
        assert fragment in err.diagnostics[0].message
        assert blamed in str(err)
        # The pipeline stops at the pass that broke the working set: a
        # later pass calling ``sg.resolve`` on a substitution cycle would
        # never return.
        assert later_passes == []

    def test_verify_off_lets_buggy_pass_through(self, monkeypatch):
        from repro.core.optimizer import cse

        def bad_merge(sg):
            sg.ops = [op for op in sg.ops if op.name != "b"]
            return PassStats(name="common_subexpression")

        monkeypatch.setattr(cse, "merge_common_subexpressions", bad_merge)
        g, c = simple_graph()
        result = pipeline(g, [c], verify=False)  # no verification: no raise
        assert all("verified" not in s.detail for s in result.stats)


class TestSessionIntegration:
    def test_racy_graph_rejected_before_execution(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(tf.constant([1.0]), name="v")
            a = tf.assign(v, tf.constant([2.0]), name="w1")
            b = tf.assign(v, tf.constant([3.0]), name="w2")
        config = tf.SessionConfig(verify_plans=True)
        with tf.Session(graph=g, config=config) as sess:
            sess.run(v.initializer)
            with pytest.raises(VerificationError) as excinfo:
                sess.run([a, b])
        assert excinfo.value.diagnostics[0].rule == "plan/variable-race"

    def test_verified_run_records_metadata(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant([1.0, 2.0], name="a")
            c = tf.add(a, a, name="c")
        config = tf.SessionConfig(verify_plans=True)
        with tf.Session(graph=g, config=config) as sess:
            md = tf.RunMetadata()
            out = sess.run(c, run_metadata=md)
        assert list(out) == [2.0, 4.0]
        assert md.plan_verified and md.verifier_warnings == 0

    def test_unverified_run_records_metadata(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_PLANS", raising=False)
        g = tf.Graph()
        with g.as_default():
            c = tf.constant([1.0], name="c")
        with tf.Session(graph=g) as sess:
            md = tf.RunMetadata()
            sess.run(c, run_metadata=md)
        assert md.plan_verified is False

    def test_rejected_plan_never_cached(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(tf.constant([1.0]), name="v")
            a = tf.assign(v, tf.constant([2.0]), name="w1")
            b = tf.assign(v, tf.constant([3.0]), name="w2")
        config = tf.SessionConfig(verify_plans=True)
        with tf.Session(graph=g, config=config) as sess:
            for _ in range(2):
                with pytest.raises(VerificationError):
                    sess.run([a, b])
            info = sess.plan_cache_info()
            assert info["hits"] == 0  # the bad plan never entered the cache

    def test_results_identical_with_and_without_verification(self):
        import numpy as np

        def build():
            g = tf.Graph()
            with g.as_default():
                x = tf.constant(np.arange(12, dtype=np.float32).reshape(3, 4))
                y = tf.matmul(x, tf.transpose(x))
                z = tf.reduce_sum(y, axis=1)
            return g, z

        outs = []
        for verify in (False, True):
            g, z = build()
            config = tf.SessionConfig(verify_plans=verify)
            with tf.Session(graph=g, config=config) as sess:
                outs.append(sess.run(z))
        assert outs[0].tobytes() == outs[1].tobytes()


class TestEnvironmentFlag:
    def test_env_flag_enables_verification(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        assert tf.SessionConfig().verify_plans is True

    def test_env_flag_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "0")
        assert tf.SessionConfig().verify_plans is False

    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_PLANS", raising=False)
        assert tf.SessionConfig().verify_plans is False

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_PLANS", raising=False)
        assert tf.SessionConfig(verify_plans=True).verify_plans is True
