"""Adversarial tests for verify_plan: races, send/recv pairing, and
collective deadlocks, each seeded into a real lowered plan."""

import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest

import repro as tf
from repro import analysis
from repro.analysis import Report, Severity, verify_plan
from repro.core.ops import collective_ops
from repro.core.partition import build_plan
from repro.core.placement import Placer
from repro.errors import VerificationError

CLIENT = "/job:localhost/task:0/device:cpu:0"
GPUS = ["/job:localhost/task:0/device:gpu:0",
        "/job:localhost/task:0/device:gpu:1"]


def make_placer(gpus=2):
    return Placer(
        {("localhost", 0): {"cpu": 1, "gpu": gpus}},
        default_job="localhost",
        default_task=0,
    )


@functools.lru_cache(maxsize=None)
def device_table(gpus=2):
    """The device table a local session with ``gpus`` GPUs plans with."""
    session = tf.Session(graph=tf.Graph(),
                         config=tf.SessionConfig(num_gpus=gpus))
    session._task_runtimes()
    return session._devices


def plan_for(graph, fetch_tensors=(), fetch_ops=(), optimize=False, gpus=2):
    """The plan ``build_plan`` lowers, before its own plan check: the
    tests seed defects into it and drive ``verify_plan`` themselves,
    racy plans included."""
    with mock.patch.object(analysis, "verify_plan", lambda plan: Report()):
        return build_plan(
            graph,
            list(fetch_ops),
            list(fetch_tensors),
            {},
            make_placer(gpus),
            client_device=CLIENT,
            devices=device_table(gpus),
            optimize=optimize,
        )


def rules_of(report):
    return [d.rule for d in report]


def drop_item(plan, victim):
    """What a plan rewrite that forgot to rewire leaves behind: the item
    gone, the survivors renumbered to their positions."""
    plan.items.remove(victim)
    for uid, item in enumerate(plan.items):
        item.uid = uid


class TestCleanPlans:
    def test_cross_device_plan_clean(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant([1.0, 2.0], name="a")
            with g.device("/device:gpu:1"):
                b = tf.add(a, a, name="b")
            c = tf.multiply(b, b, name="c")
        report = verify_plan(plan_for(g, fetch_tensors=[c]))
        assert report.ok and len(report) == 0

    def test_optimized_collective_plan_clean(self):
        g = tf.Graph()
        with g.as_default():
            vals = []
            for rank, dev in enumerate(GPUS):
                with g.device(dev):
                    vals.append(tf.constant([float(rank)] * 4))
            reduced = collective_ops.all_reduce(vals, devices=GPUS)
        report = verify_plan(plan_for(g, fetch_tensors=list(reduced),
                                      optimize=True))
        assert report.ok


class TestVariableRaces:
    def _racy_plan(self, op_a=tf.assign, op_b=tf.assign):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(tf.constant([1.0]), name="v")
            a = op_a(v, tf.constant([2.0]), name="w1")
            b = op_b(v, tf.constant([3.0]), name="w2")
        return plan_for(g, fetch_ops=[a.op, b.op])

    def test_unordered_assign_pair_is_error(self):
        report = verify_plan(self._racy_plan())
        assert rules_of(report) == ["plan/variable-race"]
        diag = report.errors[0]
        assert diag.severity is Severity.ERROR
        assert "write-write" in diag.message
        assert "'v'" in diag.message
        assert diag.op == "w2" and diag.device is not None

    def test_accumulate_pair_downgrades_to_warning(self):
        report = verify_plan(
            self._racy_plan(op_a=tf.assign_add, op_b=tf.assign_sub)
        )
        assert rules_of(report) == ["plan/variable-race"]
        assert report.warnings and not report.errors
        assert "order-independent" in report.warnings[0].message

    def test_assign_vs_accumulate_is_error(self):
        report = verify_plan(
            self._racy_plan(op_a=tf.assign, op_b=tf.assign_add)
        )
        assert report.errors

    def test_unordered_read_write_is_error(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(tf.constant([1.0]), name="v")
            read = tf.identity(v.value(), name="read")
            w = tf.assign(v, tf.constant([2.0]), name="w")
        report = verify_plan(plan_for(g, fetch_tensors=[read],
                                      fetch_ops=[w.op]))
        assert "plan/variable-race" in rules_of(report)
        assert "read-write" in report.errors[0].message

    def test_control_ordered_writes_clean(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(tf.constant([1.0]), name="v")
            a = tf.assign(v, tf.constant([2.0]), name="w1")
            with g.control_dependencies([a.op]):
                b = tf.assign(v, tf.constant([3.0]), name="w2")
        report = verify_plan(plan_for(g, fetch_ops=[a.op, b.op]))
        assert report.ok

    def test_data_ordered_read_then_write_clean(self):
        # The SGD idiom: the write's input depends on the read, so the
        # pair is ordered by the data path.
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(tf.constant([1.0]), name="v")
            doubled = tf.multiply(v.value(), tf.constant([2.0]), name="d")
            w = tf.assign(v, doubled, name="w")
        report = verify_plan(plan_for(g, fetch_ops=[w.op]))
        assert report.ok

    def test_same_name_on_other_task_not_grouped(self):
        # Same var_name on different tasks is different storage. An item
        # runs on the task of its dispatch record, so moving w2 moves both.
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(tf.constant([1.0]), name="v")
            a = tf.assign(v, tf.constant([2.0]), name="w1")
            b = tf.assign(v, tf.constant([3.0]), name="w2")
        plan = plan_for(g, fetch_ops=[a.op, b.op])
        assert not verify_plan(plan).ok
        for item in plan.items:
            if item.kind == "op" and item.op.name == "w2":
                item.device = "/job:worker/task:1/device:cpu:0"
                item.entry = (*item.entry[:3], ("worker", 1))
        assert verify_plan(plan).ok

    def test_a_dangling_dep_neither_orders_nor_hides_a_race(self):
        # A stale copy of w1 in w2's ordering deps is reported, and the
        # race rule does not read it as the edge that orders the pair.
        plan = self._racy_plan()
        w1, w2 = (next(i for i in plan.items
                       if i.kind == "op" and i.op.name == name)
                  for name in ("w1", "w2"))
        w2.extra_deps.append(dataclasses.replace(w1))
        rules = rules_of(verify_plan(plan))
        assert "plan/dangling-item" in rules
        assert "plan/variable-race" in rules

    def test_writes_in_separate_runs_clean(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(tf.constant([1.0]), name="v")
            a = tf.assign(v, tf.constant([2.0]), name="w1")
            b = tf.assign(v, tf.constant([3.0]), name="w2")
        assert verify_plan(plan_for(g, fetch_ops=[a.op])).ok
        assert verify_plan(plan_for(g, fetch_ops=[b.op])).ok


class TestSendRecvPairing:
    def _transfer_plan(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant([1.0, 2.0], name="a")
            with g.device("/device:gpu:1"):
                b = tf.add(a, a, name="b")
        return plan_for(g, fetch_tensors=[b])

    def test_orphan_recv_detected(self):
        plan = self._transfer_plan()
        sends = [i for i in plan.items if i.kind == "send"]
        assert sends
        drop_item(plan, sends[0])
        report = verify_plan(plan)
        assert "plan/orphan-recv" in rules_of(report)
        orphan = next(d for d in report if d.rule == "plan/orphan-recv")
        assert orphan.severity is Severity.ERROR
        assert orphan.item is not None and orphan.device is not None

    def test_unpaired_send_is_warning(self):
        plan = self._transfer_plan()
        recv = next(i for i in plan.items if i.kind == "recv")
        # Orphan the recv's consumers too, so only the dead send remains.
        for item in plan.items:
            item.sources = [
                s for s in item.sources
                if not (s[0] is recv)
            ]
            item.extra_deps = [d for d in item.extra_deps if d is not recv]
        plan.fetch_sources = [
            s for s in plan.fetch_sources if s[0] is not recv
        ]
        drop_item(plan, recv)
        report = verify_plan(plan)
        assert "plan/unpaired-send" in rules_of(report)
        assert not report.errors  # dead traffic is a warning, not an error


class TestCollectives:
    def _two_collective_plan(self):
        g = tf.Graph()
        with g.as_default():
            vals = []
            for rank, dev in enumerate(GPUS):
                with g.device(dev):
                    vals.append(tf.constant([float(rank + 1)] * 4))
            first = collective_ops.all_reduce(vals, devices=GPUS, name="ar1")
            second = collective_ops.all_reduce(
                [tf.identity(t) for t in first], devices=GPUS, name="ar2")
        return plan_for(g, fetch_tensors=list(second))

    def test_rank_order_mismatch_detected(self):
        plan = self._two_collective_plan()
        legs1 = [i for i in plan.items
                 if i.kind == "collective" and i.op.name == "ar1"]
        legs2 = [i for i in plan.items
                 if i.kind == "collective" and i.op.name == "ar2"]
        # Force rank 0 to issue ar2 before ar1 while rank 1 keeps
        # ar1-then-ar2: the classic cross-rank ordering deadlock.
        legs1[0].extra_deps = list(legs1[0].extra_deps) + [legs2[0]]
        report = verify_plan(plan)
        assert "plan/collective-order" in rules_of(report)
        diag = next(d for d in report if d.rule == "plan/collective-order")
        assert diag.severity is Severity.ERROR
        assert "ar1" in diag.message and "ar2" in diag.message
        assert diag.rank is not None and diag.device is not None

    def test_missing_leg_detected(self):
        plan = self._two_collective_plan()
        leg = next(i for i in plan.items
                   if i.kind == "collective" and i.op.name == "ar2"
                   and i.collective_rank == 1)
        drop_item(plan, leg)
        report = verify_plan(plan)
        assert "plan/collective-world" in rules_of(report)
        diag = next(d for d in report if d.rule == "plan/collective-world")
        assert diag.op == "ar2" and diag.rank == 1
        assert "missing rank(s) [1]" in diag.message

    def test_duplicate_rank_detected(self):
        plan = self._two_collective_plan()
        legs = [i for i in plan.items
                if i.kind == "collective" and i.op.name == "ar1"]
        legs[1].collective_rank = 0
        report = verify_plan(plan)
        diag = next(d for d in report if d.rule == "plan/collective-world")
        assert "duplicate rank(s) [0]" in diag.message


class TestUidIndex:
    """``plan.items[i].uid == i``: a run indexes its value slots and
    dependency counters by uid."""

    def _plan(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant([1.0], name="a")
            with g.device("/device:gpu:1"):
                b = tf.add(a, a, name="b")
        return plan_for(g, fetch_tensors=[b])

    def test_built_plans_are_dense_with_and_without_coalescing(self):
        g = tf.Graph()
        with g.as_default():
            with g.device("/device:gpu:0"):
                one = tf.constant([1.0, 2.0], name="one")
            with g.device("/device:gpu:0"):
                same = tf.constant([1.0, 2.0], name="same")
            with g.device("/device:gpu:1"):
                out = tf.add(one, same, name="out")
        for optimize in (False, True):
            plan = plan_for(g, fetch_tensors=[out], optimize=optimize)
            assert [i.uid for i in plan.items] == list(range(len(plan.items)))
            assert len(plan.dep_counts) == len(plan.items)
            assert verify_plan(plan).ok

    def test_foreign_uid_is_a_verification_error_naming_the_item(self):
        plan = self._plan()
        victim = plan.items[-1]
        position, victim.uid = victim.uid, 999
        report = verify_plan(plan)
        assert rules_of(report) == ["plan/uid-index"]
        diag = report.errors[0]
        assert diag.item == 999 and diag.device == victim.device
        assert f"plan.items[{position}]" in diag.message
        with pytest.raises(VerificationError, match="#999"):
            report.raise_if_errors()

    def test_duplicate_uid_is_reported_not_a_shared_slot(self):
        plan = self._plan()
        plan.items[2].uid = plan.items[1].uid
        report = verify_plan(plan)
        assert rules_of(report) == ["plan/uid-index"]
        assert repr(plan.items[2]) in report.errors[0].message

    def test_unrenumbered_drop_is_reported_before_anything_else(self):
        plan = self._plan()
        plan.items.remove(next(i for i in plan.items if i.kind == "send"))
        assert set(rules_of(verify_plan(plan))) == {"plan/uid-index"}


class TestMembershipAndCycles:
    def test_dangling_source_detected(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant([1.0], name="a")
            b = tf.identity(a, name="b")
        plan = plan_for(g, fetch_tensors=[b])
        victim = next(i for i in plan.items
                      if i.kind == "op" and i.op.name == "a")
        drop_item(plan, victim)
        report = verify_plan(plan)
        assert "plan/dangling-item" in rules_of(report)

    def test_item_cycle_detected(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant([1.0], name="a")
            b = tf.identity(a, name="b")
        plan = plan_for(g, fetch_tensors=[b])
        items = {i.op.name: i for i in plan.items if i.kind == "op"}
        items["a"].extra_deps = list(items["a"].extra_deps) + [items["b"]]
        report = verify_plan(plan)
        assert "plan/cycle" in rules_of(report)

    def test_out_of_range_output_index_detected(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant([1.0], name="a")
            b = tf.identity(a, name="b")
        plan = plan_for(g, fetch_tensors=[b])
        items = {i.op.name: i for i in plan.items if i.kind == "op"}
        items["b"].sources = [(items["a"], 5)]
        report = verify_plan(plan)
        assert "plan/dangling-item" in rules_of(report)


class TestVerifiedPlanMetadata:
    def test_build_plan_verify_attaches_results(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant([1.0], name="a")
            b = tf.identity(a, name="b")
        plan = build_plan(
            g, [], [b], {}, make_placer(),
            client_device=CLIENT, devices=device_table(),
            optimize=True,
        )
        assert plan.verifier_diagnostics == []

    def test_build_plan_verify_keeps_warnings(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(tf.constant([1.0]), name="v")
            a = tf.assign_add(v, tf.constant([2.0]), name="w1")
            b = tf.assign_sub(v, tf.constant([3.0]), name="w2")
        plan = build_plan(
            g, [a.op, b.op], [], {}, make_placer(),
            client_device=CLIENT, devices=device_table(),
        )  # warnings do not fail the build
        assert [d.rule for d in plan.verifier_diagnostics] == [
            "plan/variable-race"
        ]
        assert plan.verifier_diagnostics[0].severity is Severity.WARNING

    def test_verify_report_env_appends_jsonl(self, tmp_path, monkeypatch):
        import json

        report_file = tmp_path / "plans.jsonl"
        monkeypatch.setenv("REPRO_VERIFY_REPORT", str(report_file))
        g = tf.Graph()
        with g.as_default():
            a = tf.constant([1.0], name="a")
        build_plan(
            g, [], [a], {}, make_placer(),
            client_device=CLIENT, devices=device_table(),
        )
        records = [json.loads(line)
                   for line in report_file.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["errors"] == 0 and records[0]["items"] >= 1


def forward_edges(plan):
    """Source, control and barrier edges that do not point at a lower uid.

    A collective's barrier sits just before its op's first leg: every
    leg's producers must precede that leg.
    """
    from repro.core.partition import FEED

    first_leg = {}
    for item in plan.items:
        if item.kind == "collective":
            first_leg.setdefault(item.op.name, item.uid)
    found = []
    for item in plan.items:
        producers = [p for p, _ in item.sources if p is not FEED]
        producers += item.extra_deps
        barrier = (first_leg[item.op.name] if item.kind == "collective"
                   else item.uid)
        found += [(p.uid, item.uid) for p in producers
                  if p.uid >= item.uid or p.uid >= barrier]
    return found


def _ordered_programs():
    import json
    from pathlib import Path

    from repro.fuzz.generator import GeneratorOptions

    corpus = Path(__file__).resolve().parents[2] / "corpus" / "seeds.json"
    for record in json.loads(corpus.read_text(encoding="utf-8")):
        yield record["seed"], GeneratorOptions(
            max_ops=record["ops"],
            collectives=record.get("collectives", True),
            gradients=record.get("gradients", True),
            max_world=record["max_world"],
        )
    for seed in range(301):
        yield seed, GeneratorOptions()


@functools.lru_cache(maxsize=None)
def _built_plans():
    """(seed, optimize, plan) for every plan the corpus programs and fuzz
    seeds 0..300 build, optimizer off and on."""
    from repro.fuzz.generator import generate

    built_plans = []
    for seed, options in _ordered_programs():
        program = generate(seed, options)
        for optimize in (False, True):
            g = tf.Graph()
            with g.as_default():
                built = program.materialize()
            config = tf.SessionConfig(num_gpus=program.gpus,
                                      graph_optimization=optimize)
            with np.errstate(all="ignore"), \
                    tf.Session(graph=g, config=config) as sess:
                sess.run(built.fetch_tensors, feed_dict=dict(built.feeds))
                built_plans += [(seed, optimize, plan)
                                for plan in sess._plan_cache.values()]
    return tuple(built_plans)


class TestDependencyOrder:
    """build_plan numbers every item after everything it reads, so
    verify_plan proves acyclicity by order and runs Kahn's algorithm only
    on a plan with a forward edge."""

    def test_built_plans_are_in_dependency_order(self):
        plans = 0
        for seed, optimize, plan in _built_plans():
            assert forward_edges(plan) == [], (seed, optimize)
            plans += 1
        assert plans >= 2 * 301

    @staticmethod
    def _reversed(plan):
        """The same plan numbered backwards: every edge points forward."""
        plan.items.reverse()
        for uid, item in enumerate(plan.items):
            item.uid = uid
        assert forward_edges(plan)
        return plan

    def _ordered_writes_plan(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(tf.constant([1.0]), name="v")
            a = tf.assign(v, tf.constant([2.0]), name="w1")
            with g.device("/device:gpu:1"), g.control_dependencies([a.op]):
                b = tf.assign(v, tf.constant([3.0]), name="w2")
        return plan_for(g, fetch_ops=[a.op, b.op])

    def test_forward_edges_without_a_cycle_verify_clean(self):
        plan = self._reversed(self._ordered_writes_plan())
        report = verify_plan(plan)
        assert report.ok and len(report) == 0
        collective = self._reversed(
            TestCollectives()._two_collective_plan()
        )
        assert verify_plan(collective).ok

    def test_races_are_still_found_out_of_order(self):
        plan = self._reversed(TestVariableRaces()._racy_plan())
        assert rules_of(verify_plan(plan)) == ["plan/variable-race"]

    def test_forward_edge_closing_a_cycle_is_named(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant([1.0], name="a")
            with g.device("/device:gpu:1"):
                b = tf.identity(a, name="b")
            c = tf.identity(b, name="c")
        plan = plan_for(g, fetch_tensors=[c])
        items = {i.op.name: i for i in plan.items if i.kind == "op"}
        items["a"].extra_deps = [items["c"]]
        report = verify_plan(plan)
        assert rules_of(report) == ["plan/cycle"]
        message = report.errors[0].message
        for name in ("a", "b", "c", "a:0"):
            assert f"({name})" in message

    def test_crossed_collectives_reach_the_fallback(self, monkeypatch):
        from repro.analysis import plan_verifier

        calls = []
        kahn = plan_verifier.unsorted_nodes
        monkeypatch.setattr(plan_verifier, "unsorted_nodes",
                            lambda preds: calls.append(1) or kahn(preds))
        plan = TestCollectives()._two_collective_plan()
        assert verify_plan(plan).ok and not calls
        legs1 = [i for i in plan.items
                 if i.kind == "collective" and i.op.name == "ar1"]
        legs2 = [i for i in plan.items
                 if i.kind == "collective" and i.op.name == "ar2"]
        legs1[0].extra_deps = list(legs1[0].extra_deps) + [legs2[0]]
        assert "plan/collective-order" in rules_of(verify_plan(plan))
        assert calls == [1]

    def test_ordered_plans_never_run_kahn(self, monkeypatch):
        from repro.analysis import plan_verifier

        def refuse(preds):
            raise AssertionError("Kahn's algorithm ran on an ordered plan")

        monkeypatch.setattr(plan_verifier, "unsorted_nodes", refuse)
        assert verify_plan(self._ordered_writes_plan()).ok
        assert verify_plan(TestCollectives()._two_collective_plan()).ok
        racy = verify_plan(TestVariableRaces()._racy_plan())
        assert rules_of(racy) == ["plan/variable-race"]
        for optimize in (False, True):
            g = tf.Graph()
            with g.as_default():
                vals = []
                for rank, dev in enumerate(GPUS):
                    with g.device(dev):
                        vals.append(tf.constant([float(rank)] * 4))
                reduced = collective_ops.all_reduce(vals, devices=GPUS)
                out = tf.add(reduced[0], reduced[1])
            plan = plan_for(g, fetch_tensors=[out], optimize=optimize)
            assert verify_plan(plan).ok


_ACCESSOR_TYPES = ("VariableV2", "Assign", "AssignAdd", "AssignSub")


def dfs_predecessors(plan, item):
    """Every item ``item`` waits on, by plain depth-first search over
    sources and ordering deps; a collective leg waits on its op's
    barrier, so on everything any leg of its op waits on."""
    from repro.core.partition import FEED

    legs = {}
    for other in plan.items:
        if other.kind == "collective":
            legs.setdefault(other.op.name, []).append(other)

    def direct(node):
        group = legs[node.op.name] if node.kind == "collective" else [node]
        for member in group:
            yield from (p for p, _ in member.sources if p is not FEED)
            yield from member.extra_deps

    seen = set()
    stack = [item]
    while stack:
        for producer in direct(stack.pop()):
            if id(producer) not in seen:
                seen.add(id(producer))
                stack.append(producer)
    return seen


def dfs_race_count(plan):
    """Unordered accessor pairs of one variable on one task, one of them
    writing: what ``plan/variable-race`` must report, by the oracle."""
    from repro.core.partition import _job_task_of

    groups = {}
    for item in plan.items:
        if item.kind == "op" and item.op.type in _ACCESSOR_TYPES:
            name = (item.op.name if item.op.type == "VariableV2"
                    else item.op.get_attr("var_name"))
            if name is not None:
                key = (name, _job_task_of(item.device))
                groups.setdefault(key, []).append(item)
    races = 0
    for accessors in groups.values():
        before = {a.uid: dfs_predecessors(plan, a) for a in accessors}
        for i, first in enumerate(accessors):
            for second in accessors[i + 1:]:
                if "VariableV2" == first.op.type == second.op.type:
                    continue
                if (id(first) not in before[second.uid]
                        and id(second) not in before[first.uid]):
                    races += 1
    return races


def assert_race_order_matches_dfs(plan):
    """The one-pass happens-before sets agree with the DFS oracle on
    every pair of accessors, and the race verdicts on every group;
    returns the number of pairs compared."""
    from repro.analysis import plan_verifier

    accessors = [i for i in plan.items
                 if i.kind == "op" and i.op.type in _ACCESSOR_TYPES]
    if len(accessors) < 2:
        return 0
    bit = {a.uid: 1 << index for index, a in enumerate(accessors)}
    legs_by_op = {}
    for item in plan.items:
        if item.kind == "collective":
            legs_by_op.setdefault(item.op.name, []).append(item)
    reach = plan_verifier._accessor_reach(
        plan, legs_by_op, bit, in_order=not forward_edges(plan))
    for second in accessors:
        before = dfs_predecessors(plan, second)
        for first in accessors:
            if first is not second:
                assert bool(reach[second.uid] & bit[first.uid]) == (
                    id(first) in before), (first, second)
    races = [d for d in verify_plan(plan) if d.rule == "plan/variable-race"]
    assert len(races) == dfs_race_count(plan)
    return len(accessors) * (len(accessors) - 1)


def renumbered_backwards(plan):
    """``plan`` numbered in reverse, every edge forward; undone on exit."""
    import contextlib

    @contextlib.contextmanager
    def reversed_numbering():
        plan.items.reverse()
        for uid, item in enumerate(plan.items):
            item.uid = uid
        try:
            yield plan
        finally:
            plan.items.reverse()
            for uid, item in enumerate(plan.items):
                item.uid = uid

    return reversed_numbering()


class TestRaceOrderOracle:
    """``plan/variable-race`` orders accessors in one forward pass over
    bitsets; a plain DFS written here is the oracle, on built plans in
    their own numbering and numbered backwards (the fixpoint path)."""

    def _check(self, plans):
        pairs = 0
        for plan in plans:
            pairs += assert_race_order_matches_dfs(plan)
            with renumbered_backwards(plan):
                assert_race_order_matches_dfs(plan)
        return pairs

    def test_fuzz_and_corpus_plans(self):
        assert self._check(plan for _, _, plan in _built_plans()) > 1000

    def test_app_plans(self, monkeypatch):
        import repro.core.session as session_module
        from repro.apps.cg import run_cg
        from repro.apps.matmul import run_matmul
        from repro.apps.sgd import run_sgd

        plans = []
        build = session_module.build_plan

        def recording(*args, **kwargs):
            plans.append(build(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(session_module, "build_plan", recording)
        run_sgd(steps=2, num_workers=4)
        sgd = len(plans)
        run_cg(system="tegner-k80", n=64, num_gpus=2, iterations=2)
        cg = len(plans)
        run_matmul(n=64, tile=32, num_gpus=2)
        assert 0 < sgd < cg < len(plans)
        assert self._check(plans[:sgd]) > 0
        self._check(plans)

    def test_races_are_counted_alike_on_a_racy_plan(self):
        plan = TestVariableRaces()._racy_plan()
        assert dfs_race_count(plan) == 1
        assert self._check([plan]) > 0
