"""Adversarial tests for verify_plan: races, send/recv pairing, and
collective deadlocks, each seeded into a real lowered plan."""

import functools

import numpy as np
import pytest

import repro as tf
from repro.analysis import Severity, verify_plan
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
        # Same var_name on different tasks is different storage.
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(tf.constant([1.0]), name="v")
            a = tf.assign(v, tf.constant([2.0]), name="w1")
            b = tf.assign(v, tf.constant([3.0]), name="w2")
        plan = plan_for(g, fetch_ops=[a.op, b.op])
        for item in plan.items:
            if item.kind == "op" and item.op.name == "w2":
                item.device = "/job:worker/task:1/device:cpu:0"
        assert verify_plan(plan).ok

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
            optimize=True, verify=True,
        )
        assert plan.verified
        assert plan.verifier_diagnostics == []

    def test_build_plan_verify_keeps_warnings(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(tf.constant([1.0]), name="v")
            a = tf.assign_add(v, tf.constant([2.0]), name="w1")
            b = tf.assign_sub(v, tf.constant([3.0]), name="w2")
        plan = build_plan(
            g, [a.op, b.op], [], {}, make_placer(),
            client_device=CLIENT, devices=device_table(), verify=True,
        )
        assert plan.verified  # warnings do not fail the build
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
            client_device=CLIENT, devices=device_table(), verify=True,
        )
        records = [json.loads(line)
                   for line in report_file.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["errors"] == 0 and records[0]["items"] >= 1
