"""Static verification of lowered execution plans.

:func:`verify_plan` analyzes the :class:`~repro.core.partition.ExecutionPlan`
that ``partition.build_plan`` produces — the artifact the executor actually
schedules — and proves three families of properties *before* anything runs:

* **Variable races.** Stateful items touching the same variable storage
  (same ``var_name`` on the same task's resource manager) must be totally
  ordered by a happens-before path over value, control and send/recv
  ordering edges. Unordered write-write or read-write pairs execute in
  simulator-schedule order, which is exactly the class of nondeterminism
  the graph abstraction promises not to have. Unordered pairs of pure
  accumulations (``AssignAdd``/``AssignSub``) demote to a warning: the
  final value is order-independent up to floating-point rounding.

* **Send/recv pairing.** Every recv's one source must be a send bound
  for the recv's device — an orphan recv has no value to read — and a
  send no recv reads is dead traffic.

* **Collective schedules.** Each collective op must lower to exactly one
  leg per rank with full world membership, and the happens-before
  relation must admit an order in which every rank can arrive at every
  collective: a dependency cycle through the group barriers (rank 0
  issues A before B while rank 1 issues B before A) is the classic MPI
  deadlock, surfaced here statically instead of as a 300-second
  join-deadline hang.

The analysis is pure reading: it never mutates plan items.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.analysis.diagnostics import Report, Severity, register_rule

__all__ = ["verify_plan"]

register_rule(
    "plan/uid-index", Severity.ERROR, "plan",
    "Item uids must be the items' positions: plan.items[i].uid == i",
)
register_rule(
    "plan/dangling-item", Severity.ERROR, "plan",
    "Item sources and ordering deps must reference live items of this plan",
)
register_rule(
    "plan/cycle", Severity.ERROR, "plan",
    "The item dependency relation (with collective barriers) must be acyclic",
)
register_rule(
    "plan/orphan-recv", Severity.ERROR, "plan",
    "Every recv's one source must be a send bound for the recv's device",
)
register_rule(
    "plan/unpaired-send", Severity.WARNING, "plan",
    "A send that no recv reads is dead traffic",
)
register_rule(
    "plan/variable-race", Severity.ERROR, "plan",
    "Accesses to one variable need happens-before ordering when any writes",
)
register_rule(
    "plan/collective-world", Severity.ERROR, "plan",
    "A collective must lower to one leg per rank covering the full world",
)
register_rule(
    "plan/collective-order", Severity.ERROR, "plan",
    "All ranks must issue their collectives in one consistent order",
)

_WRITER_OP_TYPES = frozenset({"Assign", "AssignAdd", "AssignSub"})
_ACCUMULATING_OP_TYPES = frozenset({"AssignAdd", "AssignSub"})


def verify_plan(plan: Any, context: str = "") -> Report:
    """Statically verify one lowered execution plan."""
    report = Report(context=context or "plan verification")
    if not _check_uid_index(plan, report):
        return report  # every later check addresses items by uid
    _check_send_recv(plan, report)
    legs_by_op = _check_collective_worlds(plan, report)
    adjacency, indegree = _check_membership(plan, legs_by_op, report)
    _check_cycles(plan, legs_by_op, adjacency, indegree, report)
    _check_variable_races(plan, adjacency, report)
    return report


# ---------------------------------------------------------------------------
# uid == index
# ---------------------------------------------------------------------------
#
# A run keeps one value slot and one dependency counter per item, indexed
# by uid: an item numbered past the end is an IndexError mid-run, and two
# items sharing a number silently share a slot.

def _check_uid_index(plan: Any, report: Report) -> bool:
    ok = True
    for index, item in enumerate(plan.items):
        if item.uid != index:
            ok = False
            report.emit(
                "plan/uid-index",
                f"{item!r} sits at plan.items[{index}] but is numbered "
                f"#{item.uid}: the executor would index its value slot and "
                f"dependency counter with the wrong number",
                item=item.uid,
                op=item.op.name if item.op is not None else None,
                device=item.device,
                hint="renumber after any rewrite that drops or adds items "
                     "(build_plan does, after transfer coalescing)",
            )
    return ok


def _is_live(plan: Any, item: Any) -> bool:
    """Whether ``item`` is this plan's item (not a dropped or foreign one)."""
    return 0 <= item.uid < len(plan.items) and plan.items[item.uid] is item


# ---------------------------------------------------------------------------
# membership + the dependency graph (one scan builds both)
# ---------------------------------------------------------------------------
#
# Dependency-graph nodes are item uids, plus one synthetic barrier node per
# collective op. The executor's group rendezvous means *no* leg completes
# before *every* leg has arrived — so each leg's dependencies feed the
# barrier, and each leg depends on the barrier. A cycle through two
# barriers is exactly "rank i issues A before B while rank j issues B
# before A". Membership checking walks the same source/extra_deps edges,
# so both structures come out of a single pass over the items: this runs
# on every verified plan build, and the scan count is the cost.

def _outputs_of(item: Any) -> int:
    if item.kind == "op":
        return len(item.op.outputs)
    if item.kind == "const":
        return len(item.const_values or ())
    return 1  # send, recv, collective: one output slot


def _check_membership(plan: Any, legs_by_op: dict,
                      report: Report) -> tuple[dict, dict]:
    from repro.core.partition import FEED

    barrier_of: dict[int, str] = {}
    adjacency: dict[object, list] = {item.uid: [] for item in plan.items}
    indegree: dict[object, int] = dict.fromkeys(adjacency, 0)
    for name, legs in legs_by_op.items():
        barrier = f"barrier:{name}"
        adjacency[barrier] = []
        indegree[barrier] = 0
        for leg in legs:
            barrier_of[leg.uid] = barrier

    def bad_ref(item: Any, producer: Any, out_idx: Optional[int]) -> bool:
        if not _is_live(plan, producer):
            report.emit(
                "plan/dangling-item",
                f"item #{item.uid} ({item.kind}) references item "
                f"#{producer.uid}, which this plan does not contain",
                item=item.uid,
                op=item.op.name if item.op is not None else None,
                device=item.device,
                hint="a plan-level rewrite dropped an item without "
                     "rewiring its consumers",
            )
            return True
        if out_idx is not None and out_idx >= _outputs_of(producer):
            report.emit(
                "plan/dangling-item",
                f"item #{item.uid} reads output {out_idx} of item "
                f"#{producer.uid} ({producer.kind}), which has "
                f"{_outputs_of(producer)} output(s)",
                item=item.uid,
                device=item.device,
            )
        return False  # producer is live: the ordering edge still holds

    for item in plan.items:
        uid = item.uid
        barrier = barrier_of.get(uid)
        if barrier is None:
            dst = uid
        else:
            dst = barrier
            adjacency[barrier].append(uid)
            indegree[uid] += 1
        for source in item.sources:
            producer = source[0]
            if producer is not FEED and not bad_ref(item, producer, source[1]):
                adjacency[producer.uid].append(dst)
                indegree[dst] += 1
        for dep in item.extra_deps:
            if not bad_ref(item, dep, None):
                adjacency[dep.uid].append(dst)
                indegree[dst] += 1

    for source in plan.fetch_sources:
        if source[0] is FEED:
            continue
        producer, out_idx = source
        if not _is_live(plan, producer):
            report.emit(
                "plan/dangling-item",
                f"a fetch reads item #{producer.uid}, which this plan does "
                f"not contain",
                item=producer.uid,
            )
        elif out_idx >= _outputs_of(producer):
            report.emit(
                "plan/dangling-item",
                f"a fetch reads output {out_idx} of item #{producer.uid} "
                f"({producer.kind}), which has {_outputs_of(producer)} "
                f"output(s)",
                item=producer.uid,
            )
    return adjacency, indegree


# ---------------------------------------------------------------------------
# send/recv pairing
# ---------------------------------------------------------------------------

def _check_send_recv(plan: Any, report: Report) -> None:
    read: set[int] = set()  # uids of the sends some recv reads
    for recv in plan.items:
        if recv.kind != "recv":
            continue
        send = recv.sources[0][0] if len(recv.sources) == 1 else None
        if (
            getattr(send, "kind", None) == "send"
            and _is_live(plan, send)
            and send.dst_device == recv.device
        ):
            read.add(send.uid)
            continue
        report.emit(
            "plan/orphan-recv",
            f"recv #{recv.uid} of {recv.tensor_name!r} on {recv.device} "
            f"has {len(recv.sources)} source(s) and none is a live send "
            f"bound for its device: it has no value to read",
            item=recv.uid,
            device=recv.device,
            hint="restore the matching send, or drop the recv with "
                 "its consumers",
        )
    for send in plan.items:
        if send.kind == "send" and send.uid not in read:
            report.emit(
                "plan/unpaired-send",
                f"send #{send.uid} of {send.tensor_name!r} from "
                f"{send.device} has no receiving item",
                item=send.uid,
                device=send.device,
            )


# ---------------------------------------------------------------------------
# collectives: world membership
# ---------------------------------------------------------------------------

def _check_collective_worlds(plan: Any, report: Report) -> dict[str, list]:
    legs_by_op: dict[str, list] = {}
    for item in plan.items:
        if item.kind == "collective":
            legs_by_op.setdefault(item.op.name, []).append(item)
    for name, legs in legs_by_op.items():
        world = legs[0].op.get_attr("world")
        ranks = sorted(leg.collective_rank for leg in legs)
        if ranks != list(range(world)):
            missing = sorted(set(range(world)) - set(ranks))
            dupes = sorted({r for r in ranks if ranks.count(r) > 1})
            detail = []
            if missing:
                detail.append(f"missing rank(s) {missing}")
            if dupes:
                detail.append(f"duplicate rank(s) {dupes}")
            report.emit(
                "plan/collective-world",
                f"collective {name!r} declares world={world} but lowers to "
                f"{len(legs)} leg(s) with ranks {ranks}: "
                f"{'; '.join(detail) or 'rank set mismatch'} — the group "
                f"rendezvous can never complete",
                op=name,
                item=legs[0].uid,
                rank=(missing[0] if missing else (dupes[0] if dupes else None)),
                device=legs[0].device,
                hint="every rank must contribute exactly one leg; check "
                     "the devices/world attrs and any plan rewrites",
            )
        algorithms = {leg.collective_algorithm for leg in legs}
        if len(algorithms) > 1:
            report.emit(
                "plan/collective-world",
                f"collective {name!r} legs disagree on the communication "
                f"schedule: {sorted(a or '?' for a in algorithms)}",
                op=name,
                item=legs[0].uid,
            )
    return legs_by_op


def _check_cycles(plan: Any, legs_by_op: dict, adjacency: dict,
                  indegree: dict, report: Report) -> None:
    remaining = dict(indegree)
    queue = [node for node, deg in remaining.items() if deg == 0]
    visited = 0
    while queue:
        node = queue.pop()
        visited += 1
        for consumer in adjacency.get(node, ()):
            remaining[consumer] -= 1
            if remaining[consumer] == 0:
                queue.append(consumer)
    if visited == len(remaining):
        return
    stuck = {node for node, deg in remaining.items() if deg > 0}
    stuck_barriers = sorted(
        node[len("barrier:"):] for node in stuck if isinstance(node, str)
    )
    if len(stuck_barriers) >= 2:
        involved = []
        for name in stuck_barriers:
            for leg in legs_by_op[name]:
                if leg.uid in stuck:
                    involved.append(
                        f"{name}[rank {leg.collective_rank} on {leg.device}]"
                    )
        first = next(
            leg for name in stuck_barriers for leg in legs_by_op[name]
            if leg.uid in stuck
        )
        report.emit(
            "plan/collective-order",
            f"collectives {', '.join(stuck_barriers)} deadlock: the "
            f"dependency relation forces different ranks to issue them in "
            f"different orders ({'; '.join(involved)})",
            op=first.op.name,
            item=first.uid,
            rank=first.collective_rank,
            device=first.device,
            hint="every rank must issue the same collectives in the same "
                 "order; reorder the per-rank dependencies",
        )
        return
    stuck_items = sorted(node for node in stuck if not isinstance(node, str))
    labels = []
    for uid in stuck_items[:8]:
        item = plan.items[uid]
        label = (item.op.name if item.op is not None
                 else (item.tensor_name or item.kind))
        labels.append(f"#{uid}({label})")
    first_item = plan.items[stuck_items[0]] if stuck_items else None
    report.emit(
        "plan/cycle",
        f"{len(stuck_items)} plan item(s) form a dependency cycle: "
        f"{', '.join(labels)}{'...' if len(stuck_items) > 8 else ''}",
        item=stuck_items[0] if stuck_items else None,
        op=(first_item.op.name
            if first_item is not None and first_item.op is not None else None),
        device=first_item.device if first_item is not None else None,
        hint="no schedule can start a cycle; break it with a rewire",
    )


# ---------------------------------------------------------------------------
# variable races
# ---------------------------------------------------------------------------

def _check_variable_races(plan: Any, adjacency: dict,
                          report: Report) -> None:
    from repro.core.partition import _job_task_of

    # (var name, task) -> accessor items; variables live in the resource
    # manager of the task owning the executing device, so same-named
    # accesses on different tasks touch different storage.
    groups: dict[tuple, list] = {}
    for item in plan.items:
        if item.kind != "op":
            continue
        op_type = item.op.type
        if op_type == "VariableV2":
            var_name = item.op.name
        elif op_type in _WRITER_OP_TYPES:
            var_name = item.op.get_attr("var_name")
            if var_name is None:
                continue
        else:
            continue
        try:
            task = _job_task_of(item.device)
        except Exception:
            task = item.device
        groups.setdefault((var_name, task), []).append(item)

    for (var_name, _task), accessors in groups.items():
        writers = [a for a in accessors if a.op.type in _WRITER_OP_TYPES]
        if not writers or len(accessors) < 2:
            continue
        ordered = _pairwise_order(adjacency, [a.uid for a in accessors])
        for i, first in enumerate(accessors):
            for second in accessors[i + 1:]:
                if first.op.type not in _WRITER_OP_TYPES and \
                        second.op.type not in _WRITER_OP_TYPES:
                    continue  # read-read pairs are always safe
                if (first.uid, second.uid) in ordered or \
                        (second.uid, first.uid) in ordered:
                    continue
                both_write = (
                    first.op.type in _WRITER_OP_TYPES
                    and second.op.type in _WRITER_OP_TYPES
                )
                commutative = (
                    first.op.type in _ACCUMULATING_OP_TYPES
                    and second.op.type in _ACCUMULATING_OP_TYPES
                )
                kind = "write-write" if both_write else "read-write"
                severity = Severity.WARNING if commutative else None
                note = (
                    " (both pure accumulations: final value is "
                    "order-independent up to rounding)" if commutative else ""
                )
                report.emit(
                    "plan/variable-race",
                    f"{kind} race on variable {var_name!r}: "
                    f"{first.op.type} {first.op.name!r} (item #{first.uid}) "
                    f"and {second.op.type} {second.op.name!r} (item "
                    f"#{second.uid}) on {first.device} have no "
                    f"happens-before path{note}",
                    op=second.op.name,
                    item=second.uid,
                    device=second.device,
                    severity=severity,
                    hint="order the accesses with a control dependency "
                         "(tf.control_dependencies) or split them across "
                         "separate session.run calls",
                )


def _pairwise_order(adjacency: dict, uids: list) -> set:
    """All (a, b) pairs where b is reachable from a, within ``uids``."""
    targets = set(uids)
    ordered: set = set()
    for start in uids:
        seen = {start}
        frontier = deque(adjacency.get(start, ()))
        while frontier:
            node = frontier.popleft()
            if node in seen:
                continue
            seen.add(node)
            if node in targets:
                ordered.add((start, node))
            frontier.extend(adjacency.get(node, ()))
    return ordered
