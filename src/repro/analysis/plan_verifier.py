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

from collections import defaultdict
from typing import Any, Optional

from repro.analysis.diagnostics import (
    Report,
    Severity,
    register_rule,
    unsorted_nodes,
)

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
    by_kind = _index_items(plan, report)
    if by_kind is None:
        return report  # every later check addresses items by uid
    _check_send_recv(plan, by_kind, report)
    legs_by_op = _check_collective_worlds(by_kind, report)
    in_order = _check_membership(plan, legs_by_op, report)
    if not in_order:
        _check_cycles(plan, legs_by_op, report)
    _check_variable_races(plan, by_kind, legs_by_op, in_order, report)
    return report


# ---------------------------------------------------------------------------
# uid == index
# ---------------------------------------------------------------------------
#
# A run keeps one value slot and one dependency counter per item, indexed
# by uid: an item numbered past the end is an IndexError mid-run, and two
# items sharing a number silently share a slot. The same scan groups the
# items by kind, so each later rule walks only the items it is about.

def _index_items(plan: Any, report: Report) -> Optional[dict[str, list]]:
    """Items by kind, in uid order; ``None`` when an item is misnumbered."""
    ok = True
    by_kind: dict[str, list] = defaultdict(list)
    for index, item in enumerate(plan.items):
        by_kind[item.kind].append(item)
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
                hint="number each item once, by its position, as "
                     "build_plan's new_item does",
            )
    return by_kind if ok else None


def _is_live(plan: Any, item: Any) -> bool:
    """Whether ``item`` is this plan's item (not a dropped or foreign one)."""
    return 0 <= item.uid < len(plan.items) and plan.items[item.uid] is item


# ---------------------------------------------------------------------------
# membership + the order proof (one scan)
# ---------------------------------------------------------------------------
#
# The executor's group rendezvous means *no* leg of a collective completes
# before *every* leg has arrived: each op has one barrier that every leg's
# dependencies feed and every leg waits on. A cycle through two barriers
# is exactly "rank i issues A before B while rank j issues B before A".
#
# Acyclicity is proved by order: ``build_plan`` numbers an item after
# everything it reads, and routes every leg's inputs before it numbers a
# leg. Place each barrier just before its op's first leg; when every
# source and ordering edge then points at a lower position, uid order is
# a topological order and no cycle exists. The membership check walks
# the same edges, so both come out of one scan over the items: this runs
# on every verified plan build, and the scan count is the cost. Only a
# plan with a forward edge pays for Kahn's algorithm (``_check_cycles``),
# which names the cycle or the deadlocked collectives.

def _outputs_of(item: Any) -> int:
    if item.kind == "op":
        return len(item.op.outputs)
    if item.kind == "const":
        return len(item.const_values or ())
    return 1  # send, recv, collective: one output slot


def _check_membership(plan: Any, legs_by_op: dict, report: Report) -> bool:
    """Report dangling references; True when every edge points backward."""
    from repro.core.partition import FEED

    items = plan.items
    count = len(items)
    outputs = [_outputs_of(item) for item in items]
    # A leg's edges feed its op's barrier, which sits just before the
    # op's first leg (``legs_by_op`` lists legs in uid order).
    barrier_at = {leg.uid: legs[0].uid
                  for legs in legs_by_op.values() for leg in legs}
    in_order = True

    def dangling(item: Any, producer: Any) -> None:
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

    for item in items:
        uid = item.uid
        position = barrier_at.get(uid, uid) if barrier_at else uid
        for producer, out_idx in item.sources:
            if producer is FEED:
                continue
            src = producer.uid
            if not (0 <= src < count and items[src] is producer):
                dangling(item, producer)
                continue
            if out_idx >= outputs[src]:
                report.emit(
                    "plan/dangling-item",
                    f"item #{uid} reads output {out_idx} of item "
                    f"#{src} ({producer.kind}), which has "
                    f"{outputs[src]} output(s)",
                    item=uid,
                    device=item.device,
                )
            # The producer is live: the ordering edge still holds.
            if src >= position:
                in_order = False
        for dep in item.extra_deps:
            src = dep.uid
            if not (0 <= src < count and items[src] is dep):
                dangling(item, dep)
            elif src >= position:
                in_order = False

    for producer, out_idx in plan.fetch_sources:
        if producer is FEED:
            continue
        src = producer.uid
        if not (0 <= src < count and items[src] is producer):
            report.emit(
                "plan/dangling-item",
                f"a fetch reads item #{src}, which this plan does not "
                f"contain",
                item=src,
            )
        elif out_idx >= outputs[src]:
            report.emit(
                "plan/dangling-item",
                f"a fetch reads output {out_idx} of item #{src} "
                f"({producer.kind}), which has {outputs[src]} output(s)",
                item=src,
            )
    return in_order


def _live_inputs(plan: Any, item: Any) -> list:
    """Uids of the live items ``item`` reads or is ordered after."""
    inputs = [producer for producer, _ in item.sources
              if not isinstance(producer, str)]  # str: the FEED sentinel
    inputs += item.extra_deps
    return [p.uid for p in inputs if _is_live(plan, p)]


# ---------------------------------------------------------------------------
# send/recv pairing
# ---------------------------------------------------------------------------

def _check_send_recv(plan: Any, by_kind: dict[str, list],
                     report: Report) -> None:
    read: set[int] = set()  # uids of the sends some recv reads
    for recv in by_kind["recv"]:
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
    for send in by_kind["send"]:
        if send.uid not in read:
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

def _check_collective_worlds(by_kind: dict[str, list],
                             report: Report) -> dict[str, list]:
    legs_by_op: dict[str, list] = {}
    for item in by_kind["collective"]:
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


def _check_cycles(plan: Any, legs_by_op: dict, report: Report) -> None:
    """Kahn's algorithm over the items plus one barrier node per
    collective op (numbered after the items)."""
    count = len(plan.items)
    preds: dict[int, list] = {}
    for barrier, legs in enumerate(legs_by_op.values(), start=count):
        preds[barrier] = []
        for leg in legs:
            preds[barrier] += _live_inputs(plan, leg)
            preds[leg.uid] = [barrier]
    for item in plan.items:
        if item.uid not in preds:
            preds[item.uid] = _live_inputs(plan, item)
    stuck = set(unsorted_nodes(preds))
    if not stuck:
        return
    names = list(legs_by_op)
    stuck_barriers = sorted(names[node - count] for node in stuck
                            if node >= count)
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
    stuck_items = sorted(node for node in stuck if node < count)
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

def _check_variable_races(plan: Any, by_kind: dict[str, list],
                          legs_by_op: dict, in_order: bool,
                          report: Report) -> None:
    from repro.core.partition import _job_task_of

    # (var name, task) -> accessor items; variables live in the resource
    # manager of the task owning the executing device, so same-named
    # accesses on different tasks touch different storage.
    groups: dict[tuple, list] = {}
    for item in by_kind["op"]:
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

    racy = {key: accessors for key, accessors in groups.items()
            if len(accessors) >= 2
            and any(a.op.type in _WRITER_OP_TYPES for a in accessors)}
    if not racy:
        return
    members = [a for group in racy.values() for a in group]
    bit = {a.uid: 1 << index for index, a in enumerate(members)}
    reach = _accessor_reach(plan, legs_by_op, bit, in_order)
    for (var_name, _task), accessors in racy.items():
        for i, first in enumerate(accessors):
            for second in accessors[i + 1:]:
                if first.op.type not in _WRITER_OP_TYPES and \
                        second.op.type not in _WRITER_OP_TYPES:
                    continue  # read-read pairs are always safe
                if reach[second.uid] & bit[first.uid] or \
                        reach[first.uid] & bit[second.uid]:
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


def _accessor_reach(plan: Any, legs_by_op: dict, bit: dict[int, int],
                    in_order: bool) -> dict[int, int]:
    """Per accessor uid, the accessors it is, or is ordered after, as a
    bitset: accessor ``uid`` is the bit ``bit[uid]``.

    One forward pass in uid order gives each item the union of its live
    inputs' sets; a leg waits on its op's barrier, so every leg of an op
    takes the union over all of them. In a plan in dependency order every
    input has a lower uid, so one pass from the lowest accessor to the
    highest is final. A plan with a forward edge repeats the pass over
    every item until no set grows.
    """
    items = plan.items
    reach = [0] * len(items)
    group = {leg.uid: legs for legs in legs_by_op.values() for leg in legs}
    span = range(min(bit), max(bit) + 1) if in_order else range(len(items))
    grew = True
    while grew:
        grew = False
        barriers: dict[int, int] = {}  # id(legs) -> the legs' union
        for uid in span:
            legs = group.get(uid)
            if legs is not None and id(legs) in barriers:
                bits = barriers[id(legs)]
            else:
                bits = bit.get(uid, 0)  # a leg is never an accessor
                for member in (items[uid],) if legs is None else legs:
                    for source in _live_inputs(plan, member):
                        bits |= reach[source]
                if legs is not None:
                    barriers[id(legs)] = bits
            if bits != reach[uid]:
                reach[uid] = bits
                grew = True
        grew = grew and not in_order
    return {uid: reach[uid] for uid in bit}
