"""Graph pruning and partitioning into per-device execution plans.

Given fetches and feeds, the partitioner:

1. prunes the graph to the ops reachable (backwards) from the fetches,
   cutting edges supplied through the feed dict;
2. optionally runs the Grappler-style pass pipeline
   (:mod:`repro.core.optimizer`) over the pruned set — identity/NoOp
   collapsing, CSE, constant folding, redundant-dependency pruning;
3. assigns every surviving op a fully-qualified device via the
   :class:`~repro.core.placement.Placer` (constant-folded roots become
   zero-cost ``const`` items on their placed device, and equal
   constants on one device become one item);
4. splits the ops by device and replaces every cross-device edge (data
   *and* control) with an explicit ``_Send``/``_Recv`` item pair, the
   recv reading its send's output slot — TF's distributed-execution
   mechanism, and the place where all network traffic in the paper's
   benchmarks originates. One pair carries a value to every consumer on
   the destination device. Each item is numbered after everything it
   reads, so uid order is a dependency order;
5. routes fetched tensors to the client device and precomputes the
   dependency graph (counts + dependents) the executor's
   dependency-counting dispatcher consumes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.core.graph import Graph, Operation
from repro.core.kernels.registry import Price, fed_price, op_def, static_price
from repro.core.metadata import PassStats
from repro.core.ops.collective_ops import COLLECTIVE_OP_TYPES
from repro.core.placement import Placer
from repro.core.tensor import SymbolicValue, Tensor, value_nbytes
from repro.errors import InvalidArgumentError
from repro.runtime import collective as collective_runtime

__all__ = ["Item", "ExecutionPlan", "build_plan", "FEED"]

# Sentinel marking an input edge satisfied from the feed dict.
FEED = "__feed__"

# Ops that block on external conditions and must not occupy a device slot
# while waiting (a blocked dequeue would otherwise starve the device).
_NO_DEVICE_HOLD = {
    "QueueEnqueue",
    "QueueDequeue",
    "QueueSize",
    "QueueClose",
    "NoOp",
}

# Stateful ops whose outputs alias resource-manager storage: their output
# memory is accounted once per variable, not per execution.
VARIABLE_OPS = {"VariableV2", "Assign", "AssignAdd", "AssignSub"}


@dataclass(slots=True)
class Item:
    """One schedulable unit on one device.

    Static once ``build_plan`` returns (``slots=True``: a stray
    ``item.anything = …`` raises): what a run computes lives in its
    ``ExecutionState``, indexed by ``uid``.
    """

    # Index of this item in ``plan.items`` — the executor's slot number.
    uid: int
    kind: str  # "op" | "send" | "recv" | "const" | "collective"
    device: str
    op: Optional[Operation] = None
    # Value inputs: (producer Item, output index) or (FEED, tensor name).
    sources: list = field(default_factory=list)
    # Pure ordering dependencies (control edges).
    extra_deps: list = field(default_factory=list)
    # send/recv wiring: a recv's one source is its send's output slot.
    dst_device: Optional[str] = None  # send only
    tensor_name: Optional[str] = None  # send/recv: which tensor moves
    # Constant-folded output values ("const" items only).
    const_values: Optional[list] = None
    # Whether any surrounding tensor is double precision ("op" items;
    # precomputed so the executor's cost conversion skips a tensor scan).
    double_precision: bool = False
    # The outputs' specs and the Cost of one execution, from the op's static
    # specs (registry.static_price) or from those the fed values carry
    # forward (registry.fed_price) ("op" items): a run hands it to
    # dispatch, which then runs no shape or cost function, and reads the
    # outputs' bytes off the specs. Shared by every run: a shape-only run
    # gets a fresh list of the specs.
    price: Optional[Price] = None
    # The simulated seconds the item's device charges for the price's
    # Cost (priced "op" items only; unpriced ones convert every run).
    seconds: Optional[float] = None
    # The dispatch record, what every run reads instead of re-resolving
    # it: ``entry`` is the session's device-table entry for ``device``
    # (task runtime, device, memory pool, (job, task)) and a send's
    # ``dst_entry`` its destination's; an "op" item's ``lane`` says how
    # it treats its device slot ("held", "inline" or "no_hold"); and
    # ``out_nbytes`` holds each output's bytes wherever the plan fixes
    # them (priced non-variable ops, consts, and the sends and recvs of
    # their outputs), ``None`` where a run measures its values.
    entry: tuple = ()
    dst_entry: tuple = ()
    lane: str = "held"
    out_nbytes: Optional[tuple] = None
    # Which rank of its collective op this leg executes ("collective"
    # items only; one leg per rank, all sharing the same ``op``).
    collective_rank: int = 0
    # The communication schedule the leg group drives ("collective" items
    # only): the op's algorithm attr with "auto" resolved per payload and
    # world size at lowering time.
    collective_algorithm: Optional[str] = None
    # Output ``i`` is the plan's output slot ``slot + i`` (memory
    # refcounting: ``plan.consumer_counts``), filled by build_plan.
    slot: int = 0
    # Dependency graph (static per plan), filled by build_plan: the uids
    # of the items waiting on this one (how many it waits on:
    # ``plan.dep_counts``). Uids, not items: an item refers only to its
    # producers, so a dropped plan is freed by reference count.
    dependents: list = field(default_factory=list)

    def __repr__(self) -> str:
        label = self.op.name if self.op is not None else self.tensor_name
        return f"<Item #{self.uid} {self.kind} {label!r} on {self.device}>"


@dataclass
class ExecutionPlan:
    """Everything a run needs: items, per-device lists, fetch routing."""

    # Held, not weak: an item's op refers to its graph weakly, so the
    # plan keeps the graph (and every op it runs) alive.
    graph: Graph
    items: list[Item]  # items[i].uid == i
    # Per item, the number of distinct producer items it waits on: a
    # run's dispatcher copies the list and counts it down.
    dep_counts: list[int]
    # Per output slot (``Item.slot``), how many sources and fetches read
    # it: a run copies the list and frees the slot's bytes at zero.
    consumer_counts: list[int]
    per_device: dict[str, list[Item]]
    # For each fetch tensor: local (Item, out_idx) on the client device.
    fetch_sources: list
    devices_by_task: dict  # (job, task) -> set of device strings
    placements: dict  # op name -> device string
    # Per-pass optimizer statistics recorded when the plan was built.
    pass_stats: list = field(default_factory=list)
    # Collective op name -> resolved algorithm ("ring"/"tree"/...), the
    # lowering's per-payload "auto" decisions; copied into RunMetadata.
    collective_algorithms: dict = field(default_factory=dict)
    # Non-fatal findings the static verifier attached at build time
    # (error findings raise instead, so no such plan exists).
    verifier_diagnostics: list = field(default_factory=list)
    # Always 0; kept only because benchmarks/e2e/trace.py reads them.
    compiled_items: int = 0
    fused_op_count: int = 0

    @property
    def tasks(self) -> list:
        return sorted(self.devices_by_task)


def _normalize_feeds(feed_dict) -> dict[str, Any]:
    feeds: dict[str, Any] = {}
    if not feed_dict:
        return feeds
    for key, value in feed_dict.items():
        if isinstance(key, Tensor):
            feeds[key.name] = value
        elif isinstance(key, str):
            feeds[key] = value
        else:
            raise InvalidArgumentError(
                f"feed_dict keys must be Tensors or names, got {key!r}"
            )
    return feeds


def build_plan(
    graph: Graph,
    fetch_ops: Sequence[Operation],
    fetch_tensors: Sequence[Tensor],
    feeds: dict[str, Any],
    placer: Placer,
    client_device: str,
    devices: dict[str, tuple],
    optimize: bool = False,
    symbolic: bool = False,
) -> ExecutionPlan:
    """Construct, and statically verify, the execution plan for one run.

    Every build runs the analysis layer (:mod:`repro.analysis`):
    ``verify_graph`` on the pruned closure before optimization and after
    every optimizer pass that rewrote something, and ``verify_plan`` on
    the lowered plan before it is returned (and therefore before the
    session caches it). Any error-severity finding raises
    :class:`~repro.errors.VerificationError`: a plan is verified or it
    does not exist.

    Args:
        feeds: fed tensor name -> value. Partially shaped ops are priced
            from these values' specs: the plan serves these shapes only.
        devices: the session's device table (``Session._devices``:
            device string -> ``(task runtime, device, memory pool, (job,
            task))``), read once per item here: each item's dispatch
            record holds its entry (``Item.entry``), and a priced op item
            the seconds its device charges (``Item.seconds``).
        optimize: run the Grappler-style pass pipeline over the pruned
            set, and merge equal constants on one device (with their
            transfers) while lowering; ``False`` (the default) builds
            the plan with no rewriting.
        symbolic: whether the session executes shape-only (constant folding
            evaluates with the same flag so folded values match execution).
    """
    # ---- 1. prune ---------------------------------------------------------
    needed: dict[str, Operation] = {}
    stack: list[Operation] = list(fetch_ops) + [
        t.op for t in fetch_tensors if t.name not in feeds
    ]
    while stack:
        op = stack.pop()
        if op.name in needed:
            continue
        needed[op.name] = op
        for tensor in op.inputs:
            if tensor.name in feeds:
                continue  # edge satisfied by the feed: do not traverse
            if tensor.op.name not in needed:
                stack.append(tensor.op)
        for dep in op.control_inputs:
            if dep.name not in needed:
                stack.append(dep)
    # Graph insertion order is a valid topological order: an op's inputs
    # exist before the op is created.
    ordered = sorted(needed.values(), key=lambda o: o.node_id)

    # Verify the user's graph as pruned, before any rewriting: a
    # pre-existing defect must not be attributed to an optimizer pass.
    # No placer here — device strings are parsed only, so a device the
    # cluster lacks still surfaces from the place stage below with its
    # native error type (NotFoundError), not a VerificationError.
    from repro import analysis  # it reads this module's FEED

    analysis.verify_graph(
        graph, ops=ordered, context="pre-optimization graph", cache=True
    ).raise_if_errors()

    # ---- 2. optimize -------------------------------------------------------
    opt = None
    pass_stats: list = []
    if optimize:
        from repro.core.optimizer import run_pipeline

        opt = run_pipeline(
            graph, ordered, fetch_ops, fetch_tensors, feeds,
            symbolic=symbolic,
        )
        ordered = opt.ops
        pass_stats = list(opt.stats)

    def resolve(tensor: Tensor) -> Tensor:
        if opt is not None:
            return opt.value_subs.get(tensor.name, tensor)
        return tensor

    def control_inputs_of(op: Operation):
        if opt is not None:
            deps = opt.control_deps.get(op.name)
            if deps is not None:
                return deps
        return op.control_inputs

    # ---- 3. place ---------------------------------------------------------
    placements = {op.name: placer.place(op) for op in ordered}

    # ---- 4. items + send/recv insertion ------------------------------------
    # ``new_item`` numbers an item once, after routing everything it reads:
    # every source and ordering edge points at a lower uid, so uid order is
    # a dependency order (``verify_plan`` proves acyclicity by it).
    items: list[Item] = []
    op_items: dict[str, Item] = {}
    # Collective op name -> its per-rank legs (lowering replaces the one
    # graph op with one "collective" item per rank; output index r is
    # produced by leg r's single output slot).
    collective_legs: dict[str, list[Item]] = {}
    # Collective op name -> resolved algorithm (lowering's "auto" picks).
    collective_algorithms: dict[str, str] = {}
    # (producer uid, output index, dst device) -> recv Item: one transfer
    # feeds every consumer of the value on that device, whichever tensor
    # name (or merged constant) reaches it.
    recv_cache: dict[tuple[int, int, str], Item] = {}
    # (producer uid, dst device) -> recv-of-control Item.
    ctrl_cache: dict[tuple[int, str], Item] = {}
    # Optimized plans merge equal constants on one device (built under
    # different partial device scopes, which CSE's requested-device key
    # cannot merge): (device, value fingerprint) -> the kept const item.
    const_by_value: dict[tuple, Item] = {}
    merged_consts = 0
    # Every (tensor name or ^label, dst device) routed across devices: the
    # ones beyond one per transfer share a merged constant's transfer.
    named_routes: set[tuple[str, str]] = set()

    def new_item(**kwargs) -> Item:
        item = Item(uid=len(items), entry=devices[kwargs["device"]], **kwargs)
        items.append(item)
        return item

    def producer_of(tensor: Tensor) -> tuple[Item, int]:
        """The (item, output index) producing ``tensor`` after lowering."""
        legs = collective_legs.get(tensor.op.name)
        if legs is not None:
            return legs[tensor.value_index], 0
        return op_items[tensor.op.name], tensor.value_index

    def route_value(tensor: Tensor, dst_device: str):
        """Source ref delivering ``tensor`` onto ``dst_device``."""
        if tensor.name in feeds:
            return (FEED, tensor.name)
        tensor = resolve(tensor)
        if tensor.name in feeds:
            return (FEED, tensor.name)
        producer, out_index = producer_of(tensor)
        if producer.device == dst_device:
            return (producer, out_index)
        named_routes.add((tensor.name, dst_device))
        cache_key = (producer.uid, out_index, dst_device)
        if cache_key not in recv_cache:
            nbytes = producer.out_nbytes
            if nbytes is not None:
                nbytes = (nbytes[out_index],)
            send = new_item(
                kind="send",
                device=producer.device,
                sources=[(producer, out_index)],
                dst_device=dst_device,
                dst_entry=devices[dst_device],
                tensor_name=tensor.name,
                out_nbytes=nbytes,
            )
            recv_cache[cache_key] = new_item(
                kind="recv",
                device=dst_device,
                tensor_name=tensor.name,
                sources=[(send, 0)],
                out_nbytes=nbytes,
            )
        return (recv_cache[cache_key], 0)

    def _route_control_item(producer: Item, label: str,
                            dst_device: str) -> Item:
        if producer.device == dst_device:
            return producer
        named_routes.add((f"^{label}", dst_device))
        cache_key = (producer.uid, dst_device)
        if cache_key not in ctrl_cache:
            send = new_item(
                kind="send",
                device=producer.device,
                extra_deps=[producer],
                dst_device=dst_device,
                dst_entry=devices[dst_device],
                tensor_name=f"^{label}",
            )
            ctrl_cache[cache_key] = new_item(
                kind="recv",
                device=dst_device,
                tensor_name=f"^{label}",
                sources=[(send, 0)],
            )
        return ctrl_cache[cache_key]

    def route_control(dep_op: Operation, dst_device: str) -> list[Item]:
        """Items whose completion implies ``dep_op`` ran, visible on dst.

        A single item normally; a lowered collective contributes one
        ordering edge per rank leg (the op "ran" once every leg did).
        """
        legs = collective_legs.get(dep_op.name)
        if legs is not None:
            return [
                _route_control_item(leg, f"{dep_op.name}:{rank}", dst_device)
                for rank, leg in enumerate(legs)
            ]
        return [_route_control_item(op_items[dep_op.name], dep_op.name,
                                    dst_device)]

    def control_deps_of(op: Operation, device: str) -> list[Item]:
        deps: list[Item] = []
        for dep in control_inputs_of(op):
            for item in route_control(dep, device):
                # Merged constants can share one ordering edge.
                if all(item is not seen for seen in deps):
                    deps.append(item)
        return deps

    def const_item(op: Operation, device: str, values: list,
                   deps: list[Item]) -> Item:
        """A const item for ``op``, or the equal one already on ``device``.

        A constant ordered after other work keeps its own schedule slot,
        and symbolic values are never merged (spec equality is not value
        equality).
        """
        nonlocal merged_consts
        key: Optional[tuple] = None
        if not deps and all(isinstance(v, np.ndarray) for v in values):
            key = (device, tuple((v.dtype.str, v.shape, v.tobytes())
                                 for v in values))
            kept = const_by_value.get(key)
            if kept is not None:
                merged_consts += 1
                return kept
        item = new_item(kind="const", device=device, op=op,
                        const_values=values, extra_deps=deps,
                        out_nbytes=tuple(map(value_nbytes, values)))
        if key is not None:
            const_by_value[key] = item
        return item

    def spec_of(source) -> Optional[SymbolicValue]:
        """The spec every run delivers through ``source``, if the plan
        fixes it: a feed's, a constant's or a priced op's, moved or not."""
        # A loop, not a self-call: a closure naming itself is a
        # function/cell cycle that would pin ``feeds`` past the build.
        while True:
            producer, index = source
            if producer is FEED:
                return SymbolicValue.of(feeds[index])
            if producer.price is not None:
                return producer.price[0][index]
            if producer.kind == "const":
                return SymbolicValue.of(producer.const_values[index])
            if producer.kind not in ("send", "recv"):
                return None
            source = producer.sources[0]

    def static_payload_nbytes(op: Operation) -> Optional[int]:
        """Static per-rank buffer bytes of a collective, if known."""
        for tensor in op.inputs:
            if tensor.shape.is_fully_defined:
                return tensor.shape.num_elements() * tensor.dtype.size
        return None

    def leg_device(op: Operation, rank: int, devices_attr) -> str:
        """Rank ``rank``'s device: explicit ``devices`` attr first, else
        colocated with the rank input's producer."""
        if devices_attr is not None:
            return placer.resolve_device(
                devices_attr[rank], op.type, name=f"{op.name}[{rank}]"
            )
        input_t = (
            op.inputs[0] if op.type == "CollectiveBroadcast"
            else op.inputs[rank]
        )
        resolved = resolve(input_t)
        upstream = collective_legs.get(resolved.op.name)
        if upstream is not None:
            # Chained collectives: colocate with the upstream *leg* that
            # produces this rank's input (the op's nominal placement is a
            # single device and would collapse every leg onto it).
            return upstream[resolved.value_index].device
        if resolved.name not in feeds and resolved.op.name in placements:
            return placements[resolved.op.name]
        # Fed input: its producer was pruned — honour the placeholder's
        # requested device string instead.
        return placer.resolve_device(
            resolved.op.device, op.type, name=f"{op.name}[{rank}]"
        )

    def lower_collective(op: Operation) -> None:
        """Expand a collective op into one schedule leg per rank.

        Each leg lands on its rank's device (``leg_device``), takes only
        its *own* rank's input through ``route_value`` (the collective
        traffic itself is charged by the executor's shared schedule,
        never by per-input send/recv fan-in), and produces output index
        ``rank`` of the op as its single output slot. Every leg's inputs
        are routed before any leg is numbered, so the group's legs are
        consecutive and follow everything any of them reads. The op's
        ``algorithm`` attr is resolved here: ``"auto"`` picks the
        schedule per static payload size and world size
        (:func:`repro.runtime.collective.select_algorithm` — tree for
        latency-bound small allreduces, ring at bandwidth scale), and
        the decision is recorded on the plan for ``RunMetadata``.
        """
        world = op.get_attr("world")
        devices_attr = op.get_attr("devices")
        algorithm = op.get_attr("algorithm") or "auto"
        if algorithm == "auto":
            algorithm = collective_runtime.select_algorithm(
                op.type, static_payload_nbytes(op), world
            )
        collective_algorithms[op.name] = algorithm
        if (
            op.type == "CollectiveBroadcast"
            and world > 1
            and devices_attr is None
        ):
            # Unlike allreduce/allgather there is one input for W ranks:
            # non-root placement cannot be inferred, and colocating every
            # leg with the root would silently model a W-way broadcast as
            # zero communication.
            raise InvalidArgumentError(
                f"{op.name}: a broadcast with world={world} > 1 under a "
                f"Session needs explicit placement for its non-root legs. "
                f"Fix: pass devices=[...] (one device per rank) to "
                f"repro.broadcast, or colocate inputs — express the "
                f"exchange through all_reduce/all_gather, whose per-rank "
                f"inputs give every leg a producer to colocate with. "
                f"(Eager execution accepts a bare world=: no placement.)"
            )
        devs = [leg_device(op, rank, devices_attr) for rank in range(world)]
        routed: list[tuple[list, list[Item]]] = []
        for rank, dev in enumerate(devs):
            if op.type != "CollectiveBroadcast":
                sources = [route_value(op.inputs[rank], dev)]
            elif rank == 0:
                sources = [route_value(op.inputs[0], dev)]
            else:
                # Only the root holds the payload; the other legs receive
                # it through the ring schedule, not through route_value.
                sources = []
            routed.append((sources, control_deps_of(op, dev)))
        collective_legs[op.name] = [
            new_item(kind="collective", device=dev, op=op, sources=sources,
                     extra_deps=deps, collective_rank=rank,
                     collective_algorithm=algorithm)
            for rank, (dev, (sources, deps)) in enumerate(zip(devs, routed))
        ]

    folded = opt.folded if opt is not None else {}
    for op in ordered:
        device = placements[op.name]
        if op.type in COLLECTIVE_OP_TYPES:
            lower_collective(op)
        elif op.name in folded:
            # Constant-folded root: materializes pre-evaluated outputs on
            # its device at zero simulated cost; no runtime inputs.
            op_items[op.name] = const_item(op, device, folded[op.name], [])
        elif opt is not None and op.type == "Const":
            # Plain constants need no kernel dispatch either; as const
            # items they merge with equal ones and complete inline.
            deps = control_deps_of(op, device)
            op_items[op.name] = const_item(
                op, device, [op.get_attr("value")], deps
            )
        else:
            sources = [route_value(t, device) for t in op.inputs]
            price = static_price(op)
            if price is None:
                in_specs = [spec_of(source) for source in sources]
                if None not in in_specs:
                    price = fed_price(op, in_specs)
            lane = ("no_hold" if op.type in _NO_DEVICE_HOLD
                    else "inline" if op_def(op.type).inline else "held")
            item = new_item(kind="op", device=device, op=op, sources=sources,
                            extra_deps=control_deps_of(op, device),
                            double_precision=_is_double_precision(op),
                            price=price, lane=lane)
            if price is not None:
                item.seconds = cost_seconds(item.entry[1], item, price[1])
                if op.type not in VARIABLE_OPS:
                    item.out_nbytes = tuple(spec.nbytes for spec in price[0])
            op_items[op.name] = item

    # ---- 5. fetch routing ---------------------------------------------------
    fetch_sources = []
    for tensor in fetch_tensors:
        if tensor.name in feeds:
            fetch_sources.append((FEED, tensor.name))
            continue
        fetch_sources.append(route_value(tensor, client_device))

    if opt is not None:
        # What the merges saved: each merged constant one item, each
        # shared transfer a send/recv pair.
        shared = len(named_routes) - len(recv_cache) - len(ctrl_cache)
        pass_stats.append(PassStats(
            name="transfer_coalescing",
            nodes_before=len(items) + merged_consts + 2 * shared,
            nodes_after=len(items),
            detail={"constants_merged": merged_consts,
                    "transfers_merged": shared} if merged_consts else {},
        ))

    # ---- output slots and their consumer counts (memory refcounting) ------
    consumer_counts: list[int] = []
    for item in items:
        item.slot = len(consumer_counts)
        if item.kind == "op":
            consumer_counts += [0] * len(item.op.outputs)
        elif item.kind == "const":
            consumer_counts += [0] * len(item.const_values)
        else:
            consumer_counts.append(0)
    for sources in [item.sources for item in items] + [fetch_sources]:
        for producer, idx in sources:
            if producer is not FEED:
                consumer_counts[producer.slot + idx] += 1

    # ---- dependency graph (static per plan) ---------------------------------
    # The executor's dependency-counting dispatcher needs, per item, the
    # number of distinct producers and the forward dependents list.
    dep_counts: list[int] = []
    for item in items:
        seen: set[int] = set()
        for source in item.sources:
            if source[0] is not FEED:
                producer = source[0]
                if producer.uid not in seen:
                    seen.add(producer.uid)
                    producer.dependents.append(item.uid)
        for dep in item.extra_deps:
            if dep.uid not in seen:
                seen.add(dep.uid)
                dep.dependents.append(item.uid)
        dep_counts.append(len(seen))

    # ---- group by device -----------------------------------------------------
    per_device: dict[str, list[Item]] = {}
    devices_by_task: dict[tuple[str, int], set] = {}
    for item in items:
        per_device.setdefault(item.device, []).append(item)
    for device in per_device:
        devices_by_task.setdefault(_job_task_of(device), set()).add(device)

    plan = ExecutionPlan(
        graph=graph,
        items=items,
        dep_counts=dep_counts,
        consumer_counts=consumer_counts,
        per_device=per_device,
        fetch_sources=fetch_sources,
        devices_by_task=devices_by_task,
        placements=placements,
        pass_stats=pass_stats,
        collective_algorithms=collective_algorithms,
    )
    _verify_built_plan(plan)
    return plan


def _verify_built_plan(plan: ExecutionPlan) -> None:
    """Run :func:`repro.analysis.verify_plan` on a freshly lowered plan.

    Called on every plan before ``build_plan`` returns, so a defective
    plan can never enter the session's plan cache. Non-fatal findings
    stay attached as ``plan.verifier_diagnostics``; error findings
    raise. When the ``REPRO_VERIFY_REPORT`` environment variable names a
    file, a JSON line summarizing the verification is appended — the
    corpus CLI counts plans through this channel.
    """
    from repro import analysis

    report = analysis.verify_plan(plan)
    plan.verifier_diagnostics = list(report.diagnostics)
    report_path = os.environ.get("REPRO_VERIFY_REPORT")
    if report_path:
        record = {
            "items": len(plan.items),
            "devices": len(plan.per_device),
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "diagnostics": [d.to_dict() for d in report.diagnostics],
        }
        import json  # only a reporting run pays for the import

        with open(report_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    report.raise_if_errors()


def cost_seconds(device, item: Item, cost) -> float:
    """Simulated seconds ``device`` charges an op item for ``cost``."""
    if cost.kind not in ("compute", "memcpy", "io"):
        return 0.0
    return device.time_for_cost(cost, item.op.type, item.double_precision)


def _is_double_precision(op) -> bool:
    for tensor in (*op.outputs, *op.inputs):
        if tensor.dtype.size >= 8 and (
            tensor.dtype.is_floating or tensor.dtype.is_complex
        ):
            return True
    return False


def _job_task_of(device: str) -> tuple[str, int]:
    job = None
    task = None
    for part in device.strip("/").split("/"):
        if part.startswith("job:"):
            job = part[4:]
        elif part.startswith("task:"):
            task = int(part[5:])
    if job is None or task is None:
        raise InvalidArgumentError(f"Device {device!r} lacks job/task")
    return job, task
