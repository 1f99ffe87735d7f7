"""Graph pruning and partitioning into per-device execution plans.

Given fetches and feeds, the partitioner:

1. prunes the graph to the ops reachable (backwards) from the fetches,
   cutting edges supplied through the feed dict;
2. optionally runs the Grappler-style pass pipeline
   (:mod:`repro.core.optimizer`) over the pruned set — identity/NoOp
   collapsing, CSE, constant folding, redundant-dependency pruning;
3. assigns every surviving op a fully-qualified device via the
   :class:`~repro.core.placement.Placer` (constant-folded roots become
   zero-cost ``const`` items on their placed device);
4. splits the ops by device and replaces every cross-device edge (data
   *and* control) with an explicit ``_Send``/``_Recv`` item pair, the
   recv reading its send's output slot — TF's distributed-execution
   mechanism, and the place where all network traffic in the paper's
   benchmarks originates — then coalesces duplicate transfers left after
   placement;
5. routes fetched tensors to the client device and precomputes the
   dependency graph (counts + dependents) the executor's
   dependency-counting dispatcher consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence


from repro.core.graph import Graph, Operation
from repro.core.kernels.registry import Price, static_price
from repro.core.ops.collective_ops import COLLECTIVE_OP_TYPES
from repro.core.placement import Placer
from repro.core.tensor import Tensor
from repro.errors import InvalidArgumentError
from repro.runtime import collective as collective_runtime

__all__ = ["Item", "ExecutionPlan", "build_plan", "FEED"]

# Sentinel marking an input edge satisfied from the feed dict.
FEED = "__feed__"


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
    # The outputs' specs and the Cost of one execution, when every tensor
    # of the op is fully static ("op" items; registry.static_price): a run
    # hands it to dispatch, which then runs no shape or cost function, and
    # reads the outputs' bytes off the specs. Shared by every run: a
    # shape-only run gets a fresh list of the specs.
    price: Optional[Price] = None
    # The simulated seconds the item's device charges for the price's
    # Cost (priced "op" items only; unpriced ones convert every run).
    seconds: Optional[float] = None
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
    # Findings the static verifier attached when the plan was built with
    # verify=True (non-fatal ones only: errors raise instead). Empty when
    # verification was off.
    verifier_diagnostics: list = field(default_factory=list)
    # True when this plan passed static verification at build time.
    verified: bool = False
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
    verify: bool = False,
) -> ExecutionPlan:
    """Construct the execution plan for one session run.

    Args:
        devices: the session's device table (``Session._devices``:
            device string -> ``(task runtime, device, memory pool, (job,
            task))``). A priced op item carries the seconds its device
            charges (``Item.seconds``), read off the table once here.
        optimize: run the Grappler-style pass pipeline over the pruned
            set and coalesce duplicate constants/transfers afterwards;
            ``False`` (the default) builds the plan with no rewriting.
        symbolic: whether the session executes shape-only (constant folding
            evaluates with the same flag so folded values match execution).
        verify: run the static analysis layer (:mod:`repro.analysis`):
            ``verify_graph`` on the pruned closure before optimization and
            after every optimizer pass, and ``verify_plan`` on the lowered
            plan before it is returned (and therefore before the session
            caches it). Raises :class:`~repro.errors.VerificationError`
            on any error-severity finding.
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

    if verify:
        # Verify the user's graph as pruned, before any rewriting: a
        # pre-existing defect must not be attributed to an optimizer pass.
        # No placer here — device strings are parsed only, so a device
        # the cluster lacks still surfaces from the place stage below
        # with its native error type (NotFoundError), not a
        # VerificationError.
        from repro.analysis import verify_graph

        verify_graph(
            graph, ops=ordered, context="pre-optimization graph", cache=True
        ).raise_if_errors()

    # ---- 2. optimize -------------------------------------------------------
    opt = None
    pass_stats: list = []
    if optimize:
        from repro.core.optimizer import run_pipeline

        opt = run_pipeline(
            graph, ordered, fetch_ops, fetch_tensors, feeds,
            symbolic=symbolic, verify=verify,
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
    items: list[Item] = []
    op_items: dict[str, Item] = {}
    # Collective op name -> its per-rank legs (lowering replaces the one
    # graph op with one "collective" item per rank; output index r is
    # produced by leg r's single output slot).
    collective_legs: dict[str, list[Item]] = {}
    # Collective op name -> resolved algorithm (lowering's "auto" picks).
    collective_algorithms: dict[str, str] = {}
    # (tensor name, dst device) -> recv Item  (dedupe: one transfer feeds
    # every consumer of the tensor on that device).
    recv_cache: dict[tuple[str, str], Item] = {}
    # (producer op name, dst device) -> recv-of-control Item.
    ctrl_cache: dict[tuple[str, str], Item] = {}

    def new_item(**kwargs) -> Item:
        item = Item(uid=len(items), **kwargs)
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
        cache_key = (tensor.name, dst_device)
        if cache_key not in recv_cache:
            send = new_item(
                kind="send",
                device=producer.device,
                sources=[(producer, out_index)],
                dst_device=dst_device,
                tensor_name=tensor.name,
            )
            recv_cache[cache_key] = new_item(
                kind="recv",
                device=dst_device,
                tensor_name=tensor.name,
                sources=[(send, 0)],
            )
        return (recv_cache[cache_key], 0)

    def _route_control_item(producer: Item, label: str,
                            dst_device: str) -> Item:
        if producer.device == dst_device:
            return producer
        cache_key = (label, dst_device)
        if cache_key not in ctrl_cache:
            send = new_item(
                kind="send",
                device=producer.device,
                extra_deps=[producer],
                dst_device=dst_device,
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
            deps.extend(route_control(dep, device))
        return deps

    def static_payload_nbytes(op: Operation) -> Optional[int]:
        """Static per-rank buffer bytes of a collective, if known."""
        for tensor in op.inputs:
            if tensor.shape.is_fully_defined:
                return tensor.shape.num_elements() * tensor.dtype.size
        return None

    def lower_collective(op: Operation) -> None:
        """Expand a collective op into one schedule leg per rank.

        Each leg lands on its rank's device — explicit ``devices`` attr
        first, else colocated with the rank input's producer — takes only
        its *own* rank's input through ``route_value`` (the collective
        traffic itself is charged by the executor's shared schedule,
        never by per-input send/recv fan-in), and produces output index
        ``rank`` of the op as its single output slot. The op's
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
        legs = []
        for rank in range(world):
            input_t = (
                op.inputs[0] if op.type == "CollectiveBroadcast"
                else op.inputs[rank]
            )
            if devices_attr is not None:
                dev = placer.resolve_device(
                    devices_attr[rank], op.type, name=f"{op.name}[{rank}]"
                )
            else:
                resolved = resolve(input_t)
                upstream = collective_legs.get(resolved.op.name)
                if upstream is not None:
                    # Chained collectives: colocate with the upstream
                    # *leg* that produces this rank's input (the op's
                    # nominal placement is a single device and would
                    # collapse every leg onto it).
                    dev = upstream[resolved.value_index].device
                elif (
                    resolved.name not in feeds
                    and resolved.op.name in placements
                ):
                    dev = placements[resolved.op.name]
                else:
                    # Fed input: its producer was pruned — honour the
                    # placeholder's requested device string instead.
                    dev = placer.resolve_device(
                        resolved.op.device, op.type, name=f"{op.name}[{rank}]"
                    )
            leg = new_item(kind="collective", device=dev, op=op)
            leg.collective_rank = rank
            leg.collective_algorithm = algorithm
            legs.append(leg)
        collective_legs[op.name] = legs
        for rank, leg in enumerate(legs):
            if op.type == "CollectiveBroadcast":
                # Only the root holds the payload; the other legs receive
                # it through the ring schedule, not through route_value.
                leg.sources = (
                    [route_value(op.inputs[0], leg.device)] if rank == 0 else []
                )
            else:
                leg.sources = [route_value(op.inputs[rank], leg.device)]
            leg.extra_deps = control_deps_of(op, leg.device)

    folded = opt.folded if opt is not None else {}
    for op in ordered:
        device = placements[op.name]
        if op.type in COLLECTIVE_OP_TYPES:
            lower_collective(op)
            continue
        if op.name in folded:
            # Constant-folded root: materializes pre-evaluated outputs on
            # its device at zero simulated cost; no runtime inputs.
            item = new_item(
                kind="const", device=device, op=op,
                const_values=folded[op.name],
            )
            op_items[op.name] = item
            continue
        if opt is not None and op.type == "Const":
            # Plain constants need no kernel dispatch either; as const
            # items they become coalescable and complete inline.
            item = new_item(
                kind="const", device=device, op=op,
                const_values=[op.get_attr("value")],
            )
            op_items[op.name] = item
            item.extra_deps = control_deps_of(op, device)
            continue
        item = new_item(kind="op", device=device, op=op)
        item.double_precision = _is_double_precision(op)
        item.price = static_price(op)
        if item.price is not None:
            item.seconds = cost_seconds(devices[device][1], item,
                                        item.price[1])
        op_items[op.name] = item
        item.sources = [route_value(t, device) for t in op.inputs]
        item.extra_deps = control_deps_of(op, device)

    # ---- 5. fetch routing ---------------------------------------------------
    fetch_sources = []
    for tensor in fetch_tensors:
        if tensor.name in feeds:
            fetch_sources.append((FEED, tensor.name))
            continue
        fetch_sources.append(route_value(tensor, client_device))

    # ---- 6. transfer coalescing ---------------------------------------------
    if opt is not None:
        from repro.core.optimizer.coalescing import coalesce_transfers

        items, fetch_sources, coalesce_stats = coalesce_transfers(
            items, fetch_sources
        )
        pass_stats.append(coalesce_stats)
        # Dense again after the merge: a run indexes its slots by uid.
        for uid, item in enumerate(items):
            item.uid = uid

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
    if verify:
        _verify_built_plan(plan)
    return plan


def _verify_built_plan(plan: ExecutionPlan) -> None:
    """Run :func:`repro.analysis.verify_plan` on a freshly lowered plan.

    Called before ``build_plan`` returns, so a defective plan can never
    enter the session's plan cache. Non-fatal findings stay attached as
    ``plan.verifier_diagnostics``; error findings raise. When the
    ``REPRO_VERIFY_REPORT`` environment variable names a file, a JSON
    line summarizing the verification is appended — the burn-in harness
    and the CI verifier lane count plans through this channel.
    """
    import json
    import os

    from repro.analysis import verify_plan

    report = verify_plan(plan)
    plan.verifier_diagnostics = list(report.diagnostics)
    plan.verified = report.ok
    report_path = os.environ.get("REPRO_VERIFY_REPORT")
    if report_path:
        record = {
            "items": len(plan.items),
            "devices": len(plan.per_device),
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "diagnostics": [d.to_dict() for d in report.diagnostics],
        }
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
