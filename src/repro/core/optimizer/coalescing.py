"""Cross-device transfer coalescing over built plan items.

The partitioner already dedupes transfers per (tensor name, destination
device). This pass goes further, after placement has resolved devices:

* constant items that materialize byte-identical values on the same device
  collapse into one (e.g. equal constants built under different partial
  device scopes, which CSE's requested-device key cannot merge);
* send/recv pairs left duplicated by that merge — same payload source,
  same destination device — collapse onto the surviving pair.

Both rewrites are value-preserving: consumers are rewired to the surviving
item, and fetch routing follows.
"""

from __future__ import annotations

import numpy as np

from repro.core.metadata import PassStats

__all__ = ["coalesce_transfers"]


def _const_fingerprint(item):
    if item.extra_deps:
        # A constant ordered after other work keeps its own schedule slot.
        return None
    parts = []
    for value in item.const_values:
        if not isinstance(value, np.ndarray):
            return None  # symbolic values: spec equality is not value equality
        parts.append((value.dtype.str, value.shape, value.tobytes()))
    return (item.device, tuple(parts))


def coalesce_transfers(items: list, fetch_sources: list):
    """Returns (surviving items, rewritten fetch_sources, PassStats)."""
    from repro.core.partition import FEED

    before = len(items)
    remap: dict[int, object] = {}  # dropped item uid -> surviving Item

    def canonical(item):
        while item.uid in remap:
            item = remap[item.uid]
        return item

    # -- 1. merge value-identical constants per device ------------------------
    merged_consts = 0
    by_value: dict = {}
    for item in items:
        if item.kind != "const":
            continue
        fp = _const_fingerprint(item)
        if fp is None:
            continue
        kept = by_value.get(fp)
        if kept is None:
            by_value[fp] = item
        else:
            remap[item.uid] = kept
            merged_consts += 1

    # -- 2. dedupe send/recv pairs sharing payload and destination ------------
    merged_transfers = 0
    if remap:
        recv_of_send: dict[int, object] = {}  # send uid -> its recv
        for item in items:
            if item.kind == "recv":
                recv_of_send[item.sources[0][0].uid] = item
        by_route: dict = {}
        for item in items:
            if item.kind != "send" or item.uid in remap:
                continue
            if item.sources:
                producer, idx = item.sources[0]
                payload = ("data", canonical(producer).uid, idx)
            else:
                payload = ("ctrl", canonical(item.extra_deps[0]).uid)
            route = (payload, item.dst_device)
            kept = by_route.get(route)
            if kept is None:
                by_route[route] = item
                continue
            remap[item.uid] = kept
            remap[recv_of_send[item.uid].uid] = recv_of_send[kept.uid]
            merged_transfers += 1

    if not remap:
        return items, fetch_sources, PassStats(
            name="transfer_coalescing", nodes_before=before, nodes_after=before
        )

    # -- 3. rewire every reference through the remap --------------------------
    survivors = [item for item in items if item.uid not in remap]
    for item in survivors:
        item.sources = [
            src if src[0] is FEED else (canonical(src[0]), src[1])
            for src in item.sources
        ]
        deps = []
        seen = set()
        for dep in item.extra_deps:
            dep = canonical(dep)
            if dep.uid not in seen and dep is not item:
                seen.add(dep.uid)
                deps.append(dep)
        item.extra_deps = deps
    fetch_sources = [
        src if src[0] is FEED else (canonical(src[0]), src[1])
        for src in fetch_sources
    ]
    return survivors, fetch_sources, PassStats(
        name="transfer_coalescing",
        nodes_before=before,
        nodes_after=len(survivors),
        detail={
            "constants_merged": merged_consts,
            "transfers_merged": merged_transfers,
        },
    )
