"""Fixtures shared across the test tree."""

import pytest

import repro
from repro.runtime.collective import get_strategy
from repro.simnet.parameters import PARAMETERS


@pytest.fixture
def wire_bound():
    """``wire_bound(op_type, algorithm, world, nbytes_per_rank, rate)``:
    the time no run of the schedule can beat. Every round lasts at least
    as long as its largest send takes at the fabric's ``rate``, so the
    bound is ``sum over rounds of max(send nbytes) / rate``, read off the
    registered round list itself."""

    def bound(op_type, algorithm, world, nbytes_per_rank, rate):
        rounds = get_strategy(op_type, algorithm)(world, nbytes_per_rank)
        return sum(
            max(nbytes for _src, _dst, _chunk, nbytes in round_.sends)
            for round_ in rounds
        ) / rate

    return bound


@pytest.fixture
def small_memory(monkeypatch):
    """``small_memory(device_type, nbytes)``: every local session built
    after the call has ``nbytes`` of memory on its ``device_type``
    (``"cpu"`` or ``"gpu"``) devices. Plants ``<part>.mem_capacity``,
    the part read off the machine a local session builds, so a change
    of local parts edits no test."""

    def plant(device_type, nbytes):
        with repro.Session(graph=repro.Graph()) as sess:
            [node] = sess.machine.nodes.values()
            part = node.device(device_type).model.name
        key = f"{part}.mem_capacity"
        monkeypatch.setitem(PARAMETERS, key,
                            PARAMETERS[key]._replace(value=nbytes))

    return plant
