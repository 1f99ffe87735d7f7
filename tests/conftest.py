"""Fixtures shared across the test tree."""

import pytest

from repro.runtime.collective import get_strategy


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
