"""The fuzz catalog is a query over the op registry.

Coverage (every registered op drawable or excluded with a reason) and
consistency with the registry are asserted per op type by the
registration sweep in ``tests/core/test_kernel_parity.py``.
"""

from repro.fuzz.catalog import catalog


def test_variables_and_collectives_are_drawable():
    entries = catalog()
    assert "VariableV2" in entries
    assert {"Assign", "AssignAdd", "AssignSub"} <= set(entries)
    assert "CollectiveAllReduce" in entries
    assert entries["Assign"].stateful
    assert entries["Add"].pure and not entries["Add"].stateful
