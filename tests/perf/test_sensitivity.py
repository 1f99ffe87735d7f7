"""The committed bite matrix (``sensitivity.json``) against the live model.

The matrix itself takes minutes and runs in CI; these checks run none of
it: its constant list is the live set, every constant has a verdict,
every claim its plant magnitude, and a plant on each machine's Lustre
rates reaches an FFT point.
"""

import json
from pathlib import Path

import pytest

import repro
from paper_claims import CLAIMS, Plant, measure
from repro.simnet import machines
from sensitivity import _local_session, live_constants

@pytest.fixture(scope="module")
def matrix():
    return json.loads((Path(__file__).parent / "sensitivity.json").read_text())


def test_the_matrix_lists_exactly_the_live_constants(matrix):
    assert sorted(matrix["constants"]) == sorted(live_constants()), (
        "a simnet constant was added or removed: regenerate sensitivity.json")


def test_every_live_constant_is_bitten_or_unvalidated(matrix):
    for key, entry in matrix["constants"].items():
        # "deleted": nothing reads it, so it has no place in the model.
        assert entry["verdict"] in ("bitten", "unvalidated"), key
        assert (entry["verdict"] == "bitten") == bool(
            entry["rows"] or entry["claims"]), key


def test_every_claim_has_its_plant_magnitude(matrix):
    assert sorted(matrix["claims"]) == sorted(claim.name for claim in CLAIMS)
    for claim in CLAIMS:
        entry = matrix["claims"][claim.name]
        ratio = claim.plant.value / claim.plant.current()
        assert entry["ratio"] == float(f"{ratio:.4g}"), claim.name
        assert entry["structural"] == (not 0.1 <= ratio <= 10.0), claim.name


# An FFT point that reads each machine's Lustre: Fig. 11 on Tegner, the FFT
# app on Kebnekaise, a local session's tile reads and FFTs on localhost.
# A hundredth of the rate: localhost's reads are capped by its 1GbE NIC
# (~119 MB/s), so its 2 GB/s rates bind only below that.
FFT_POINTS = {
    "tegner": lambda: measure([("Fig. 11", "tegner-k80", 4)]),
    "kebnekaise": lambda: measure([("FFT", "kebnekaise-k80", 1 << 24, 16, 4)]),
    "localhost": lambda: _local_session(repro.float32, repro.complex64),
}


@pytest.mark.parametrize("machine", sorted(FFT_POINTS))
@pytest.mark.parametrize("table", ["LUSTRE_RATE", "LUSTRE_CLIENT_RATE"])
def test_a_plant_on_a_lustre_rate_moves_an_fft_point(table, machine,
                                                     monkeypatch):
    before = FFT_POINTS[machine]()
    rate = getattr(machines, table)[machine]
    Plant(machines, table, machine, rate / 100).apply(monkeypatch)
    assert FFT_POINTS[machine]() != before
