"""The committed bite matrix (``sensitivity.json``) and the parameter
table's provenance against the live model.

The matrix itself takes minutes and runs in CI; these checks run none of
it: its constant list is the table's keys, every constant has a verdict,
every claim its plant magnitude, every key a unit and a source the paper
rows and the matrix bear out, and a plant on each machine's Lustre rates
reaches an FFT point.
"""

import json
from pathlib import Path

import pytest

import repro
from paper_claims import CLAIMS, Plant, measure
from repro.perf.calibration import PAPER_TARGETS
from repro.simnet.parameters import PARAMETERS, unit
from sensitivity import _local_session


@pytest.fixture(scope="module")
def matrix():
    return json.loads((Path(__file__).parent / "sensitivity.json").read_text())


def test_the_matrix_lists_exactly_the_live_constants(matrix):
    assert sorted(matrix["constants"]) == sorted(PARAMETERS), (
        "a model parameter was added or removed: regenerate sensitivity.json")


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
        assert entry["plant"] == claim.plant.key, claim.name
        ratio = claim.plant.value / claim.plant.current()
        assert entry["ratio"] == float(f"{ratio:.4g}"), claim.name
        assert entry["structural"] == (not 0.1 <= ratio <= 10.0), claim.name


def test_every_parameter_has_a_unit():
    for key in PARAMETERS:
        assert unit(key), key


def test_every_source_is_a_vendor_a_paper_row_or_unvalidated():
    for key, parameter in PARAMETERS.items():
        kind, _, row = parameter.source.partition(":")
        if kind in ("paper", "fitted"):
            assert row in PAPER_TARGETS, key
        else:
            assert parameter.source in ("vendor", "unvalidated"), key


def test_every_fitted_parameter_is_bitten_on_its_row(matrix):
    # A "fitted" label the matrix contradicts -- the row does not move
    # when the constant does -- is no fit.
    for key, parameter in PARAMETERS.items():
        kind, _, row = parameter.source.partition(":")
        if kind == "fitted":
            assert row in matrix["constants"][key]["rows"], key


# An FFT point that reads each machine's Lustre, with the part its keys
# are under: Fig. 11 on Tegner, the FFT app on Kebnekaise, and a local
# session's tile reads and FFTs on localhost, which is a Kebnekaise node
# and reads Kebnekaise's Lustre. A hundredth of the rate: the aggregate
# OST rate binds only below the NIC's (~2.2 GB/s on FDR).
FFT_POINTS = {
    "tegner": ("tegner", lambda: measure([("Fig. 11", "tegner-k80", 4)])),
    "kebnekaise": ("kebnekaise", lambda: measure(
        [("FFT", "kebnekaise-k80", 1 << 24, 16, 4)])),
    "localhost": ("kebnekaise",
                  lambda: _local_session(repro.float32, repro.complex64)),
}


@pytest.mark.parametrize("machine", sorted(FFT_POINTS))
@pytest.mark.parametrize("field", ["lustre_rate", "lustre_client_rate"])
def test_a_plant_on_a_lustre_rate_moves_an_fft_point(field, machine,
                                                     monkeypatch):
    part, point = FFT_POINTS[machine]
    before = point()
    key = f"{part}.{field}"
    Plant(key, PARAMETERS[key].value / 100).apply(monkeypatch)
    assert point() != before
