"""Tier-1 checks of the paper's findings (``paper_claims``): every claim
holds, every claim fails under its plant, and every paper row renders
from the figure sweep."""

from __future__ import annotations

import pytest

from paper_claims import (
    CLAIMS,
    FIGURES,
    Plant,
    measure,
    row_points,
)
from repro.perf.calibration import PAPER_TARGETS
from repro.perf.reporting import comparison_table
from repro.simnet.parameters import PARAMETERS


@pytest.fixture(scope="session")
def sweep():
    """``sweep(figure)``: every point the figure's rows and claims read,
    measured once per session."""
    done: dict = {}

    def of(figure: str) -> dict:
        if figure not in done:
            points = row_points(figure).union(*(
                claim.points for claim in CLAIMS if claim.figure == figure))
            done[figure] = measure(sorted(points, key=repr))
        return done[figure]

    return of


CLAIM_IDS = [claim.name for claim in CLAIMS]


@pytest.mark.parametrize("claim", CLAIMS, ids=CLAIM_IDS)
def test_claim_holds(claim, sweep):
    measured = sweep(claim.figure)
    values = [measured[point] for point in claim.points]
    assert claim.holds(*values), f"{claim.sentence}: {values}"


@pytest.mark.parametrize("claim", CLAIMS, ids=CLAIM_IDS)
def test_claim_fails_under_its_plant(claim, monkeypatch):
    claim.plant.apply(monkeypatch)
    values = list(measure(claim.points).values())
    assert not claim.holds(*values), (
        f"{claim.plant} leaves {claim.name!r} holding: {values}")


def test_a_plant_on_gigabit_ethernet_reaches_tegner_grpc(monkeypatch):
    # Tegner resolves gRPC over 1GbE: its bandwidth follows the table's
    # Ethernet entry as the machine is built.
    point = ("Fig. 7", "Tegner GPU", "gRPC", 128)
    before = measure([point])[point]
    Plant("1GbE.port_rate",
          2 * PARAMETERS["1GbE.port_rate"].value).apply(monkeypatch)
    assert measure([point])[point] > 1.5 * before


def test_every_claim_plants_one_simnet_parameter():
    assert len(set(CLAIM_IDS)) == len(CLAIM_IDS)
    for claim in CLAIMS:
        assert claim.figure in FIGURES, claim.name
        assert claim.points and claim.sentence, claim.name
        plant = claim.plant
        assert isinstance(plant, Plant), claim.name
        assert plant.key in PARAMETERS, claim.name
        assert plant.current() != plant.value, claim.name


@pytest.mark.parametrize("figure", FIGURES)
def test_every_paper_row_renders_from_the_sweep(figure, sweep):
    measured = {point[1:]: value for point, value in sweep(figure).items()
                if point[0] == figure}
    table = comparison_table(figure, measured).splitlines()
    rows = [row.key for row in PAPER_TARGETS.values()
            if row.figure == figure and row.point is not None]
    # title, header, separator, then one line per row, in table order
    assert [line.split("|")[0].strip() for line in table[3:]] == rows
