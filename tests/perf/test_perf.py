"""Metrics conventions, calibration registry, and report formatting."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgumentError, NotFoundError
from repro.perf.calibration import PAPER_TARGETS, paper_target
from repro.perf.metrics import (
    bandwidth_mbs,
    cg_flops,
    fft_flops,
    gflops,
    matmul_flops,
    scaling_factor,
)
from repro.perf.reporting import comparison_row, format_table


class TestFlopConventions:
    def test_matmul_formula(self):
        # Paper VI-B: "We estimate the flop count as 2N^3 - N^2".
        assert matmul_flops(1024) == 2 * 1024**3 - 1024**2

    def test_cg_formula(self):
        # Paper VI-C: 500 * 2 * N^2.
        assert cg_flops(16384, iterations=500) == 500 * 2 * 16384**2

    def test_fft_formula(self):
        # Paper VI-D: 5 N log2 N.
        n = 1 << 20
        assert fft_flops(n) == 5 * n * 20

    @pytest.mark.parametrize("fn,bad", [
        (matmul_flops, 0),
        (fft_flops, 1),
        (lambda n: cg_flops(n, 0), 128),
    ])
    def test_invalid_inputs(self, fn, bad):
        with pytest.raises(InvalidArgumentError):
            fn(bad)

    def test_gflops_and_bandwidth(self):
        assert gflops(2e9, 2.0) == pytest.approx(1.0)
        assert bandwidth_mbs(1024 * 1024, 1.0) == pytest.approx(1.0)
        with pytest.raises(InvalidArgumentError):
            gflops(1.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            bandwidth_mbs(1.0, -1.0)

    def test_scaling_factor(self):
        assert scaling_factor(100.0, 180.0) == pytest.approx(1.8)
        with pytest.raises(InvalidArgumentError):
            scaling_factor(0.0, 1.0)

    @given(st.integers(min_value=2, max_value=1 << 24))
    @settings(max_examples=40, deadline=None)
    def test_property_fft_flops_monotone(self, n):
        assert fft_flops(n + 1) > fft_flops(n)


class TestCalibrationRegistry:
    def test_all_targets_have_provenance(self):
        for key, target in PAPER_TARGETS.items():
            assert target.key == key
            assert target.value > 0
            assert target.unit
            assert len(target.source) > 10, f"{key} lacks a citation"
            assert target.figure in ("Fig. 7", "Fig. 8", "Fig. 10", "Fig. 11")
            assert target.over is None or target.point is not None

    def test_key_paper_numbers_present(self):
        assert paper_target("stream/tegner-cpu/rdma/128MB").value == 6000
        assert paper_target("matmul/kebnekaise-k80/32768/peak-16gpu").value == 2478
        assert paper_target("cg/tegner-k80/32768/scaling-2to4").value == 1.74
        assert paper_target("cg/kebnekaise-v100/8gpu-gflops").value == 300

    def test_unknown_key(self):
        with pytest.raises(NotFoundError):
            paper_target("nonexistent/metric")

    def test_figure_read_targets_marked_approx(self):
        assert paper_target("stream/tegner-gpu/grpc/128MB").approx
        assert not paper_target("stream/tegner-gpu/mpi/128MB").approx


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"],
                            [["a", 1.0], ["long-name", 1234.5]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1, "all rows must be equally wide"

    def test_number_formatting(self):
        text = format_table(["x"], [[2478.0], [1.74], [0.5], [12.3]])
        assert "2,478" in text
        assert "1.74" in text
        assert "12.3" in text

    def test_comparison_row(self):
        row = comparison_row("matmul/kebnekaise-k80/32768/peak-16gpu", 2478.0)
        assert row[0].startswith("matmul/")
        assert "2478" in row[1].replace(",", "")
        assert row[3] == "1.00x"

    def test_comparison_row_marks_approx(self):
        row = comparison_row("stream/tegner-gpu/grpc/128MB", 110.0)
        assert row[1].startswith("~")
