"""Metrics conventions, calibration registry, and report formatting."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.cg import CGResult
from repro.apps.fft import FFTResult
from repro.apps.matmul import MatmulResult
from repro.apps.stream import StreamResult
from repro.errors import NotFoundError
from repro.perf.calibration import PAPER_TARGETS, paper_target
from repro.perf.reporting import comparison_row, format_table


def _matmul(n, elapsed=1.0):
    return MatmulResult("tegner-k420", n, tile=n, num_gpus=1, num_reducers=1,
                        protocol="grpc", elapsed=elapsed, products=1,
                        validated=True)


def _fft(n):
    return FFTResult("tegner-k80", n, num_tiles=1, num_gpus=1,
                     collect_seconds=1.0, merge_seconds=0.0, validated=True)


class TestFlopConventions:
    """The paper's conventions, on the results every figure reads."""

    def test_matmul_formula(self):
        # Paper VI-B: "We estimate the flop count as 2N^3 - N^2".
        assert _matmul(1024).flops == 2 * 1024**3 - 1024**2

    def test_cg_formula(self):
        # Paper VI-C: 500 * 2 * N^2.
        result = CGResult("kebnekaise-v100", 16384, num_gpus=2, iterations=500,
                          elapsed=1.0, residual=0.0, validated=True)
        assert result.flops == 500 * 2 * 16384**2

    def test_fft_formula(self):
        # Paper VI-D: 5 N log2 N.
        n = 1 << 20
        assert _fft(n).flops == 5 * n * 20

    def test_gflops_and_bandwidth(self):
        # The paper's units: Gflop/s, and MB/s with MB = 2**20 B (Fig. 7).
        # 2 * 1000**3 - 1000**2 = 1.999e9 flops in 1.999 s.
        assert _matmul(1000, elapsed=1.999).gflops == pytest.approx(1.0)
        stream = StreamResult("tegner-k420", "gpu", "grpc", 1024 * 1024,
                              iterations=1, seconds_per_transfer=1.0,
                              validated=True)
        assert stream.bandwidth_mbs == pytest.approx(1.0)

    @given(st.integers(min_value=2, max_value=1 << 24))
    @settings(max_examples=40, deadline=None)
    def test_property_fft_flops_monotone(self, n):
        assert _fft(n + 1).flops > _fft(n).flops


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
