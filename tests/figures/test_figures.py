"""Figure drivers: Table I derivation, formatting, and small live slices."""

import pytest

from repro.apps.fft import FFTResult
from repro.apps.matmul import MatmulResult
from repro.apps.stream import StreamResult
from repro.figures import fig7_stream, fig8_matmul, fig10_cg, fig11_fft
from repro.figures.table1_nodes import format_table1, run_table1, topology_diagram


class TestTable1:
    def test_matches_paper_table(self):
        rows = {r["node_type"]: r for r in run_table1()}
        assert rows["Tegner K420"]["instances"] == 1
        assert rows["Tegner K80"]["instances"] == 2
        assert rows["Kebnekaise K80"]["instances"] == 4
        assert rows["Kebnekaise V100"]["instances"] == 2
        assert rows["Tegner K420"]["gpu_memory_gb"] == 1
        assert rows["Tegner K80"]["gpu_memory_gb"] == 12
        assert rows["Kebnekaise K80"]["gpu_memory_gb"] == 12
        assert rows["Kebnekaise V100"]["gpu_memory_gb"] == 16
        # Every instance gets exactly one GPU engine.
        assert all(r["gpus_per_instance"] == 1 for r in rows.values())

    def test_format_contains_all_rows(self):
        text = format_table1(run_table1())
        for label in ("Tegner K420", "Tegner K80", "Kebnekaise K80",
                      "Kebnekaise V100"):
            assert label in text

    def test_topology_mentions_numa_and_qpi(self):
        text = topology_diagram()
        assert "QPI" in text
        assert "NUMA island 0" in text and "NUMA island 1" in text
        assert "GK210" in text


class TestFig7Driver:
    def test_small_live_slice(self):
        points = fig7_stream.run_fig7(iterations=3, sizes=(2,))
        assert len(points) == 9
        table = fig7_stream.format_fig7(points)
        assert "Tegner GPU" in table and "RDMA" in table

    def test_comparison_requires_128mb(self):
        points = fig7_stream.run_fig7(iterations=3, sizes=(2,))
        # No 128 MB points -> comparison table has no data rows beyond header.
        text = fig7_stream.paper_comparison(points)
        assert "target" in text


class TestFig8Formatting:
    def _points(self):
        result = MatmulResult(system="tegner-k420", n=1024, tile=256,
                              num_gpus=2, num_reducers=2, protocol="grpc+verbs",
                              elapsed=2.0, products=64, validated=False)
        return [
            fig8_matmul.Fig8Point("tegner-k420", 1024, 2, result),
            fig8_matmul.Fig8Point("tegner-k420", 1024, 4, None),  # OOM
        ]

    def test_format_includes_oom_rows(self):
        text = fig8_matmul.format_fig8(self._points())
        assert "OOM" in text
        assert "2+2" in text and "2+4" in text

    def test_gflops_math(self):
        point = self._points()[0]
        expected = (2 * 1024**3 - 1024**2) / 2.0 / 1e9
        assert point.result.gflops == pytest.approx(expected)


class TestFig10Formatting:
    def test_oom_points_render(self):
        from repro.apps.cg import CGResult

        ok = CGResult(system="tegner-k80", n=1024, num_gpus=2, iterations=10,
                      elapsed=1.0, residual=float("nan"), validated=False)
        points = [
            fig10_cg.Fig10Point("tegner-k80", 1024, 2, ok),
            fig10_cg.Fig10Point("tegner-k80", 65536, 2, None),
        ]
        text = fig10_cg.format_fig10(points)
        assert "OOM" in text
        assert "ms/iteration" in text


class TestFig11Driver:
    def test_small_live_slice(self, monkeypatch):
        monkeypatch.setattr(
            fig11_fft, "SWEEP",
            {"tegner-k420": dict(n=1 << 16, tiles=8, gpus=(2, 4))},
        )
        points = fig11_fft.run_fig11()
        assert len(points) == 2
        assert all(p.result is not None for p in points)
        text = fig11_fft.format_fig11(points)
        assert "1+2" in text and "1+4" in text

    def test_gflops_with_merge_lower(self):
        result = FFTResult(system="tegner-k80", n=1 << 20, num_tiles=16,
                           num_gpus=4, collect_seconds=1.0, merge_seconds=3.0,
                           validated=False)
        assert result.gflops_with_merge < result.gflops
        assert result.gflops == pytest.approx(result.flops / 1e9)


class TestStreamResultMath:
    def test_bandwidth_properties(self):
        result = StreamResult(system="tegner-k420", device="cpu",
                              protocol="grpc+verbs", size_bytes=2 * 1024 * 1024,
                              iterations=10, seconds_per_transfer=1.0,
                              validated=True)
        assert result.bandwidth == pytest.approx(2 * 1024 * 1024)
        assert result.bandwidth_mbs == pytest.approx(2.0)
