"""The paper's findings, as claims the simulator must keep.

The paper works bottom-up: STREAM (Fig. 7) explains tiled matmul
(Fig. 8), and matmul explains CG and FFT (Figs. 10 and 11). Its findings
are orderings and bands ("RDMA > MPI > gRPC", "two reducers beat one").
Each finding is one :class:`Claim`: the figure and paper sentence, the
points it reads, a predicate over their measured values, and one
:class:`Plant` -- a single ``repro.simnet`` model parameter whose change
must break the claim. Tier-1 (``test_paper_claims.py``) checks that every
claim holds and that it fails under its plant, so no claim is vacuous;
``sensitivity.py`` steps every model constant over the same points. This
module needs numpy only, so that matrix runs without pytest.

A point is ``(probe, *args)``; :data:`PROBES` turns it into one measured
number, ``None`` for a point that runs out of memory. The figure probes
run the figure drivers' own points (``repro.figures.*.run_point``), so a
paper row of ``repro.perf.calibration`` names its point as
``(row.figure, *row.point)``. Each figure is swept once per session, over
the points its rows and claims read; a planted run re-measures only the
planted claim's points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.apps.cg import run_cg
from repro.apps.common import build_cluster
from repro.apps.fft import run_fft
from repro.apps.matmul import run_matmul
from repro.figures import fig7_stream, fig8_matmul, fig10_cg, fig11_fft
from repro.perf.calibration import PAPER_TARGETS, paper_target
from repro.simnet.parameters import PARAMETERS

# CG's per-iteration time is constant: 4 iterations give every Fig. 10
# point within 2 % of its 40-iteration Gflops/s, at a tenth of the cost.
CG_ITERATIONS = 4
FIGURES = ("Fig. 7", "Fig. 8", "Fig. 10", "Fig. 11")


def _k420_peak_memory(tile: int) -> float:
    """Peak fraction of a worker K420's memory over a 2x2-tile matmul."""
    cluster = build_cluster("tegner-k420", {"worker": 2, "reducer": 2})
    run_matmul(system="tegner-k420", n=2 * tile, tile=tile, num_gpus=2,
               shape_only=True, cluster=cluster)
    return max(
        pool.peak / pool.capacity
        for (job, _index), server in cluster.servers.items() if job == "worker"
        for name, pool in server.runtime.memory_pools.items() if "gpu" in name
    )


PROBES: dict[str, Callable[..., Optional[float]]] = {
    "Fig. 7": lambda *key: fig7_stream.run_point(*key).value,
    "Fig. 8": lambda *key: fig8_matmul.run_point(*key).value,
    "Fig. 10": lambda *key: fig10_cg.run_point(
        *key, iterations=CG_ITERATIONS).value,
    "Fig. 11": lambda *key: fig11_fft.run_point(*key).value,
    "matmul": lambda system, n, tile, gpus, reducers: run_matmul(
        system=system, n=n, tile=tile, num_gpus=gpus,
        num_reducers=reducers, shape_only=True).gflops,
    "CG": lambda system, n, gpus, protocol: run_cg(
        system=system, n=n, num_gpus=gpus, iterations=CG_ITERATIONS,
        protocol=protocol, shape_only=True).gflops,
    "FFT": lambda system, n, tiles, gpus: run_fft(
        system=system, n=n, num_tiles=tiles, num_gpus=gpus,
        shape_only=True).gflops,
    "FFT with merge": lambda system, n, tiles, gpus: run_fft(
        system=system, n=n, num_tiles=tiles, num_gpus=gpus,
        shape_only=True).gflops_with_merge,
    "K420 memory": _k420_peak_memory,
}


def measure(points) -> dict:
    return {point: PROBES[point[0]](*point[1:]) for point in points}


@dataclass(frozen=True)
class Plant:
    """One model parameter (a key of
    :data:`repro.simnet.parameters.PARAMETERS`) set to a value that must
    break a claim."""

    key: str
    value: float

    def current(self) -> float:
        return PARAMETERS[self.key].value

    def apply(self, monkeypatch) -> None:
        """Plant through ``monkeypatch`` (its ``setitem``)."""
        monkeypatch.setitem(PARAMETERS, self.key,
                            PARAMETERS[self.key]._replace(value=self.value))


@dataclass(frozen=True)
class Claim:
    name: str
    figure: str
    sentence: str
    points: tuple
    holds: Callable[..., bool]  # over the values of ``points``, in order
    plant: Plant


def _fig7(platforms, protocols, sizes):
    return tuple(("Fig. 7", platform, protocol, size)
                 for platform in platforms for size in sizes
                 for protocol in protocols)


def _fig8(system, n, *gpus):
    return tuple(("Fig. 8", system, n, g) for g in gpus)


def _fig10(system, n, *gpus):
    return tuple(("Fig. 10", system, n, g) for g in gpus)


def _fig11(system, *gpus):
    return tuple(("Fig. 11", system, g) for g in gpus)


def _pairs(values):
    return zip(values[0::2], values[1::2])


TEGNER = ("Tegner GPU", "Tegner CPU")
FFT_2_26 = ("tegner-k80", 1 << 26, 64)

CLAIMS = [
    # ---- Fig. 7 / VI-A: STREAM -----------------------------------------
    Claim(
        "fig7/rdma>mpi>grpc-on-tegner", "Fig. 7",
        "VI-A: RDMA gives the highest bandwidth and 'gRPC gives the "
        "lowest bandwidth on Tegner', MPI in between, at every size and "
        "placement",
        _fig7(TEGNER, ("RDMA", "MPI", "gRPC"), (2, 16, 128)),
        lambda *bw: all(bw[i] > bw[i + 1] > bw[i + 2]
                        for i in range(0, len(bw), 3)),
        Plant("rdma.latency", 10e-3),
    ),
    Claim(
        "fig7/host-rdma-over-half-of-theoretical", "Fig. 7",
        "VI-A: 'over 6 GB/s on Tegner when tensors are placed in CPU host "
        "memory' against 'theoretical bandwidth on Tegner is 12 GB/s'",
        _fig7(("Tegner CPU",), ("RDMA",), (128,)),
        lambda bw: bw > 0.5 * paper_target("stream/tegner/theoretical").value,
        Plant("EDR InfiniBand.efficiency", 0.45),
    ),
    Claim(
        "fig7/k420-rdma-saturates-near-1300", "Fig. 7",
        "VI-A: 'bandwidth saturates at approximately 1300 MB/s on Tegner "
        "where tensors are hosted on K420 GPUs'",
        _fig7(("Tegner GPU",), ("RDMA",), (128,)),
        lambda bw: 1000 < bw < 1500,
        Plant("K420.pcie_rate", 3.0e9),
    ),
    Claim(
        "fig7/k80-rdma-saturates-below-2300", "Fig. 7",
        "VI-A: 'bandwidth saturates at below 2300 MB/s where tensors are "
        "hosted on K80 GPUs'",
        _fig7(("Kebnekaise GPU",), ("RDMA",), (128,)),
        lambda bw: 1700 < bw < 2300,
        Plant("FDR InfiniBand.efficiency", 0.2),
    ),
    Claim(
        "fig7/mpi-plateaus-in-the-hundreds", "Fig. 7",
        "VI-A: MPI reaches 'approximately 318 MB/s on Tegner' and "
        "'approximately 480 MB/s ... on Kebnekaise'",
        _fig7(("Tegner GPU", "Kebnekaise GPU"), ("MPI",), (128,)),
        lambda tegner, kebnekaise: (250 < tegner < 420
                                    and 300 < kebnekaise < 600),
        Plant("2xE5-2690v3.serialize_rate", 14e9),
    ),
    Claim(
        "fig7/kebnekaise-grpc-comparable-to-mpi", "Fig. 7",
        "VI-A: on Kebnekaise gRPC resolves over InfiniBand and gives "
        "bandwidth similar to MPI's",
        _fig7(("Kebnekaise GPU",), ("gRPC", "MPI"), (128,)),
        lambda grpc, mpi: abs(grpc - mpi) <= 0.6 * mpi,
        Plant("FDR InfiniBand.ip_efficiency", 0.02),
    ),
    Claim(
        "fig7/small-transfers-pay-latency", "Fig. 7",
        "Fig. 7: every placement's RDMA bar grows from 2 MB to 128 MB; the "
        "per-run latency costs a 2 MB transfer over a tenth of its "
        "bandwidth",
        _fig7(TEGNER + ("Kebnekaise GPU",), ("RDMA",), (2, 128)),
        lambda *bw: all(small < 0.9 * large for small, large in _pairs(bw)),
        Plant("grpc.latency", 0.0),
    ),
    # ---- Fig. 8 / VI-B: tiled matmul -----------------------------------
    Claim(
        "fig8/k420-doubles-per-doubling", "Fig. 8",
        "VI-B: 'approximately 2x increase in performance when increasing "
        "the number of GPUs from two to four with K420 GPUs' and 'similar "
        "... from four to eight'",
        _fig8("tegner-k420", 32768, 2, 4, 8),
        lambda g2, g4, g8: 1.7 < g4 / g2 < 2.2 and 1.7 < g8 / g4 < 2.2,
        Plant("2xE5-2690v3.python_bytes_rate", 0.02e9),
    ),
    Claim(
        "fig8/tegner-k80-1.8x", "Fig. 8",
        "VI-B: 'roughly 1.8x improvement when scaling from two to four "
        "GPUs with problem size 65536'",
        _fig8("tegner-k80", 65536, 2, 4),
        lambda g2, g4: 1.5 < g4 / g2 < 2.1,
        Plant("2xE5-2690v3.python_bytes_rate", 0.02e9),
    ),
    Claim(
        "fig8/kebnekaise-1.4x", "Fig. 8",
        "VI-B: Kebnekaise is 'less satisfactory', a 'scaling of 1.4x when "
        "scaling from two to four GPUs'",
        _fig8("kebnekaise-k80", 32768, 2, 4),
        lambda g2, g4: 1.0 < g4 / g2 < 1.6,
        Plant("FDR InfiniBand.efficiency", 1.0),
    ),
    Claim(
        "fig8/kebnekaise-scales-worse-than-tegner", "Fig. 8",
        "VI-B: Kebnekaise's 1.4x from two to four GPUs is below Tegner "
        "K420's 2x",
        _fig8("kebnekaise-k80", 32768, 2, 4) + _fig8("tegner-k420", 32768, 2, 4),
        lambda keb2, keb4, tegner2, tegner4: keb4 / keb2 < tegner4 / tegner2,
        Plant("2xE5-2690v3.python_bytes_rate", 0.02e9),
    ),
    Claim(
        "fig8/kebnekaise-16gpu-peak", "Fig. 8",
        "VI-B: 'peak performance of 2478 Gflops/s when running on 16 K80 "
        "GPUs for problem size 32768' (same order)",
        _fig8("kebnekaise-k80", 32768, 16),
        lambda peak: 1500 < peak < 5000,
        Plant("K80-GK210.matmul_efficiency", 0.01),
    ),
    Claim(
        "fig8/kebnekaise-flattens-8to16", "Fig. 8",
        "VI-B / Fig. 9: Kebnekaise flattens; 8 to 16 GPUs gains under 1.5x",
        _fig8("kebnekaise-k80", 32768, 8, 16),
        lambda g8, g16: g16 / g8 < 1.5,
        Plant("K80-GK210.matmul_efficiency", 0.05),
    ),
    Claim(
        "fig8/k80-prefers-8192-tiles", "Fig. 8",
        "VI-B: tile 8192 on K80 (4096 only on the K420): larger tiles "
        "carry more flops per byte read and staged, worth over 1.2x",
        tuple(("matmul", "tegner-k80", 32768, tile, 4, 2)
              for tile in (4096, 8192)),
        lambda small, large: large > 1.2 * small,
        Plant("K80-GK210.matmul_efficiency", 0.02),
    ),
    Claim(
        "fig8/k420-8192-tiles-leave-no-headroom", "Fig. 8",
        "VI-B: Tegner runs tile 4096 on the 1 GB K420: two 8192^2 inputs "
        "and one output fill over 70 % of it, 4096 tiles under 40 %",
        (("K420 memory", 4096), ("K420 memory", 8192)),
        lambda small, large: large > 0.70 and small < 0.40,
        Plant("K420.mem_capacity", 4 * 1024**3),
    ),
    Claim(
        "fig8/two-reducers-beat-one", "Fig. 8",
        "VI-B: two reducers keyed by target parity; a second reducer "
        "gains more than a third and fourth",
        tuple(("matmul", "tegner-k80", 32768, 8192, 8, r) for r in (1, 2, 4)),
        lambda r1, r2, r4: r2 > r1 and r4 / r2 < r2 / r1,
        Plant("EDR InfiniBand.efficiency", 0.05),
    ),
    # ---- Fig. 10 / VI-C: CG --------------------------------------------
    Claim(
        "fig10/tegner-k80-1.74x", "Fig. 10",
        "VI-C: 'approximately 1.74x improvement ... from two to four K80 "
        "GPUs with problem size 32768'",
        _fig10("tegner-k80", 32768, 2, 4),
        lambda g2, g4: 1.5 < g4 / g2 < 2.0,
        Plant("rdma.latency", 10e-3),
    ),
    Claim(
        "fig10/kebnekaise-ladder-flattens", "Fig. 10",
        "VI-C: 'a scaling of 1.6x ... from two to four K80 GPUs', then "
        "'scaling drops to 1.3x'",
        _fig10("kebnekaise-k80", 32768, 2, 4, 8),
        lambda g2, g4, g8: (1.4 < g4 / g2 < 2.0 and 1.0 < g8 / g4 < 1.6
                            and g8 / g4 < g4 / g2),
        Plant("rdma.latency", 1e-3),
    ),
    Claim(
        "fig10/kebnekaise-65536-8to16", "Fig. 10",
        "VI-C: 'improvement of 1.36x when scaling from eight to 16 K80 "
        "GPUs'",
        _fig10("kebnekaise-k80", 65536, 8, 16),
        lambda g8, g16: 1.1 < g16 / g8 < 1.6,
        Plant("K80-GK210.mem_bandwidth", 10e9),
    ),
    Claim(
        "fig10/v100-8gpu-over-300", "Fig. 10",
        "VI-C: 'our CG solver, running on eight V100 GPUs gave over 300 "
        "Gflops/s'",
        _fig10("kebnekaise-v100", 32768, 8),
        lambda gflops: gflops
        > paper_target("cg/kebnekaise-v100/8gpu-gflops").value,
        Plant("V100.mem_bandwidth", 300e9),
    ),
    Claim(
        "fig10/v100-modest-scaling", "Fig. 10",
        "VI-C: V100 nodes 'give 1.26x improvement ... from two to four': "
        "the problem underutilizes such a powerful GPU",
        _fig10("kebnekaise-v100", 32768, 2, 4),
        lambda g2, g4: 1.1 < g4 / g2 < 1.6,
        Plant("V100.mem_bandwidth", 30e9),
    ),
    Claim(
        "fig10/16384-barely-scales", "Fig. 10",
        "VI-C: problem size 16384 shows 'little scaling'",
        _fig10("kebnekaise-v100", 16384, 2, 8),
        lambda g2, g8: g8 / g2 < 1.6,
        Plant("V100.mem_bandwidth", 30e9),
    ),
    Claim(
        "fig10/65536-oom-under-8-gpus", "Fig. 10",
        "VI-C: 'we do not report result for problem size 65536 x 65536 due "
        "to insufficient memory' below eight GPUs",
        sum((_fig10(system, 65536, 2, 4) for system in fig10_cg.SWEEP), ()),
        lambda *gflops: all(g is None for g in gflops),
        Plant("K80-GK210.mem_capacity", 64 * 1024**3),
    ),
    Claim(
        "fig10/cg-is-latency-sensitive", "Fig. 10",
        "VI-C: CG's per-iteration reductions make protocol latency "
        "visible: verbs >= MPI > gRPC",
        tuple(("CG", "tegner-k80", 16384, 4, protocol)
              for protocol in ("grpc+verbs", "grpc+mpi", "grpc")),
        lambda verbs, mpi, grpc: verbs >= mpi > grpc,
        Plant("mpi.latency", 1e-3),
    ),
    # ---- Fig. 11 / VI-D: FFT -------------------------------------------
    Claim(
        "fig11/2to4-1.6-to-1.8x", "Fig. 11",
        "VI-D: 'approximately 1.6x to 1.8x increase in performance' from "
        "two to four GPUs on both configurations (up to ideal 2x here)",
        _fig11("tegner-k420", 2, 4) + _fig11("tegner-k80", 2, 4),
        lambda *gflops: all(1.5 < g4 / g2 < 2.1 for g2, g4 in _pairs(gflops)),
        Plant("EDR InfiniBand.efficiency", 0.02),
    ),
    Claim(
        "fig11/k80-flattens-4to8", "Fig. 11",
        "VI-D: 'when increasing from four to eight GPUs the performance "
        "improvement clearly flattens out'",
        _fig11("tegner-k80", 4, 8),
        lambda g4, g8: g8 / g4 < 1.5,
        Plant("K80-GK210.fft_efficiency", 0.01),
    ),
    Claim(
        "fig11/k80-peak-same-order", "Fig. 11",
        "Fig. 11: the K80 curve tops out at roughly 30-35 Gflops/s",
        _fig11("tegner-k80", 2, 4, 8),
        lambda *gflops: 15 < max(gflops) < 50,
        Plant("K80-GK210.fft_efficiency", 0.001),
    ),
    Claim(
        "fig11/merge-dominates", "Fig. 11",
        "VI-D: 'the process of merging in Python takes considerably longer "
        "than the computation part'",
        _fig11("tegner-k80", 8)
        + (("FFT with merge", "tegner-k80", 1 << 31, 128, 8),),
        # merge > collect  <=>  flops/(collect + merge) < flops/collect / 2
        lambda collect, with_merge: with_merge < collect / 2,
        Plant("2xE5-2690v3.python_bytes_rate", 90e9),
    ),
    Claim(
        "fig11/merge-inclusion-erases-scaling", "Fig. 11",
        "VI-D: the metric stops at the collection point; counting the "
        "serial merge leaves under 1.6x from two to eight GPUs",
        tuple((probe,) + FFT_2_26 + (g,)
              for probe in ("FFT", "FFT with merge") for g in (2, 8)),
        lambda c2, c8, m2, m8: m8 / m2 < min(1.6, c8 / c2),
        Plant("2xE5-2690v3.python_bytes_rate", 90e9),
    ),
]


def row_points(figure: str) -> set:
    """Every point the figure's paper rows read."""
    points = set()
    for row in PAPER_TARGETS.values():
        if row.figure == figure and row.point is not None:
            points.add((figure,) + row.point)
            if row.over is not None:
                points.add((figure,) + row.over)
    return points
