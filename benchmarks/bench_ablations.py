"""Ablations over the design choices the paper makes but does not sweep.

* tile size (the paper uses 4096 for K420 "to increase utilization" and
  8192 for K80);
* reducer count (the paper fixes two reducers keyed by target parity);
* transport protocol for a latency-sensitive app (CG's queue reductions);
* and the merger-exclusion choice in the FFT metric.
"""


from repro.apps.cg import run_cg
from repro.apps.fft import run_fft
from repro.apps.matmul import run_matmul
from repro.perf.reporting import format_table


class TestTileSizeAblation:
    def test_k80_prefers_large_tiles(self, benchmark, record_table):
        """8192 tiles beat 4096 on K80 (higher arithmetic intensity per
        transfer) — the paper's choice."""

        def sweep():
            return {
                tile: run_matmul(system="tegner-k80", n=32768, tile=tile,
                                 num_gpus=4, shape_only=True)
                for tile in (4096, 8192)
            }

        results = benchmark.pedantic(sweep, rounds=1, iterations=1)
        assert results[8192].gflops > results[4096].gflops
        record_table("ablation_tile_size.txt", format_table(
            ["tile", "Gflops/s", "elapsed [s]"],
            [[t, r.gflops, r.elapsed] for t, r in sorted(results.items())],
            title="Ablation — tile size (Tegner K80, N=32768, 4 GPUs)",
        ))

    def test_k420_large_tiles_exhaust_memory_headroom(self, benchmark):
        """8192^2 fp32 tiles put a 768 MB working set (two inputs + one
        output) on the K420's 1 GB — no headroom for double buffering,
        which is why the paper runs 4096 tiles on Tegner."""
        from repro.apps.common import build_cluster

        def peak_fraction(tile):
            cluster = build_cluster("tegner-k420",
                                    {"worker": 2, "reducer": 2})
            run_matmul(system="tegner-k420", n=2 * tile, tile=tile,
                       num_gpus=2, shape_only=True, cluster=cluster)
            pools = [
                pool
                for (job, _i), server in cluster.servers.items()
                if job == "worker"
                for name, pool in server.runtime.memory_pools.items()
                if "gpu" in name
            ]
            return max(p.peak / p.capacity for p in pools)

        fractions = benchmark.pedantic(
            lambda: {t: peak_fraction(t) for t in (4096, 8192)},
            rounds=1, iterations=1,
        )
        assert fractions[8192] > 0.70, f"large tiles: {fractions[8192]:.2f}"
        assert fractions[4096] < 0.40, f"small tiles: {fractions[4096]:.2f}"


class TestReducerCountAblation:
    def test_two_reducers_beat_one(self, benchmark, record_table):
        def sweep():
            return {
                r: run_matmul(system="tegner-k80", n=32768, tile=8192,
                              num_gpus=8, num_reducers=r, shape_only=True)
                for r in (1, 2, 4)
            }

        results = benchmark.pedantic(sweep, rounds=1, iterations=1)
        assert results[2].gflops > results[1].gflops
        # Doubling again helps less (or not at all): reduce is no longer
        # the bottleneck once two reducers keep up.
        gain_12 = results[2].gflops / results[1].gflops
        gain_24 = results[4].gflops / results[2].gflops
        assert gain_24 < gain_12
        record_table("ablation_reducers.txt", format_table(
            ["reducers", "Gflops/s"],
            [[r, res.gflops] for r, res in sorted(results.items())],
            title="Ablation — reducer count (Tegner K80, N=32768, 8 GPUs)",
        ))


class TestTransportAblation:
    def test_cg_is_latency_sensitive(self, benchmark, record_table):
        """CG's per-iteration queue round-trips make protocol latency
        visible: verbs > MPI > gRPC in iteration rate."""

        def sweep():
            return {
                protocol: run_cg(system="tegner-k80", n=16384, num_gpus=4,
                                 iterations=30, protocol=protocol,
                                 shape_only=True)
                for protocol in ("grpc", "grpc+mpi", "grpc+verbs")
            }

        results = benchmark.pedantic(sweep, rounds=1, iterations=1)
        assert (results["grpc+verbs"].gflops
                >= results["grpc+mpi"].gflops
                > results["grpc"].gflops)
        record_table("ablation_transport_cg.txt", format_table(
            ["protocol", "Gflops/s", "ms/iteration"],
            [[p, r.gflops, r.seconds_per_iteration * 1e3]
             for p, r in sorted(results.items())],
            title="Ablation — transport protocol (CG, Tegner K80, N=16384)",
        ))


class TestFFTMergerAblation:
    def test_merge_inclusion_kills_scaling(self, benchmark, record_table):
        """Including the serial Python merge (which the paper excludes)
        erases most of the measured scaling — the reason the paper reports
        only to the collection point."""

        def sweep():
            return {
                gpus: run_fft(system="tegner-k80", n=1 << 26, num_tiles=64,
                              num_gpus=gpus, shape_only=True)
                for gpus in (2, 8)
            }

        results = benchmark.pedantic(sweep, rounds=1, iterations=1)
        collect_scaling = results[8].gflops / results[2].gflops
        total_scaling = (results[8].gflops_with_merge
                         / results[2].gflops_with_merge)
        assert total_scaling < collect_scaling
        assert total_scaling < 1.6
        record_table("ablation_fft_merge.txt", format_table(
            ["GPUs", "Gflops/s (collect)", "Gflops/s (with merge)"],
            [[g, r.gflops, r.gflops_with_merge]
             for g, r in sorted(results.items())],
            title="Ablation — FFT merge inclusion (Tegner K80, N=2^26)",
        ))


class TestAllreduceAblation:
    def test_ring_allreduce_vs_queue_reducer(self, benchmark, record_table):
        """The paper's discussion: Horovod-style allreduce removes the
        dedicated-server bottleneck. Compare one 32 MB reduction across 8
        ranks through the queue reducer's central node vs a ring."""
        from repro.core.tensor import SymbolicValue
        from repro.runtime.collective import run_collective
        from repro.simnet import transports
        from repro.simnet.events import AllOf, Environment
        from repro.simnet.machines import tegner

        nbytes = 32 * 1024 * 1024
        world = 8

        def measure():
            # Ring.
            env = Environment()
            machine = tegner(env, k420_nodes=world)
            devices = [machine.node(n).cpu for n in sorted(machine.nodes)]
            values = [SymbolicValue((nbytes // 8,), "float64")
                      for _ in range(world)]

            env.run(until=env.process(run_collective(
                "CollectiveAllReduce", devices, values, "rdma")))
            ring_time = env.now

            # Central reducer: gather to rank 0, broadcast back.
            env2 = Environment()
            machine2 = tegner(env2, k420_nodes=world)
            devs2 = [machine2.node(n).cpu for n in sorted(machine2.nodes)]

            def central():
                yield AllOf(env2, [
                    env2.process(transports.transfer(devs2[r], devs2[0],
                                                     nbytes, "rdma"))
                    for r in range(1, world)
                ])
                yield AllOf(env2, [
                    env2.process(transports.transfer(devs2[0], devs2[r],
                                                     nbytes, "rdma"))
                    for r in range(1, world)
                ])

            env2.run(until=env2.process(central()))
            return {"ring": ring_time, "central": env2.now}

        times = benchmark.pedantic(measure, rounds=1, iterations=1)
        assert times["ring"] < times["central"] / 2
        record_table("ablation_allreduce.txt", "\n".join([
            "Ablation — ring allreduce vs central reducer "
            "(8 ranks, 32 MB, Tegner EDR)",
            f"  ring allreduce: {times['ring'] * 1e3:8.2f} ms",
            f"  central reduce: {times['central'] * 1e3:8.2f} ms",
            f"  speedup:        {times['central'] / times['ring']:8.2f}x",
        ]))
