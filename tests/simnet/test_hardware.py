"""Hardware models: GPUs, CPUs, memory pools, nodes, machines, filesystem."""

import numpy as np
import pytest

from repro.core.kernels.registry import Cost
from repro.core.tensor import SymbolicValue
from repro.errors import (
    InternalError,
    InvalidArgumentError,
    NotFoundError,
    ResourceExhaustedError,
)
from repro.simnet.cpu import CPUModel
from repro.simnet.events import Environment
from repro.simnet.gpu import GPUModel
from repro.simnet.machines import (
    instances_per_node,
    kebnekaise,
    localhost,
    tegner,
)
from repro.simnet.memory import MemoryPool
from repro.simnet.parameters import model


class TestGPUModels:
    def test_vendor_peaks_ordered(self):
        k420, k80, v100 = (model(GPUModel, part)
                           for part in ("K420", "K80-GK210", "V100"))
        assert k420.peak_sp_flops < k80.peak_sp_flops < v100.peak_sp_flops
        assert v100.peak_dp_flops / v100.peak_sp_flops == pytest.approx(0.5)

    def test_matmul_time_scales_with_flops(self):
        env = Environment()
        machine = tegner(env, k420_nodes=1)
        gpu = machine.node("t01n01").gpus[0]
        small = Cost(flops=1e9)
        large = Cost(flops=4e9)
        t_small = gpu.time_for_cost(small, "MatMul", double_precision=False)
        t_large = gpu.time_for_cost(large, "MatMul", double_precision=False)
        assert t_large > t_small
        # Launch overhead excluded, times are proportional to flops.
        overhead = gpu.model.launch_overhead
        assert (t_large - overhead) == pytest.approx(4 * (t_small - overhead))

    def test_double_precision_slower(self):
        env = Environment()
        machine = kebnekaise(env, v100_nodes=1)
        gpu = machine.node("b-cn0001").gpus[0]
        cost = Cost(flops=1e10)
        sp = gpu.time_for_cost(cost, "MatMul", double_precision=False)
        dp = gpu.time_for_cost(cost, "MatMul", double_precision=True)
        assert dp == pytest.approx(2 * sp, rel=0.05)

    def test_memory_bound_op_uses_bandwidth(self):
        env = Environment()
        machine = tegner(env, k80_nodes=1)
        gpu = machine.node("t01n01").gpus[0]
        cost = Cost(flops=1e3, mem_bytes=1e9)  # trivially compute-light
        t = gpu.time_for_cost(cost, "Add", double_precision=False)
        expected = 1e9 / gpu.model.sustained_bandwidth() + gpu.model.launch_overhead
        assert t == pytest.approx(expected)

    def test_fft_efficiency_lower_than_matmul(self):
        k80 = model(GPUModel, "K80-GK210")
        assert k80.sustained_flops("FFT", False) < \
            k80.sustained_flops("MatMul", False)


class TestMemoryPool:
    def test_allocate_free_cycle(self):
        pool = MemoryPool(1000)
        pool.allocate(600)
        assert pool.available == 400
        pool.free(600)
        assert pool.in_use == 0
        assert pool.peak == 600

    def test_oom(self):
        pool = MemoryPool(100)
        pool.allocate(80)
        with pytest.raises(ResourceExhaustedError):
            pool.allocate(30)

    def test_over_free_is_internal_error(self):
        pool = MemoryPool(100)
        pool.allocate(10)
        with pytest.raises(InternalError):
            pool.free(20)

    def test_utilisation(self):
        pool = MemoryPool(200)
        pool.allocate(50)
        assert pool.utilisation() == pytest.approx(0.25)

    def test_negative_amounts_rejected(self):
        pool = MemoryPool(10)
        with pytest.raises(ValueError):
            pool.allocate(-1)
        with pytest.raises(ValueError):
            pool.free(-1)


class TestMachineCatalogs:
    def test_table1_instances_per_node(self):
        # Table I of the paper.
        assert instances_per_node("tegner-k420") == 1
        assert instances_per_node("tegner-k80") == 2
        assert instances_per_node("kebnekaise-k80") == 4
        assert instances_per_node("kebnekaise-v100") == 2

    def test_table1_gpu_memory(self):
        def gpu_memory(machine):
            return {gpu.model.mem_capacity
                    for node in machine.nodes.values() for gpu in node.gpus}

        assert gpu_memory(tegner(Environment(), k420_nodes=1)) == {1 * 1024**3}
        assert gpu_memory(tegner(Environment(), k80_nodes=1)) == {12 * 1024**3}
        assert gpu_memory(kebnekaise(Environment(), v100_nodes=1)) == {
            16 * 1024**3}

    def test_tegner_layout(self):
        env = Environment()
        machine = tegner(env, k420_nodes=2, k80_nodes=1)
        assert machine.node("t01n01").num_gpus == 1
        assert machine.node("t01n03").num_gpus == 2  # one K80 = 2 GK210s
        # paper: Tegner gRPC on Ethernet -- no IP rides EDR
        assert machine.fabric.ip_efficiency is None
        assert machine.fabric.name == "EDR InfiniBand"

    def test_kebnekaise_numa_layout(self):
        env = Environment()
        machine = kebnekaise(env, k80_nodes=1)
        node = machine.node("b-cn0001")
        assert node.num_gpus == 4
        # Fig. 9: two boards on two islands, NIC on island 0.
        assert [g.numa_island for g in node.gpus] == [0, 0, 1, 1]
        assert node.nic_numa == 0
        assert node.crosses_socket(node.gpus[3])
        assert not node.crosses_socket(node.gpus[0])
        assert machine.fabric.ip_efficiency  # IPoIB => gRPC ~ MPI

    def test_duplicate_node_rejected(self):
        env = Environment()
        machine = localhost(env)
        cpu = model(CPUModel, "2xE5-2690v4")
        with pytest.raises(InvalidArgumentError, match="Duplicate node"):
            machine.add_node("localhost", cpu_model=cpu)

    def test_an_unknown_part_is_named(self):
        with pytest.raises(NotFoundError, match="'no-such-cpu'"):
            model(CPUModel, "no-such-cpu")

    def test_every_local_part_is_one_a_paper_machine_runs_on(self):
        paper = set()
        for machine in (tegner(Environment(), k420_nodes=1, k80_nodes=1),
                        kebnekaise(Environment(), k80_nodes=1, v100_nodes=1)):
            paper.add(machine.fabric)
            for node in machine.nodes.values():
                paper |= {node.cpu.model, *(gpu.model for gpu in node.gpus)}
        local = localhost(Environment(), num_gpus=2)
        [node] = local.nodes.values()
        assert {local.fabric, node.cpu.model,
                *(gpu.model for gpu in node.gpus)} <= paper

    def test_localhost_is_built_from_a_kebnekaise_v100_node(self):
        machine = localhost(Environment(), num_gpus=3)
        [node] = machine.nodes.values()
        assert node.node_type == "localhost"
        assert node.cpu.model is model(CPUModel, "2xE5-2690v4")
        assert [gpu.model.name for gpu in node.gpus] == ["V100"] * 3
        assert machine.fabric.name == "FDR InfiniBand"
        assert machine.name == "kebnekaise"

    def test_device_lookup_bounds(self):
        env = Environment()
        machine = tegner(env, k420_nodes=1)
        node = machine.node("t01n01")
        assert node.device("gpu", 0) is node.gpus[0]
        with pytest.raises(ValueError):
            node.device("gpu", 1)
        with pytest.raises(ValueError):
            node.device("tpu", 0)

    def test_unknown_node(self):
        env = Environment()
        machine = tegner(env, k420_nodes=1)
        with pytest.raises(NotFoundError):
            machine.node("t99n99")


class TestSimFileSystem:
    def test_store_and_stat(self):
        env = Environment()
        machine = localhost(env)
        fs = machine.filesystem
        fs.store_array("a.npy", np.ones((4, 4), dtype=np.float32))
        spec = fs.stat("a.npy")
        assert spec.shape == (4, 4)
        assert spec.nbytes == 64

    def test_stored_file_is_a_private_copy_in_its_declared_dtype(self):
        fs = localhost(Environment()).filesystem
        data = np.ones(4, dtype=np.float16)
        fs.store_array("x.npy", data)
        data[0] = 2.0  # the caller's array was frozen before
        stored = fs.get_array("x.npy")
        np.testing.assert_array_equal(stored, np.ones(4))
        assert not stored.flags.writeable
        assert stored.dtype == fs.stat("x.npy").dtype.np_dtype == np.float32
        assert stored.nbytes == fs.stat("x.npy").nbytes

    def test_declared_file_is_metadata_only(self):
        env = Environment()
        machine = localhost(env)
        fs = machine.filesystem
        fs.declare_file("big.npy", (1 << 16, 1 << 16), "float32")
        assert fs.stat("big.npy").nbytes == 4 << 32
        with pytest.raises(NotFoundError):
            fs.get_array("big.npy")

    def test_read_takes_simulated_time(self):
        env = Environment()
        machine = localhost(env)
        fs = machine.filesystem
        node = machine.node("localhost")
        data = np.ones(1024 * 1024, dtype=np.float64)  # 8 MB
        fs.store_array("x.npy", data)
        result = {}

        def reader():
            value = yield from fs.read("x.npy", node)
            result["value"] = value
            result["time"] = env.now

        env.process(reader())
        env.run()
        np.testing.assert_array_equal(result["value"], data)
        assert result["time"] > 0
        assert fs.bytes_read == data.nbytes

    def test_write_then_read_roundtrip(self):
        env = Environment()
        machine = localhost(env)
        fs = machine.filesystem
        node = machine.node("localhost")
        data = np.arange(16, dtype=np.float32)
        done = {}

        def writer():
            yield from fs.write("w.npy", data, node)
            value = yield from fs.read("w.npy", node)
            done["value"] = value

        env.process(writer())
        env.run()
        np.testing.assert_array_equal(done["value"], data)

    def test_symbolic_read_of_concrete_file(self):
        env = Environment()
        machine = localhost(env)
        fs = machine.filesystem
        node = machine.node("localhost")
        fs.store_array("c.npy", np.zeros(8, dtype=np.float64))
        out = {}

        def reader():
            value = yield from fs.read("c.npy", node, symbolic=True)
            out["value"] = value

        env.process(reader())
        env.run()
        assert isinstance(out["value"], SymbolicValue)

    def test_listdir_and_delete(self):
        env = Environment()
        fs = localhost(env).filesystem
        fs.store_array("t/a.npy", np.zeros(1))
        fs.store_array("t/b.npy", np.zeros(1))
        assert fs.listdir("t/") == ["t/a.npy", "t/b.npy"]
        fs.delete("t/a.npy")
        assert fs.listdir("t/") == ["t/b.npy"]
        with pytest.raises(NotFoundError):
            fs.delete("t/a.npy")
