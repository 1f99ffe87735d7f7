"""The five benchmark workloads.

Every workload is driven through the repo's public API on the *default*
``SessionConfig`` / ``ServingConfig`` — what a user gets without opting
into anything. Each class offers the same five steps, called in this
order by ``child.py``:

``generate(seed)`` builds the inputs, ``cold(inputs)`` makes the
cold-start call (end of set-up), ``timed(inputs)`` is the measured call,
``sim_times(out)`` lists every simulated time the call reported, and
``reference(inputs)`` / ``check(inputs, out, reference)`` validate the
outputs against code that is *not* the code under test, returning
``(attempted, failed, ref_err)``.

Sizes were measured on a 2-core shared sandbox (see README.md) and are
fixed: later issues cite these workloads by name. ``smoke`` sizes exist
only for the self-test.
"""

from __future__ import annotations

import threading

import numpy as np

import repro
from repro.apps import (
    build_mlp_server,
    run_serving_load,
    run_sgd,
    run_stencil,
)
from repro.apps.serving import mlp_reference
from repro.apps.sgd import make_regression_problem, sgd_reference
from repro.apps.stencil import jacobi_reference
from repro.core.kernels.registry import KernelContext, ResourceManager
from repro.eager import evaluate
from repro.figures import fig7_stream, fig8_matmul, fig10_cg, fig11_fft
from repro.figures.table1_nodes import run_table1
from repro.fuzz import GeneratorOptions, generate


class PaperFigures:
    """Figs. 7/8/10/11 and Table I at paper scale, shape-only."""

    operation = "figure point"
    deterministic = True
    # The sweeps are the paper's; there is nothing for a seed to vary.

    # Points the paper itself omits for insufficient memory: fig10's
    # 65536 problem on fewer than 8 GPUs. A None anywhere else is a
    # newly failing point, not a silent skip.
    EXPECTED_OOM = frozenset(
        ("fig10", system, 65536, gpus)
        for system in fig10_cg.SWEEP for gpus in (2, 4)
    )
    COMPARISON_ROWS = 21  # rows of the four paper-vs-measured tables
    # The simulator is calibrated, not exact: a mean |ratio - 1| beyond
    # this against the paper's own numbers means the model is broken.
    REF_ERR_LIMIT = 0.25

    def __init__(self, scale: str):
        self.smoke = scale == "smoke"

    def generate(self, seed: int):
        return None

    def cold(self, inputs) -> None:
        if self.smoke:
            fig7_stream.run_fig7(iterations=1, sizes=(2,))
        else:
            fig10_cg.run_fig10(iterations=1, quick=True)

    def timed(self, inputs) -> dict:
        if self.smoke:
            return {
                "fig7": fig7_stream.run_fig7(iterations=2, sizes=(2,)),
                "fig8": [], "fig10": [],
                "fig11": fig11_fft.run_fig11(quick=True),
                "table1": run_table1(),
            }
        return {
            "fig7": fig7_stream.run_fig7(),
            "fig8": fig8_matmul.run_fig8(quick=True),
            "fig10": fig10_cg.run_fig10(quick=True),
            "fig11": fig11_fft.run_fig11(quick=True),
            "table1": run_table1(),
        }

    def sim_times(self, out) -> list[float]:
        times = [
            p.result.seconds_per_transfer * p.result.iterations
            for p in out["fig7"]
        ]
        for figure in ("fig8", "fig10"):
            times += [p.result.elapsed for p in out[figure]
                      if p.result is not None]
        for p in out["fig11"]:
            if p.result is not None:
                times += [p.result.collect_seconds, p.result.merge_seconds]
        return times

    def reference(self, inputs):
        return None  # repro.perf.calibration, read by paper_comparison

    def check(self, inputs, out, reference):
        attempted = failed = 0
        attempted += len(out["fig7"])
        for figure in ("fig8", "fig10", "fig11"):
            for p in out[figure]:
                attempted += 1
                if p.result is None and (
                    (figure, p.system, p.n, p.gpus) not in self.EXPECTED_OOM
                ):
                    failed += 1
        for row in out["table1"]:
            attempted += 1
            if not (row["instances"] >= 1 and row["gpus_per_instance"] >= 1
                    and row["instances"] * row["gpus_per_instance"]
                    == row["gpus_per_node"]):
                failed += 1
        ratios = []
        for module, figure in ((fig7_stream, "fig7"), (fig8_matmul, "fig8"),
                               (fig10_cg, "fig10"), (fig11_fft, "fig11")):
            table = module.paper_comparison(out[figure]).splitlines()
            # title, header, separator, then one row per paper target
            ratios += [float(line.rsplit("|", 1)[1].strip().rstrip("x"))
                       for line in table[3:]]
        ref_err = float(np.mean([abs(r - 1.0) for r in ratios]))
        if not self.smoke:
            attempted += self.COMPARISON_ROWS
            failed += max(0, self.COMPARISON_ROWS - len(ratios))
            if ref_err > self.REF_ERR_LIMIT:
                failed += 1
        return attempted, failed, ref_err


class FuzzCold:
    """Generated programs, each built, planned and run exactly once."""

    operation = "program"
    deterministic = True
    OPTIONS = GeneratorOptions(max_ops=24, max_world=4)
    _ERRORS = (repro.errors.ReproError, ValueError, TypeError,
               ZeroDivisionError, FloatingPointError, OverflowError,
               IndexError, KeyError)

    def __init__(self, scale: str):
        self.programs, self.warmup = (1500, 50) if scale == "full" else (20, 2)

    def generate(self, seed: int):
        first = seed * 100_000
        return [generate(first + i, self.OPTIONS)
                for i in range(self.programs + self.warmup)]

    def _run(self, programs) -> list:
        results = []
        # Drawn programs legitimately hit sqrt(-x), x/0, exp overflow; the
        # NaN/inf bit patterns are compared, the warnings are noise.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for program in programs:
                try:
                    graph = repro.Graph()
                    with graph.as_default():
                        built = program.materialize()
                    config = repro.SessionConfig(num_gpus=program.gpus)
                    with repro.Session(graph=graph, config=config) as sess:
                        values = sess.run(built.fetch_tensors,
                                          feed_dict=dict(built.feeds))
                        results.append((values, float(sess.env.now)))
                except self._ERRORS as exc:
                    results.append((type(exc), None))
        return results

    def cold(self, inputs) -> None:
        self._run(inputs[self.programs:])

    def timed(self, inputs) -> list:
        return self._run(inputs[:self.programs])

    def sim_times(self, out) -> list[float]:
        return [now for _, now in out if now is not None]

    def reference(self, inputs) -> list:
        expected = []
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for program in inputs[:self.programs]:
                try:
                    graph = repro.Graph()
                    with graph.as_default():
                        built = program.materialize()
                        ctx = KernelContext(
                            feeds=dict(built.feeds),
                            resources=ResourceManager("eager"),
                        )
                        expected.append(
                            evaluate(built.fetch_tensors, built.feeds, ctx)
                        )
                except self._ERRORS as exc:
                    expected.append(type(exc))
        return expected

    def check(self, inputs, out, reference):
        failed = mismatched = 0
        for (values, _), expected in zip(out, reference):
            if isinstance(values, type):  # the session raised
                failed += 1
                mismatched += values is not expected
            elif isinstance(expected, type) or not _same_bytes(values,
                                                               expected):
                failed += 1
                mismatched += 1
        return len(out), failed, mismatched / len(out)


def _same_bytes(values, expected) -> bool:
    if len(values) != len(expected):
        return False
    for got, want in zip(values, expected):
        got, want = np.asarray(got), np.asarray(want)
        if (got.dtype, got.shape) != (want.dtype, want.shape) \
                or got.tobytes() != want.tobytes():
            return False
    return True


class SgdCollective:
    """Data-parallel SGD through @repro.function, ten allreduces a step."""

    operation = "step"
    deterministic = True

    def __init__(self, scale: str):
        self.steps = 150 if scale == "full" else 3
        self.problem = dict(d=256, num_workers=8, rows_per_worker=32)

    def generate(self, seed: int):
        return dict(system="tegner-k420", blocks=8, momentum=0.9,
                    mode="collective", frontend="function", seed=seed,
                    **self.problem)

    def cold(self, inputs) -> None:
        run_sgd(steps=1, **inputs)

    def timed(self, inputs):
        return run_sgd(steps=self.steps, **inputs)

    def shape_only_twin(self, inputs):
        return run_sgd(steps=self.steps, shape_only=True, **inputs)

    def sim_times(self, out) -> list[float]:
        return [out.elapsed]

    def reference(self, inputs):
        x_shards, y_shards, _ = make_regression_problem(
            seed=inputs["seed"], **self.problem
        )
        _, losses, trajectory = sgd_reference(
            x_shards, y_shards, self.steps, learning_rate=0.005,
            blocks=inputs["blocks"], momentum=inputs["momentum"],
        )
        return losses, trajectory

    def check(self, inputs, out, reference):
        losses, trajectory = reference
        failed, ref_err = 0, 0.0
        for step in range(self.steps):
            err = float(np.max(np.abs(out.trajectory[step] - trajectory[step])))
            ref_err = max(ref_err, err)
            if err != 0.0 or out.loss_history[step] != losses[step]:
                failed += 1
        return self.steps, failed, ref_err


class StencilConcrete:
    """Jacobi sweeps on concrete 128 KB blocks with halo exchange."""

    operation = "sweep"
    deterministic = True
    # Fixed initial field: the seed has nothing to vary. Blocks are 128 KB
    # on purpose; larger concrete arrays were +-40 % run to run on the
    # sandbox (page-fault noise).
    # The graph sums the four neighbours and the per-worker residuals in
    # another order than the reference, so neither is bit-identical.
    TOLERANCE = 1e-12
    RESIDUAL_RTOL = 1e-9

    def __init__(self, scale: str):
        self.n, self.iterations, self.cold_iterations = (
            (256, 800, 20) if scale == "full" else (32, 20, 5)
        )
        self.kwargs = dict(n=self.n, num_workers=4, check_every=20,
                           mode="collective")

    def generate(self, seed: int):
        return None

    def cold(self, inputs) -> None:
        run_stencil(iterations=self.cold_iterations, **self.kwargs)

    def timed(self, inputs):
        return run_stencil(iterations=self.iterations, **self.kwargs)

    def shape_only_twin(self, inputs):
        return run_stencil(iterations=self.iterations, shape_only=True,
                           **self.kwargs)

    def sim_times(self, out) -> list[float]:
        return [out.elapsed]  # check_elapsed is a part of it

    def reference(self, inputs):
        return jacobi_reference(self.n, self.iterations)

    def check(self, inputs, out, reference):
        field, residuals = reference
        ref_err = float(np.max(np.abs(out.solution - field)))
        every = self.kwargs["check_every"]
        wrong = sum(
            not np.isclose(got, want, rtol=self.RESIDUAL_RTOL, atol=0.0)
            for got, want in zip(out.residual_history,
                                 residuals[every - 1::every])
        )
        if out.iterations != self.iterations or ref_err > self.TOLERANCE:
            wrong = self.iterations
        return self.iterations, wrong, ref_err


class ServingClosed:
    """Closed loop: 2 client threads against the default ModelServer."""

    operation = "request"
    # Batch composition depends on thread timing, so neither the number
    # of simulated runs nor their total simulated time repeats exactly.
    deterministic = False
    # On the sandbox one of the two virtual cores is at times starved by
    # the host while the other is not: threads straddling both ran up to
    # 5x slower (single-threaded children next to them: 1.1x), and the
    # speed probe, which sees one core, could not correct for it. The
    # GIL serialises these threads anyway (pinned and unpinned runs
    # measure the same when the machine is quiet), so the child is pinned
    # to one core.
    pin_to_one_core = True
    CLIENTS = 2  # closed loop: two clients + the server's one worker
    FEATURES, HIDDEN = 64, 256
    PROBES = 200
    TOLERANCE = 1e-5  # float32 matmul, batched vs one row at a time

    def __init__(self, scale: str):
        self.requests_per_client = 10_000 if scale == "full" else 50

    def generate(self, seed: int):
        rng = np.random.default_rng(seed)
        probes = rng.random((self.PROBES, 1, self.FEATURES), dtype=np.float32)
        return {"seed": seed, "probes": probes, "server": None}

    def cold(self, inputs) -> None:
        server = build_mlp_server(features=self.FEATURES, hidden=self.HIDDEN)
        server.start()
        server.submit("cold", "mlp", {"x": inputs["probes"][0]})
        inputs["server"] = server

    def timed(self, inputs):
        server = inputs["server"]
        before = server.session.env.now
        load = run_serving_load(
            server, clients=self.CLIENTS,
            requests_per_client=self.requests_per_client,
            rows_per_request=1, seed=inputs["seed"],
        )
        return {"load": load, "sim_s": server.session.env.now - before}

    def sim_times(self, out) -> list[float]:
        return [out["sim_s"]]

    def serving_metrics(self, out) -> dict[str, float]:
        load = out["load"]
        return {
            "serving.batch_runs": load.batch_runs,
            "serving.batch_occupancy": load.mean_batch_occupancy,
            "serving.p50_ms": load.p50_ms,
            "serving.p99_ms": load.p99_ms,
            "serving.queue_wait_ms": load.mean_queue_wait_ms,
            "serving.rejected": load.rejected,
        }

    def reference(self, inputs):
        forward = mlp_reference(features=self.FEATURES, hidden=self.HIDDEN)
        return [forward(probe) for probe in inputs["probes"]]

    def check(self, inputs, out, reference):
        """The load driver keeps latencies, not responses, so responses
        are validated on probe requests sent the same way (two threads,
        so they batch) right after the load."""
        load = out["load"]
        server = inputs["server"]
        responses: list = [None] * self.PROBES

        def probe(offset: int) -> None:
            for i in range(offset, self.PROBES, self.CLIENTS):
                responses[i] = server.submit(
                    f"probe-{offset}", "mlp", {"x": inputs["probes"][i]}
                ).outputs

        threads = [threading.Thread(target=probe, args=(k,))
                   for k in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        errors = [
            float(np.max(np.abs(np.asarray(got) - want)))
            if got is not None else float("inf")
            for got, want in zip(responses, reference)
        ]
        failed = (load.offered - load.completed) + sum(
            err > self.TOLERANCE for err in errors
        )
        return load.offered + self.PROBES, failed, max(errors)

    def close(self, inputs) -> None:
        if inputs["server"] is not None:
            inputs["server"].stop()


WORKLOADS = {
    "paper_figures": PaperFigures,
    "fuzz_cold": FuzzCold,
    "sgd_collective": SgdCollective,
    "stencil_concrete": StencilConcrete,
    "serving_closed": ServingClosed,
}
