"""One repetition of one workload, in a process of its own.

``run.py`` starts this file once per (workload, repetition) and reads the
JSON object it prints as its last line. Order of events: take ``T0``, pin
BLAS to one thread (before NumPy is imported), start the machine-speed
probe, import ``repro``, generate the inputs from ``--seed``, make the
workload's cold-start call — that is the end of set-up — then
``gc.collect()`` and the timed call, repeated while it still fits into
``--seconds``, and finally validation against the workload's independent
reference. With ``--trace 1`` the tracer is attached around the (single)
timed call only.

Host times are reported twice: ``raw_*`` as measured, and normalised to
the reference machine speed (see ``speed.py``), which is what is gated.
"""

import time

T0 = time.perf_counter()  # set-up is measured from the child's first statement

import os  # noqa: E402

import layers  # noqa: E402

os.environ.update(layers.BLAS_PINS)  # before NumPy is imported

import speed  # noqa: E402

SETUP_PROBE = speed.SpeedProbe()
SETUP_PROBE.start()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def sim_digest(times: list) -> str:
    return hashlib.sha256(
        "".join(float(t).hex() for t in times).encode()
    ).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not os.path.isdir(layers.REPRO_DIR):
        SETUP_PROBE.stop()
        print(f"child: {layers.REPRO_DIR} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, layers.SRC_DIR)
    clock = time.perf_counter
    phases = {}

    import workloads  # imports repro
    phases["import_s"] = clock() - T0
    workload = workloads.WORKLOADS[args.workload](args.scale)
    if getattr(workload, "pin_to_one_core", False) \
            and hasattr(os, "sched_setaffinity"):
        # The last allowed core: core 0 tends to serve the interrupts.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    t = clock()
    inputs = workload.generate(args.seed)
    phases["generate_s"] = clock() - t
    t = clock()
    workload.cold(inputs)
    phases["cold_s"] = clock() - t
    raw_setup_s = clock() - T0
    SETUP_PROBE.stop()
    result = {"workload": args.workload, "seed": args.seed,
              "scale": args.scale,
              "setup_s": SETUP_PROBE.normalise(raw_setup_s),
              "raw_setup_s": raw_setup_s, "phases": phases,
              "versions": {"python": platform.python_version(),
                           "numpy": sys.modules["numpy"].__version__}}
    if args.setup_only:
        _close(workload, inputs)
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import trace as tracing
        tracer = tracing.Tracer(args.workload)

    reps, outs = [], []
    while True:
        gc.collect()
        probe = speed.SpeedProbe(sample=tracer.sample if tracer else None)
        if tracer is not None:
            tracer.install()
        probe.start()
        t = clock()
        try:
            out = workload.timed(inputs)
            raw_wall_s = clock() - t
        finally:
            probe.stop()
            if tracer is not None:
                tracer.uninstall()
        outs.append(out)
        reps.append({"wall_s": probe.normalise(raw_wall_s),
                     "raw_wall_s": raw_wall_s})
        raw = [rep["raw_wall_s"] for rep in reps]
        # Two calls at least, unless one alone is over the budget.
        enough = len(raw) >= 2 or raw[0] > args.seconds
        if tracer is not None or (
            enough and sum(raw) + statistics.median(raw) > args.seconds
        ):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases["timed_s"] = sum(raw)

    t = clock()
    reference = workload.reference(inputs)
    reference_s = clock() - t
    for rep, out in zip(reps, outs):
        attempted, failed, ref_err = workload.check(inputs, out, reference)
        times = workload.sim_times(out)
        rep.update(sim_s=float(sum(times)), sim_digest=sim_digest(times),
                   attempted=int(attempted), failed=int(failed),
                   ref_err=float(ref_err))
    phases["validate_s"] = clock() - t
    result.update(reps=reps, peak_rss_mb=peak_rss_mb,
                  deterministic=workload.deterministic,
                  operation=workload.operation)

    if tracer is not None:
        metrics = {name: 0.0 for name in layers.PER_LAYER}
        metrics.update(tracer.metrics(raw[0]))
        if hasattr(workload, "serving_metrics"):
            metrics.update(workload.serving_metrics(outs[0]))
        # The twin and the reference run untraced, after the timed call.
        if hasattr(workload, "shape_only_twin"):
            t = clock()
            workload.shape_only_twin(inputs)
            metrics["apps.shape_only_s"] = clock() - t
            metrics["apps.numpy_ref_s"] = reference_s
            metrics["apps.overhead_x"] = raw[0] / reference_s
        result["per_layer"] = {k: float(v) for k, v in metrics.items()}
        path = os.path.join(layers.HERE, "results",
                            f"trace_{args.workload}.json")
        tracer.dump(path, phases)
        result["trace_file"] = os.path.relpath(path, layers.REPO_ROOT)

    _close(workload, inputs)
    print(json.dumps(result))
    return 0


def _close(workload, inputs) -> None:
    if hasattr(workload, "close"):
        workload.close(inputs)


if __name__ == "__main__":
    sys.exit(main())
