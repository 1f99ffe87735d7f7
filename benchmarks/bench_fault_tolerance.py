"""Fault-tolerance benchmark: recovery overhead in simulated time.

The robustness lane the paper motivates ("checkpoint-restart capability
in less than 300 lines"): inject deterministic worker crashes into
data-parallel SGD and measure the cost of surviving them. Three sweeps,
all landing in ``benchmarks/results/BENCH_fault_tolerance.json`` via
``record_bench`` so the robustness trajectory is tracked across
PRs:

* **checkpoint-interval sweep** — one mid-run crash, snapshots every
  1/2/4/8 steps: frequent checkpoints pay per-step save cost but replay
  less; sparse checkpoints save cheap but replay more. Every recovered
  trajectory is asserted byte-identical to the fault-free reference.
* **crash-rate sweep** — 0/1/2 seeded crashes against a fixed interval:
  overhead must grow with crash count, correctness must not budge.
* **transient-drop arm** — message loss absorbed by the retry policy
  alone (no restore); the overhead of backoff vs a clean run.
"""

import pytest

from repro.apps.sgd import run_sgd_restartable
from repro.perf.reporting import format_table
from repro.simnet.faults import FaultPlan, MessageDrop, WorkerCrash

STEPS = 40
WORKERS = 2
# Detection must be much shorter than the run for distinct crashes to
# yield distinct recoveries: one step is ~0.9 simulated ms, the full
# clean run ~35 ms, so a 2 ms operation deadline detects a loss within
# ~2 steps and a full detect-restore-replay cycle stays under ~10 ms.
TIMEOUT_MS = 2.0
CRASH_AT = 0.005
CRASH_SPACING = 0.025
RESTART_AFTER = 0.003


def _run(tmp_path, tag, checkpoint_every, fault_plan):
    res = run_sgd_restartable(
        num_workers=WORKERS, steps=STEPS, checkpoint_dir=str(tmp_path / tag),
        checkpoint_every=checkpoint_every, fault_plan=fault_plan,
        operation_timeout_ms=TIMEOUT_MS, recovery_backoff=0.001,
    )
    assert res.validated, (
        f"{tag}: recovered trajectory must be byte-identical to the "
        f"fault-free reference"
    )
    return res


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Fault-free run (still checkpointing every 4): the overhead
    denominator shared by every sweep."""
    tmp = tmp_path_factory.mktemp("ft_baseline")
    return _run(tmp, "clean", 4, None)


def test_recovery_overhead_vs_checkpoint_interval(tmp_path, baseline,
                                                  record_table,
                                                  record_bench):
    plan = FaultPlan.single_crash("worker", 1, at=CRASH_AT,
                                  restart_after=RESTART_AFTER)
    rows = []
    fields = {"clean_elapsed": baseline.elapsed}
    for interval in (1, 2, 4, 8):
        res = _run(tmp_path, f"int{interval}", interval, plan)
        assert res.recoveries >= 1, f"interval {interval}: crash never fired"
        overhead = res.elapsed - baseline.elapsed
        rows.append([interval, res.checkpoints_written, res.recoveries,
                     res.steps_replayed, f"{res.elapsed * 1e3:.2f}",
                     f"{overhead * 1e3:.2f}"])
        fields[f"interval_{interval}_elapsed"] = res.elapsed
        fields[f"interval_{interval}_replayed"] = res.steps_replayed

    # Sparser checkpoints must replay at least as many steps as denser
    # ones (the interval's fundamental trade).
    assert fields["interval_8_replayed"] >= fields["interval_1_replayed"]

    record_table(
        "fault_tolerance_interval.txt",
        format_table(
            ["every k steps", "ckpts", "recoveries", "replayed",
             "sim ms", "overhead ms"],
            rows,
            title=(f"SGD checkpoint-restart, 1 crash, {STEPS} steps x "
                   f"{WORKERS} workers (clean run "
                   f"{baseline.elapsed * 1e3:.2f} sim ms)"),
        ),
    )
    record_bench("fault_tolerance", "sgd_recovery_vs_interval", **fields)


def test_recovery_overhead_vs_crash_rate(tmp_path, baseline, record_table,
                                         record_bench):
    rows = []
    fields = {"clean_elapsed": baseline.elapsed}
    elapsed_by_crashes = {}
    for crashes in (0, 1, 2):
        # Spaced wider than one full detect-restore-replay cycle, so
        # each crash is a separate recovery rather than one overlapping
        # one.
        faults = tuple(
            WorkerCrash("worker", k % WORKERS,
                        at=CRASH_AT + k * CRASH_SPACING,
                        restart_after=RESTART_AFTER)
            for k in range(crashes)
        )
        res = _run(tmp_path, f"crash{crashes}", 4, FaultPlan(faults=faults))
        assert res.recoveries == crashes
        elapsed_by_crashes[crashes] = res.elapsed
        rows.append([crashes, res.recoveries, res.steps_replayed,
                     f"{res.elapsed * 1e3:.2f}"])
        fields[f"crashes_{crashes}_elapsed"] = res.elapsed
        fields[f"crashes_{crashes}_replayed"] = res.steps_replayed

    # More crashes, more recovery time — strictly, since each recovery
    # pays at least one detection deadline.
    assert elapsed_by_crashes[0] < elapsed_by_crashes[1] < elapsed_by_crashes[2]

    record_table(
        "fault_tolerance_crash_rate.txt",
        format_table(
            ["crashes", "recoveries", "replayed", "sim ms"],
            rows,
            title=(f"SGD recovery cost vs crash count "
                   f"({STEPS} steps x {WORKERS} workers, ckpt every 4)"),
        ),
    )
    record_bench("fault_tolerance", "sgd_recovery_vs_crash_rate", **fields)


def test_transient_drops_cost_backoff_only(tmp_path, baseline,
                                           record_bench):
    res = _run(tmp_path, "drops", 4,
               FaultPlan(faults=(MessageDrop(count=4),), seed=3))
    assert res.injector_stats["drops"] == 4
    assert res.recoveries == 0  # absorbed by retries, no restore
    record_bench(
        "fault_tolerance", "sgd_transient_drops",
        clean_elapsed=baseline.elapsed,
        drops=res.injector_stats["drops"],
        elapsed=res.elapsed,
        backoff_overhead=res.elapsed - baseline.elapsed,
    )
