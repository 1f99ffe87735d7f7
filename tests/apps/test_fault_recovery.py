"""Checkpoint-restart under fault injection: SGD and CG end to end.

The PR's acceptance bar: a worker crash mid-training recovers through
``Saver`` snapshots and the recovered trajectory is byte-identical to a
fault-free run of the same configuration.
"""

import numpy as np
import pytest

import repro as tf
from repro.apps import cg
from repro.apps.cg import (
    _consistent_cut,
    make_spd_problem,
    run_cg,
    run_cg_with_recovery,
)
from repro.apps.sgd import run_sgd, run_sgd_restartable
from repro.errors import InvalidArgumentError, UnavailableError
from repro.runtime.retry import RetryPolicy
from repro.simnet.faults import FaultPlan, MessageDrop


class TestSGDRestart:
    def test_fault_free_run_matches_reference(self, tmp_path):
        res = run_sgd_restartable(num_workers=2, steps=6,
                                  checkpoint_dir=str(tmp_path),
                                  checkpoint_every=2)
        assert res.validated
        assert res.recoveries == 0
        assert res.checkpoints_written == 4  # step 0 + steps 2, 4, 6

    def test_crash_recovers_byte_identical(self, tmp_path):
        """Kill worker 1 mid-run; the driver restores from the latest
        snapshot, replays, and the full trajectory (losses AND weights)
        matches the fault-free NumPy reference byte for byte."""
        plan = FaultPlan.single_crash("worker", 1, at=0.003,
                                     restart_after=0.1)
        res = run_sgd_restartable(num_workers=2, steps=8,
                                  checkpoint_dir=str(tmp_path),
                                  checkpoint_every=3, fault_plan=plan,
                                  operation_timeout_ms=50.0)
        assert res.injector_stats["crashes"] == 1
        assert res.recoveries >= 1
        assert res.steps_replayed >= 1
        assert res.validated  # byte-identical trajectory + loss history
        assert res.fault_log and res.fault_log[0][1] == "DeadlineExceededError"
        assert res.metadata_deadlines >= 1

    def test_crash_recovery_matches_fault_free_driver(self, tmp_path):
        """Same trajectory object-for-object as the plain run_sgd path."""
        clean = run_sgd(num_workers=2, steps=8, mode="collective")
        plan = FaultPlan.single_crash("worker", 0, at=0.004,
                                     restart_after=0.1)
        res = run_sgd_restartable(num_workers=2, steps=8,
                                  checkpoint_dir=str(tmp_path),
                                  checkpoint_every=2, fault_plan=plan,
                                  operation_timeout_ms=50.0)
        assert res.recoveries >= 1
        assert res.validated
        assert len(res.trajectory) == len(clean.trajectory)
        for mine, theirs in zip(res.trajectory, clean.trajectory):
            assert np.asarray(mine).tobytes() == np.asarray(theirs).tobytes()

    def test_transient_drops_absorbed_without_restore(self, tmp_path):
        plan = FaultPlan(faults=(MessageDrop(count=3),), seed=2)
        res = run_sgd_restartable(num_workers=2, steps=5,
                                  checkpoint_dir=str(tmp_path),
                                  checkpoint_every=2, fault_plan=plan)
        assert res.validated
        assert res.recoveries == 0  # retries, not restarts
        assert res.injector_stats["drops"] == 3

    def test_momentum_state_survives_recovery(self, tmp_path):
        """Momentum slots are variables too: a restore must bring the
        velocity back or the replayed steps diverge."""
        plan = FaultPlan.single_crash("worker", 1, at=0.004,
                                     restart_after=0.1)
        res = run_sgd_restartable(num_workers=2, steps=8, momentum=0.9,
                                  checkpoint_dir=str(tmp_path),
                                  checkpoint_every=3, fault_plan=plan,
                                  operation_timeout_ms=50.0)
        assert res.recoveries >= 1
        assert res.validated

    def test_unrecoverable_without_restart_raises(self, tmp_path):
        """Worker never comes back: recovery attempts exhaust and the
        last detection error surfaces to the caller."""
        plan = FaultPlan.single_crash("worker", 1, at=0.003)  # no restart
        with pytest.raises(tf.errors.ReproError):
            run_sgd_restartable(num_workers=2, steps=8,
                                checkpoint_dir=str(tmp_path),
                                checkpoint_every=3, fault_plan=plan,
                                operation_timeout_ms=20.0,
                                recovery_policy=RetryPolicy(
                                    max_attempts=3, initial_backoff=0.01))

    def test_checkpoint_dir_required(self):
        with pytest.raises(InvalidArgumentError, match="checkpoint_dir"):
            run_sgd_restartable(steps=2)


class TestCGRecovery:
    def test_crash_recovery_byte_identical_solution(self, tmp_path):
        prob = make_spd_problem(64, 0)
        ref = run_cg(system="kebnekaise-v100", n=64, num_gpus=2,
                     iterations=16, shape_only=False, problem=prob)
        plan = FaultPlan.single_crash("worker", 1, at=ref.elapsed * 0.6)
        res = run_cg_with_recovery(n=64, num_gpus=2, iterations=16,
                                   checkpoint_dir=str(tmp_path),
                                   checkpoint_every=4, fault_plan=plan,
                                   problem=prob)
        assert res.recoveries == 1
        assert res.attempts[0].crashed
        assert not res.attempts[1].crashed
        assert res.solution.tobytes() == ref.solution.tobytes()
        assert res.total_elapsed > ref.elapsed  # recovery is not free
        assert res.recovery_overhead > 0

    def test_crashed_run_reports_instead_of_hanging(self, tmp_path):
        prob = make_spd_problem(64, 0)
        plan = FaultPlan.single_crash("worker", 0, at=0.005)
        res = run_cg(n=64, num_gpus=2, iterations=16, shape_only=False,
                     checkpoint_dir=str(tmp_path), checkpoint_every=4,
                     fault_plan=plan, problem=prob)
        assert res.crashed
        assert res.fault_detail is not None
        assert not res.validated

    def test_crash_before_any_checkpoint_restarts_from_scratch(
            self, tmp_path):
        prob = make_spd_problem(64, 0)
        ref = run_cg(system="kebnekaise-v100", n=64, num_gpus=2,
                     iterations=12, shape_only=False, problem=prob)
        # Die before iteration checkpoint_every=8 completes anywhere.
        plan = FaultPlan.single_crash("worker", 1, at=ref.elapsed * 0.3)
        res = run_cg_with_recovery(n=64, num_gpus=2, iterations=12,
                                   checkpoint_dir=str(tmp_path),
                                   checkpoint_every=8, fault_plan=plan,
                                   problem=prob)
        assert res.recoveries == 1
        assert res.solution.tobytes() == ref.solution.tobytes()

    def test_resume_restores_a_consistent_cut(self, tmp_path):
        """Worker 1's newest snapshot is gone: a resume must restore
        every worker from iteration 4, not worker 0 from 8 and worker 1
        from 4 (a mixed cut solves a different system, silently)."""
        prob = make_spd_problem(64, 0)
        ref = run_cg(n=64, num_gpus=2, iterations=12, shape_only=False,
                     problem=prob)
        run_cg(n=64, num_gpus=2, iterations=8, shape_only=False,
               problem=prob, checkpoint_dir=str(tmp_path), checkpoint_every=4)
        (tmp_path / "cg_w1-8").unlink()
        resumed = run_cg(n=64, num_gpus=2, iterations=8, shape_only=False,
                         problem=prob, resume_dir=str(tmp_path))
        assert resumed.solution.tobytes() == ref.solution.tobytes()
        assert resumed.completed_step == 12

    def test_resumed_run_tags_snapshots_from_its_cut(self, tmp_path):
        """A run resumed from iteration 8 writes ``cg_w*-12``; it must
        not rewrite ``cg_w*-4`` with iteration-12 state, which a later
        resume would then take for iteration 4."""
        prob = make_spd_problem(64, 0)
        ckpt = str(tmp_path)
        run_cg(n=64, num_gpus=2, iterations=8, shape_only=False,
               problem=prob, checkpoint_dir=ckpt, checkpoint_every=4)
        early = {w: (tmp_path / f"cg_w{w}-4").read_bytes() for w in (0, 1)}
        run_cg(n=64, num_gpus=2, iterations=4, shape_only=False,
               problem=prob, checkpoint_dir=ckpt, checkpoint_every=4,
               resume_dir=ckpt)
        for w in (0, 1):
            assert (tmp_path / f"cg_w{w}-4").read_bytes() == early[w]
            assert (tmp_path / f"cg_w{w}-12").exists()
        ref = run_cg(n=64, num_gpus=2, iterations=16, shape_only=False,
                     problem=prob)
        again = run_cg(n=64, num_gpus=2, iterations=4, shape_only=False,
                       problem=prob, resume_dir=ckpt)
        assert again.solution.tobytes() == ref.solution.tobytes()

    def test_common_checkpoint_step_requires_all_workers(self, tmp_path):
        assert _consistent_cut(str(tmp_path), 2) is None
        (tmp_path / "cg_w0-4").write_bytes(b"RPCK garbage")  # torn file
        assert _consistent_cut(str(tmp_path), 2) is None

    def test_recovery_requires_checkpoint_dir(self):
        with pytest.raises(InvalidArgumentError, match="checkpoint_dir"):
            run_cg_with_recovery(n=64, iterations=4)

    def test_exhausted_restarts_raise(self, tmp_path, monkeypatch):
        """A restarted cluster runs without the fault plan, so a real
        run cannot spend its restarts; a schedule of one attempt makes
        the crash at t=0 final."""
        monkeypatch.setattr(cg, "_RECOVERY_POLICY",
                            RetryPolicy(max_attempts=1))
        prob = make_spd_problem(64, 0)
        plan = FaultPlan.single_crash("worker", 0, at=0.0)
        with pytest.raises(UnavailableError, match="restarts"):
            run_cg_with_recovery(n=64, num_gpus=2, iterations=8,
                                 checkpoint_dir=str(tmp_path),
                                 checkpoint_every=4, fault_plan=plan,
                                 problem=prob)
