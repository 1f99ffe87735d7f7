"""Data-parallel SGD: numerics, mode/frontend equivalence, ring advantage."""

import numpy as np
import pytest

from repro.apps.sgd import make_regression_problem, run_sgd, sgd_reference
from repro.errors import InvalidArgumentError

SMALL = dict(d=16, num_workers=3, rows_per_worker=8, steps=6,
             learning_rate=0.005)


class TestNumerics:
    def test_concrete_matches_reference(self):
        result = run_sgd(mode="collective", **SMALL)
        assert result.validated
        x_shards, y_shards, _ = make_regression_problem(
            SMALL["d"], SMALL["rows_per_worker"], SMALL["num_workers"])
        ref_w, ref_losses, ref_traj = sgd_reference(
            x_shards, y_shards, SMALL["steps"], SMALL["learning_rate"])
        assert result.loss_history == ref_losses
        assert result.weights.tobytes() == ref_w.tobytes()
        assert len(result.trajectory) == SMALL["steps"]
        for got, want in zip(result.trajectory, ref_traj):
            assert got.tobytes() == want.tobytes()

    def test_loss_decreases(self):
        result = run_sgd(mode="reducer", **SMALL)
        history = result.loss_history
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_modes_are_byte_identical(self):
        """The acceptance bar: ring-allreduce and central-reducer
        gradient sync produce the same weight trajectory, bit for bit."""
        ring = run_sgd(mode="collective", **SMALL)
        central = run_sgd(mode="reducer", **SMALL)
        assert ring.validated and central.validated
        assert ring.loss_history == central.loss_history
        for a, b in zip(ring.trajectory, central.trajectory):
            assert a.tobytes() == b.tobytes()

    def test_frontends_are_byte_identical(self):
        """Session loop vs @repro.function dispatch: same builder, same
        bytes — and the function frontend traces exactly once."""
        session = run_sgd(mode="collective", frontend="session", **SMALL)
        traced = run_sgd(mode="collective", frontend="function", **SMALL)
        assert traced.trace_count == 1
        assert session.loss_history == traced.loss_history
        for a, b in zip(session.trajectory, traced.trajectory):
            assert a.tobytes() == b.tobytes()

    def test_frontends_byte_identical_in_reducer_mode(self):
        session = run_sgd(mode="reducer", frontend="session", **SMALL)
        traced = run_sgd(mode="reducer", frontend="function", **SMALL)
        assert session.weights.tobytes() == traced.weights.tobytes()


class TestPerformance:
    def test_ring_wins_at_eight_workers(self):
        """Large gradients at 8 ranks: the chief's NIC serializes O(W)
        copies while each ring link carries 2(W-1)/W of the buffer."""
        common = dict(d=1 << 18, num_workers=8, rows_per_worker=4, steps=2,
                      shape_only=True)
        ring = run_sgd(mode="collective", **common)
        central = run_sgd(mode="reducer", **common)
        assert ring.elapsed < central.elapsed

    def test_ring_advantage_grows_with_workers(self):
        def speedup(workers):
            common = dict(d=1 << 18, num_workers=workers, rows_per_worker=4,
                          steps=2, shape_only=True)
            ring = run_sgd(mode="collective", **common)
            central = run_sgd(mode="reducer", **common)
            return central.elapsed / ring.elapsed

        assert speedup(8) > speedup(4)

    def test_optimizer_lane_preserves_values(self):
        on = run_sgd(optimize=True, **SMALL)
        off = run_sgd(optimize=False, **SMALL)
        assert on.loss_history == off.loss_history
        assert on.weights.tobytes() == off.weights.tobytes()
        assert on.plan_items <= off.plan_items
        # Constant folding may only ever *remove* simulated cost (the
        # backward's gradient-seed spread is a const-only subtree).
        assert on.elapsed <= off.elapsed

    def test_shape_only_runs_paper_scale(self):
        result = run_sgd(d=1 << 18, num_workers=4, rows_per_worker=4,
                         steps=2, shape_only=True)
        assert result.elapsed > 0
        assert result.weights is None and not result.trajectory


MULTI = dict(d=12, blocks=3, num_workers=2, rows_per_worker=8, steps=5,
             learning_rate=0.004)


class TestMultiParameter:
    def test_blocks_model_matches_reference(self):
        """Per-layer weight blocks + bias: validated against the NumPy
        reference byte for byte, trajectory entries span all params."""
        result = run_sgd(mode="collective", **MULTI)
        assert result.validated
        # blocks weight chunks of d/blocks each, plus the scalar bias.
        assert result.weights.shape == (MULTI["d"] + 1,)

    def test_blocks_byte_identical_across_modes_and_frontends(self):
        baseline = run_sgd(mode="collective", frontend="session", **MULTI)
        for mode, frontend in (("reducer", "session"),
                               ("collective", "function"),
                               ("reducer", "function")):
            other = run_sgd(mode=mode, frontend=frontend, **MULTI)
            assert other.validated
            assert baseline.loss_history == other.loss_history
            for a, b in zip(baseline.trajectory, other.trajectory):
                assert a.tobytes() == b.tobytes()

    def test_momentum_matches_reference(self):
        for mode in ("collective", "reducer"):
            result = run_sgd(mode=mode, momentum=0.9, **SMALL)
            assert result.validated, mode

    def test_momentum_with_blocks_matches_reference(self):
        result = run_sgd(momentum=0.9, **MULTI)
        assert result.validated

    def test_momentum_actually_changes_the_update(self):
        plain = run_sgd(mode="collective", **SMALL)
        momentum = run_sgd(mode="collective", momentum=0.9, **SMALL)
        assert momentum.validated  # i.e. it matches the momentum reference
        # ...while genuinely applying a different (velocity) update.
        assert momentum.weights.tobytes() != plain.weights.tobytes()

    def test_indivisible_blocks_rejected(self):
        with pytest.raises(InvalidArgumentError):
            run_sgd(d=16, blocks=3)


class TestValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidArgumentError):
            run_sgd(mode="gossip")

    def test_unknown_frontend_rejected(self):
        with pytest.raises(InvalidArgumentError):
            run_sgd(frontend="graph_mode")

    def test_zero_steps_rejected(self):
        with pytest.raises(InvalidArgumentError):
            run_sgd(steps=0)

    def test_reference_solves_the_problem(self):
        x_shards, y_shards, w_true = make_regression_problem(
            8, 64, 2, noise=0.0)
        w, losses, _ = sgd_reference(x_shards, y_shards, 200, 0.002)
        assert losses[-1] < 1e-3 * losses[0]
        np.testing.assert_allclose(w, w_true, atol=1e-2)
