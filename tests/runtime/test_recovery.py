"""The recovery loop on its own: stub hooks, no Session, no cluster."""

import pytest

from repro.errors import DeadlineExceededError, UnavailableError
from repro.runtime.recovery import Fault, run_recoverable
from repro.runtime.retry import RetryPolicy
from repro.simnet.events import Environment

POLICY = RetryPolicy(max_attempts=3, initial_backoff=0.5, multiplier=2.0)


class Stub:
    """Scripted hooks: ``advance`` plays ``runs`` in order (an int is the
    final step, a ``(error, step)`` pair a fault), ``restore`` plays
    ``restores`` (an exception is raised); both log their calls."""

    def __init__(self, env, runs, restores):
        self.env, self.runs, self.restores = env, list(runs), list(restores)
        self.advanced_from, self.restored_at = [], []

    def advance(self, step):
        self.advanced_from.append(step)
        outcome = self.runs.pop(0)
        if isinstance(outcome, tuple):
            raise Fault(*outcome)
        return outcome

    def restore(self):
        self.restored_at.append(self.env.now)
        outcome = self.restores.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def test_restore_replays_from_the_checkpoint_after_backoff():
    env = Environment()
    stub = Stub(env, runs=[(DeadlineExceededError("rank 1 lost"), 7), 10],
                restores=[UnavailableError("worker 1 down"), 4])
    record = run_recoverable(env, stub.advance, stub.restore, POLICY)
    assert record.step == 10
    assert record.recoveries == 1
    assert record.replayed == 7 - 4
    assert record.fault_log == [(0.0, "DeadlineExceededError", "rank 1 lost")]
    assert stub.advanced_from == [0, 4]
    # Each restore attempt waits its backoff delay on the simulated clock.
    assert stub.restored_at == [0.5, 1.5]
    assert env.now == 1.5


def test_spent_attempts_reraise_the_last_detection_error():
    env = Environment()
    last = UnavailableError("still down")
    stub = Stub(env, runs=[(DeadlineExceededError("lost"), 3)],
                restores=[UnavailableError("down"), last])
    with pytest.raises(UnavailableError, match="no more restarts") as info:
        run_recoverable(env, stub.advance, stub.restore, POLICY)
    assert info.value.__cause__ is last
    assert len(stub.restored_at) == POLICY.max_attempts - 1
    assert env.now == 0.5 + 1.0


def test_each_fault_gets_the_whole_schedule():
    """Two faults that restore the same checkpoint: the second starts
    its backoff at the initial delay and has every attempt again."""
    env = Environment()
    stub = Stub(env, runs=[(UnavailableError("a"), 5),
                           (UnavailableError("b"), 6), 12],
                restores=[UnavailableError("down"), 4,
                          UnavailableError("down"), 4])
    record = run_recoverable(env, stub.advance, stub.restore, POLICY)
    assert (record.step, record.recoveries, record.replayed) == (12, 2, 3)
    assert stub.advanced_from == [0, 4, 4]
    assert stub.restored_at == [0.5, 1.5, 2.0, 3.0]


def test_no_checkpoint_replays_from_step_zero():
    env = Environment()
    stub = Stub(env, runs=[(DeadlineExceededError("lost"), 3), 8],
                restores=[None])
    record = run_recoverable(env, stub.advance, stub.restore, POLICY)
    assert stub.advanced_from == [0, 0]
    assert record.replayed == 3
