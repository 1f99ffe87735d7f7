"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.simnet.events import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    Timeout,
    arm_deadline,
)


@pytest.fixture()
def env():
    return Environment()


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_start_time(self):
        assert Environment(10.0).now == 10.0

    def test_timeout_advances_clock(self, env):
        env.timeout(2.5)
        env.run()
        assert env.now == 2.5

    def test_run_until_number_stops_clock_exactly(self, env):
        env.timeout(10.0)
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_past_raises(self, env):
        env.timeout(5.0)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_nan_never_reaches_the_calendar(self, env):
        # Every comparison with NaN is false, so a `< 0` guard lets it
        # through; once in the heap it breaks the ordering invariant and
        # env.now is NaN for the rest of the session.
        with pytest.raises(ValueError, match="nan"):
            Timeout(env, float("nan"))
        env.timeout(1.0)
        with pytest.raises(ValueError, match="nan"):
            env.run(until=float("nan"))
        assert env.now == 0.0 and env.peek() == 1.0


class TestProcesses:
    def test_process_return_value(self, env):
        def proc():
            yield env.timeout(1.0)
            return 42

        p = env.process(proc())
        assert env.run(until=p) == 42
        assert env.now == 1.0

    def test_sequential_timeouts_accumulate(self, env):
        log = []

        def proc():
            for delay in (1.0, 2.0, 3.0):
                yield env.timeout(delay)
                log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [1.0, 3.0, 6.0]

    def test_two_processes_interleave_deterministically(self, env):
        log = []

        def ticker(name, period):
            for _ in range(3):
                yield env.timeout(period)
                log.append((env.now, name))

        env.process(ticker("a", 1.0))
        env.process(ticker("b", 1.0))
        env.run()
        # FIFO tie-break: "a" was created first, so it logs first at each t.
        assert log == [
            (1.0, "a"), (1.0, "b"),
            (2.0, "a"), (2.0, "b"),
            (3.0, "a"), (3.0, "b"),
        ]

    def test_process_waiting_on_process(self, env):
        def inner():
            yield env.timeout(2.0)
            return "inner-result"

        def outer():
            result = yield env.process(inner())
            return result + "!"

        p = env.process(outer())
        assert env.run(until=p) == "inner-result!"

    def test_exception_propagates_to_waiter(self, env):
        def failing():
            yield env.timeout(1.0)
            raise ValueError("boom")

        def waiter():
            try:
                yield env.process(failing())
            except ValueError as exc:
                return f"caught {exc}"

        p = env.process(waiter())
        assert env.run(until=p) == "caught boom"

    def test_unhandled_process_exception_raises_from_run(self, env):
        def failing():
            yield env.timeout(1.0)
            raise ValueError("boom")

        env.process(failing())
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_yield_non_event_is_error(self, env):
        def bad():
            yield 5

        env.process(bad())
        with pytest.raises(RuntimeError, match="non-event"):
            env.run()

    def test_wait_on_already_processed_event(self, env):
        ev = env.event()
        ev.succeed("early")

        def late_waiter():
            yield env.timeout(3.0)
            value = yield ev
            return value

        p = env.process(late_waiter())
        assert env.run(until=p) == "early"

    def test_run_until_event_deadlock_detected(self, env):
        ev = env.event()  # never triggered
        with pytest.raises(RuntimeError, match="deadlock"):
            env.run(until=ev)


class TestEvents:
    def test_succeed_twice_is_error(self, env):
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)

    def test_value_before_trigger_is_error(self, env):
        ev = env.event()
        with pytest.raises(RuntimeError):
            _ = ev.value

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_failed_event_defused_does_not_crash_run(self, env):
        ev = env.event()
        ev.fail(ValueError("handled elsewhere"))
        ev.defused()
        env.run()  # no raise

    def test_failed_event_undefused_crashes_run(self, env):
        ev = env.event()
        ev.fail(ValueError("unhandled"))
        with pytest.raises(ValueError, match="unhandled"):
            env.run()


class TestConditions:
    def test_all_of_waits_for_slowest(self, env):
        def proc():
            t1 = env.timeout(1.0, value="fast")
            t2 = env.timeout(5.0, value="slow")
            results = yield AllOf(env, [t1, t2])
            return sorted(results.values())

        p = env.process(proc())
        assert env.run(until=p) == ["fast", "slow"]
        assert env.now == 5.0

    def test_any_of_returns_at_fastest(self, env):
        def proc():
            t1 = env.timeout(1.0, value="fast")
            t2 = env.timeout(5.0, value="slow")
            results = yield AnyOf(env, [t1, t2])
            return list(results.values())

        p = env.process(proc())
        assert env.run(until=p) == ["fast"]
        assert env.now == 1.0

    def test_empty_all_of_triggers_immediately(self, env):
        def proc():
            result = yield AllOf(env, [])
            return result

        p = env.process(proc())
        assert env.run(until=p) == {}

    def test_all_of_fails_if_child_fails(self, env):
        def failing():
            yield env.timeout(1.0)
            raise RuntimeError("child died")

        def proc():
            with pytest.raises(RuntimeError, match="child died"):
                yield AllOf(env, [env.process(failing()), env.timeout(10.0)])
            return env.now

        p = env.process(proc())
        assert env.run(until=p) == 1.0


class TestInterrupts:
    def test_interrupt_delivers_cause(self, env):
        def victim():
            try:
                yield env.timeout(100.0)
            except Interrupt as intr:
                return ("interrupted", intr.cause, env.now)

        def attacker(target):
            yield env.timeout(3.0)
            target.interrupt("preempted")

        p = env.process(victim())
        env.process(attacker(p))
        assert env.run(until=p) == ("interrupted", "preempted", 3.0)

    def test_interrupt_dead_process_is_error(self, env):
        def quick():
            yield env.timeout(1.0)

        p = env.process(quick())
        env.run()
        with pytest.raises(RuntimeError, match="terminated"):
            p.interrupt()


class _RecordingEnvironment(Environment):
    """Logs every calendar entry ``step`` pops, as the heap keyed it."""

    def __init__(self):
        super().__init__()
        self.pops = []

    def step(self):
        when, priority, seq, event = self._queue[0]
        self.pops.append((when.hex(), priority, seq, type(event).__name__))
        super().step()


class TestCalendarOrder:
    """The calendar's order, pinned where it is rewritten.

    Constructors may push their own heap entry instead of going through
    ``Environment._schedule``; this scenario (recorded on the commit
    before they did) holds the key ``(time, priority, seq)`` of every
    entry, the pop order and the step count to what ``_schedule`` gives.
    """

    POPS = [
        ("0x0.0p+0", 0, 5, "Initialize"),
        ("0x0.0p+0", 0, 6, "Initialize"),
        ("0x0.0p+0", 1, 4, "Timeout"),
        ("0x1.999999999999ap-4", 1, 2, "Timeout"),
        ("0x1.999999999999ap-4", 0, 10, "Event"),
        ("0x1.999999999999ap-4", 1, 3, "Timeout"),
        ("0x1.999999999999ap-4", 0, 11, "AllOf"),
        ("0x1.999999999999ap-3", 1, 7, "Timeout"),
        ("0x1.0000000000000p-2", 1, 8, "Timeout"),
        ("0x1.3333333333333p-2", 1, 1, "Timeout"),
        ("0x1.3333333333333p-2", 0, 13, "AnyOf"),
        ("0x1.ccccccccccccdp-2", 1, 9, "Timeout"),
        ("0x1.ccccccccccccdp-2", 0, 15, "Event"),
        ("0x1.ccccccccccccdp-2", 0, 16, "Process"),
        ("0x1.ccccccccccccdp-2", 0, 17, "Process"),
        ("0x1.9999999999999p-1", 1, 12, "Timeout"),
        ("0x1.9133333333333p+6", 1, 14, "Timeout"),
    ]
    LOG = [
        ("zero", "0x0.0p+0"),
        ("chained", "0x1.999999999999ap-4", "a"),
        ("b", "0x1.999999999999ap-4"),
        ("all", "0x1.999999999999ap-4", ["a", "a", "b"]),
        ("expired", "0x1.999999999999ap-3"),
        ("late", "0x1.3333333333333p-2"),
        ("any", "0x1.3333333333333p-2", ["late"]),
        ("interrupted", "0x1.ccccccccccccdp-2", "stop"),
        ("returned", "0x1.ccccccccccccdp-2", 15),
        ("drained", "0x1.9133333333333p+6", 17),
    ]

    def test_scripted_scenario_pops_in_the_recorded_order(self):
        env = _RecordingEnvironment()
        log = []
        # Same-instant timeouts, created out of delay order.
        late = env.timeout(0.3, "late")
        tie_a = env.timeout(0.1, "a")
        tie_b = env.timeout(0.1, "b")
        zero = env.timeout(0.0, "zero")
        # succeed() from inside a callback: an URGENT entry at the popped
        # instant, ahead of the NORMAL tie that was scheduled before it.
        chained = env.event()
        tie_a.callbacks.append(lambda ev: chained.succeed(ev.value))
        chained.callbacks.append(
            lambda ev: log.append(("chained", env.now.hex(), ev.value)))
        for timer in (late, tie_b, zero):
            timer.callbacks.append(
                lambda ev: log.append((ev.value, env.now.hex())))

        def waiter():
            got = yield AllOf(env, [tie_a, tie_b, chained])
            log.append(("all", env.now.hex(), sorted(got.values())))
            got = yield AnyOf(env, [late, env.timeout(0.7, "slow")])
            log.append(("any", env.now.hex(), list(got.values())))
            try:
                yield env.timeout(100.0)
            except Interrupt as intr:
                log.append(("interrupted", env.now.hex(), intr.cause))
            return "done"

        def attacker(victim):
            yield env.timeout(0.45)
            victim.interrupt("stop")

        proc = env.process(waiter())
        env.process(attacker(proc))
        # One deadline that fires (nothing ever triggers `never`) ...
        never = env.event()
        arm_deadline(env, 0.2, never,
                     lambda: log.append(("expired", env.now.hex())))
        # ... and one detached because the watched event fires first.
        arm_deadline(env, 0.25, tie_b,
                     lambda: log.append(("detached deadline fired",)))

        assert env.run(until=proc) == "done"
        log.append(("returned", env.now.hex(), len(env.pops)))
        env.run()
        log.append(("drained", env.now.hex(), len(env.pops)))
        assert env.pops == self.POPS
        assert log == self.LOG

    def test_run_reaches_every_event_through_step(self):
        """``run`` may not pop the heap itself: the e2e harness counts
        ``simnet.events.steps`` by wrapping ``Environment.step``."""
        env = _RecordingEnvironment()

        def ticker(ticks):
            for _ in range(ticks):
                yield env.timeout(1.0)

        stop = env.process(ticker(5))
        env.process(ticker(9))
        env.timeout(20.0)
        env.run(until=stop)   # until an event ...
        assert len(env.pops) == 12
        env.run(until=7.5)    # ... until a time ...
        assert len(env.pops) == 15
        env.run()             # ... until drained
        # Every scheduled entry was popped exactly once, all via step().
        assert len(env.pops) == env._seq == 19
