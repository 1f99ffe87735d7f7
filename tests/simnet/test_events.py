"""Unit tests for the discrete-event simulation kernel."""

import random
from collections import deque

import pytest

from repro.simnet.events import (
    AllOf,
    Environment,
    Interrupt,
    Timeout,
    arm_deadline,
)
from repro.simnet.resources import BandwidthLink


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


class TestAllOf:
    """The one join: the value ``None``, at the slowest child."""

    def test_succeeds_with_none_at_the_slowest_child(self, env):
        def proc():
            got = yield AllOf(env, [env.timeout(1.0, "x"),
                                    env.timeout(4.0, "y")])
            return got, env.now

        p = env.process(proc())
        assert env.run(until=p) == (None, 4.0)

    def test_empty_and_already_processed_children(self, env):
        done = env.timeout(0.0, "z")
        env.run()
        assert AllOf(env, []).value is None
        join = AllOf(env, [done])
        assert join.triggered and join.value is None
        env.run()
        assert join.processed

    def test_fails_if_a_child_fails(self, env):
        def failing():
            yield env.timeout(1.0)
            raise RuntimeError("child died")

        def proc():
            with pytest.raises(RuntimeError, match="child died"):
                yield AllOf(env, [env.process(failing()), env.timeout(10.0)])
            return env.now

        p = env.process(proc())
        assert env.run(until=p) == 1.0

    def test_fails_and_defuses_every_failing_child(self, env):
        def failing(delay, message):
            yield env.timeout(delay)
            raise RuntimeError(message)

        first = env.process(failing(1.0, "first"))
        later = env.process(failing(2.0, "later"))
        join = AllOf(env, [first, env.timeout(5.0), later])
        caught = []

        def waiter():
            try:
                yield join
            except RuntimeError as exc:
                caught.append((str(exc), env.now))

        env.process(waiter())
        env.run()  # `later` fails after the join did: defused, no crash
        assert caught == [("first", 1.0)]
        assert not join.ok and first._defused and later._defused


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


# The priority a one-heap calendar keyed its entries by: an event
# triggered now ahead of a timeout at the same instant.
URGENT, NORMAL = 0, 1


class _SeqLane(deque):
    """A recording environment's URGENT lane: it also notes the ``seq``
    each entry drew, which the calendar itself does not keep."""

    def __init__(self, env):
        super().__init__()
        self.env = env
        self.seq = {}

    def append(self, event):
        self.seq[event] = self.env._seq  # drawn just before the append
        super().append(event)


class _RecordingEnvironment(Environment):
    """Logs every calendar entry ``step`` pops, keyed as a one-heap
    calendar keyed it: ``(time, priority, seq)``."""

    lane = _SeqLane

    def __init__(self):
        super().__init__()
        self._urgent = self.lane(self)
        self.pops = []

    def next_entry(self):
        """The entry ``step`` pops next, from whichever lane holds it."""
        if self._urgent:
            event = self._urgent[0]
            return self._now, URGENT, self._urgent.seq[event], event
        when, seq, event = self._queue[0]
        return when, NORMAL, seq, event

    def step(self):
        when, priority, seq, event = self.next_entry()
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
        ("0x1.3333333333333p-2", 0, 13, "Event"),
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

    def _play(self, then=lambda env: None):
        """The scenario; ``then(env)`` runs once ``proc`` has returned."""
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
            joined = [tie_a, tie_b, chained]
            yield AllOf(env, joined)
            log.append(("all", env.now.hex(),
                        sorted(ev.value for ev in joined)))
            # The first of two timers: `late` succeeds an event; `slow`
            # pops later with nothing waiting on it.
            first = env.event()
            env.timeout(0.7, "slow")
            late.callbacks.append(lambda ev: first.succeed([ev.value]))
            got = yield first
            log.append(("any", env.now.hex(), got))
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
        then(env)
        env.run()
        log.append(("drained", env.now.hex(), len(env.pops)))
        return env, log

    def test_scripted_scenario_pops_in_the_recorded_order(self):
        env, log = self._play()
        assert env.pops == self.POPS
        assert log == self.LOG

    def test_cancelled_timers_leave_the_recorded_order_alone(self):
        """Three deadlines whose watched event fires at once: the second
        cancellation tips the cancelled entries over half the calendar
        (seq 8, cancelled at 0.1, popped empty at 0.25 and still counted,
        plus 18 and 19 of five entries), so one compaction drops 18 and
        19; 20 is cancelled after it and pops empty, one step. Every
        entry of the pinned scenario pops with its recorded key, in its
        recorded order."""
        def cancel_three(env):
            finished = env.event()
            for _ in range(3):
                arm_deadline(env, 1.0, finished,
                             lambda: pytest.fail("cancelled deadline fired"))
            finished.succeed()

        env, log = self._play(cancel_three)
        assert [pop for pop in env.pops if pop[2] <= 17] == self.POPS
        assert [pop for pop in env.pops if pop[2] > 17] == [
            ("0x1.ccccccccccccdp-2", 0, 21, "Event"),
            ("0x1.7333333333333p+0", 1, 20, "Timeout"),
        ]
        assert log == self.LOG[:-1] + [("drained", "0x1.9133333333333p+6", 19)]
        assert env._queue == [] and not env._urgent and env._seq == 21

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


class TestLanes:
    """The URGENT lane (events triggered now) beside the timed heap."""

    def test_run_until_a_time_plays_the_lane_with_an_empty_heap(self, env):
        fired = env.event()
        fired.succeed("now")
        assert not env._queue
        env.run(until=0.0)
        assert fired.processed and env.now == 0.0
        later = env.event()
        later.succeed()
        env.run(until=5.0)
        assert later.processed and env.now == 5.0

    def test_peek_is_now_while_the_lane_holds_an_entry(self, env):
        env.run(until=2.0)
        env.timeout(1.0)
        env.event().succeed()
        assert env.peek() == 2.0
        env.step()
        assert env.peek() == 3.0

    def test_clear_empties_both_lanes(self, env):
        fired = env.event()
        fired.succeed()
        env.timeout(1.0)
        env.clear()
        assert not env._urgent and not env._queue
        assert env.peek() == float("inf")
        env.run()
        assert not fired.processed and env.now == 0.0

    def test_run_until_an_event_drains_only_when_both_lanes_are_empty(self, env):
        # The heap is empty throughout: the target is triggered by a
        # callback of an entry in the lane.
        first, target = env.event(), env.event()
        first.callbacks.append(lambda ev: target.succeed("reached"))
        first.succeed()
        assert env.run(until=target) == "reached"
        # Nothing ever triggers `never`: reported once the lane is played.
        played = env.event()
        played.succeed()
        with pytest.raises(RuntimeError, match="drained"):
            env.run(until=env.event())
        assert played.processed

    def test_an_unhandled_failure_raises_at_its_instant(self, env):
        env.run(until=1.5)
        env.timeout(1.0)
        env.event().fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()
        assert env.now == 1.5 and env.peek() == 2.5


class _OrderCheckingEnvironment(_RecordingEnvironment):
    """Asserts that every pop is the least key of all pending entries,
    each keyed ``(time, priority, seq)`` as a one-heap calendar held it."""

    def step(self):
        lane = self._urgent
        pending = [(when, NORMAL, seq, event) for when, seq, event in self._queue]
        pending += [(self._now, URGENT, lane.seq[event], event) for event in lane]
        least = min(pending, key=lambda entry: entry[:3])
        super().step()
        # Exactly one pending entry was processed: the one popped. (A
        # compaction drops cancelled timers, which are never processed.)
        popped = [entry for entry in pending if entry[3]._processed]
        assert popped == [least], f"popped {popped} ahead of {least}"


class _SwappingLane(_SeqLane):
    """A planted defect: the first time two entries wait in the lane,
    the second one pops first."""

    swapped = False

    def popleft(self):
        if self.swapped or len(self) < 2:
            return super().popleft()
        self.swapped = True
        first = super().popleft()
        second = super().popleft()
        self.appendleft(first)
        return second


class _OneEntryPerFlowLink(BandwidthLink):
    """The link as it finished flows through the calendar: each finished
    flow ``succeed``s, in list order, into the URGENT lane, and pops
    from there after the wake-up has armed the next one."""

    def _on_wake(self, _timer):
        least = self._advance()
        flows = self._flows
        if len(flows) == 1:
            finished, self._flows, least = flows, [], float("inf")
        else:
            threshold = least + 1e-6
            finished = [f for f in flows if f.remaining <= threshold]
            self._flows = [f for f in flows if f.remaining > threshold]
            least = min((f.remaining for f in self._flows),
                        default=float("inf"))
        for flow in finished:
            self.bytes_moved -= flow.remaining
            flow.succeed(flow.nbytes)
        self._arm(least)


def _mixed_scenario(env, seed, link_class):
    """A seeded mix of everything that enters the calendar: processes,
    zero-delay and equal-time timeouts, ``succeed``/``fail`` chains fired
    from callbacks, interrupts, ``AllOf`` joins, deadline timers that are
    cancelled (or fire), and an incast of 8 to 16 flows on one link with
    rate changes in flight. Returns the callback log and the number of
    non-zero transfers."""
    rng = random.Random(seed)
    log = []
    note = lambda *what: log.append((env.now.hex(),) + what)
    link = link_class(env, rate=rng.uniform(1e8, 1e9))
    instants = [0.0, 1e-4, 1e-4, 2e-4]
    when = lambda: rng.choice(instants + [rng.uniform(0.0, 3e-4)])

    # Timeouts, several due at one instant, created out of order.
    for i in range(rng.randint(3, 8)):
        env.timeout(when(), i).callbacks.append(
            lambda ev: note("timeout", ev.value))

    # succeed/fail chains, each link fired from the previous one's callback.
    for c in range(rng.randint(1, 4)):
        prev = env.timeout(when())
        for j in range(rng.randint(1, 3)):
            nxt, fails = env.event(), rng.random() < 0.3

            def fire(ev, nxt=nxt, fails=fails, tag=(c, j)):
                if fails:
                    nxt.fail(ValueError(tag))
                else:
                    nxt.succeed(tag)

            def heard(ev, tag=(c, j)):
                note("chain", tag, ev.ok)
                ev.defused()

            prev.callbacks.append(fire)
            nxt.callbacks.append(heard)
            prev = nxt

    # The incast: 8 to 16 flows start together, some within a sub-byte
    # of each other; one process joins a few more on an AllOf.
    sizes = lambda: rng.choice([rng.uniform(1e3, 1e5), 3e4, 3e4 + 4e-7])
    burst = rng.uniform(0.0, 2e-4)
    transfers = []

    def transfer(nbytes):
        transfers.append(nbytes)
        return link.transfer(nbytes)

    def flow(k, nbytes):
        yield env.timeout(burst)
        got = yield transfer(nbytes)
        note("flow", k, got)
        return k

    flows = [env.process(flow(k, sizes())) for k in range(rng.randint(8, 16))]
    flows += [env.process(flow(-k, 0)) for k in range(rng.randint(0, 2))]

    joined_sizes = [rng.choice([sizes(), 0]) for _ in range(rng.randint(2, 4))]
    join_at, fail_at = when(), when()

    def joiner():
        try:
            yield env.timeout(join_at)
            yield AllOf(env, [transfer(nbytes) for nbytes in joined_sizes])
            note("joined")
            yield env.timeout(1.0)
        except Interrupt as intr:
            note("interrupted", intr.cause)

    def fails_later():
        yield env.timeout(fail_at)
        raise ValueError("process failed")

    def catcher(failing):
        try:
            yield failing
        except ValueError as exc:
            note("caught", str(exc))

    env.process(catcher(env.process(fails_later())))
    join = env.process(joiner())

    def attacker(delay):
        yield env.timeout(delay)
        if join.is_alive:
            join.interrupt("stop")

    env.process(attacker(rng.uniform(1e-4, 2e-3)))

    def change(at, rate):
        yield env.timeout(at)
        link.set_rate(rate)
        note("rate", rate)

    for _ in range(rng.randint(1, 3)):
        env.process(change(rng.uniform(0.0, 5e-4),
                           link.rate * rng.choice([0.37, 2.0])))

    # Deadlines: most are cancelled when their watched event fires, which
    # tips compaction; a short one on a join that never comes fires.
    everyone = AllOf(env, flows)
    everyone.callbacks.append(lambda ev: note("all flows"))
    for _ in range(rng.randint(2, 6)):
        arm_deadline(env, rng.choice([1e-3, 5.0]), everyone,
                     lambda: note("deadline"))
    arm_deadline(env, rng.uniform(0.0, 3e-4), env.event(),
                 lambda: note("expired"))
    env.run()
    return log, sum(1 for nbytes in transfers if nbytes > 0)


@pytest.mark.parametrize("seed", range(40))
def test_every_pop_is_the_least_key_of_a_one_heap_calendar(seed):
    """Each pop is the least pending ``(time, priority, seq)``, and a
    link that completes its flows inside its wake-up runs every callback
    in the order, at the time and with the calendar numbers of one whose
    flows each pop — one pop fewer per non-zero flow."""
    env = _OrderCheckingEnvironment()
    log, nonzero = _mixed_scenario(env, seed, BandwidthLink)
    reference = _OrderCheckingEnvironment()
    reference_log, _ = _mixed_scenario(reference, seed, _OneEntryPerFlowLink)
    assert log == reference_log
    assert env._seq == reference._seq
    assert len(env.pops) == len(reference.pops) - nonzero
    assert nonzero >= 8


def test_a_swap_of_two_same_instant_entries_fails_the_order_check():
    class Swapping(_OrderCheckingEnvironment):
        lane = _SwappingLane

    with pytest.raises(AssertionError, match="ahead of"):
        _mixed_scenario(Swapping(), 0, BandwidthLink)
