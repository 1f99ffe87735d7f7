"""Unit and property tests for Resource, Store, and BandwidthLink."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.events import Environment
from repro.simnet.resources import BandwidthLink, Resource, Store


@pytest.fixture()
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_serialises_users_beyond_capacity(self, env):
        res = Resource(env, capacity=1)
        log = []

        def user(name):
            req = res.request()
            yield req
            log.append((env.now, name, "start"))
            yield env.timeout(2.0)
            res.release(req)
            log.append((env.now, name, "end"))

        env.process(user("a"))
        env.process(user("b"))
        env.run()
        assert log == [
            (0.0, "a", "start"),
            (2.0, "a", "end"),
            (2.0, "b", "start"),
            (4.0, "b", "end"),
        ]

    def test_parallel_within_capacity(self, env):
        res = Resource(env, capacity=2)
        done = []

        def user(name):
            yield from res.use(3.0)
            done.append((env.now, name))

        for name in ("a", "b"):
            env.process(user(name))
        env.run()
        assert done == [(3.0, "a"), (3.0, "b")]

    def test_fifo_granting_order(self, env):
        res = Resource(env, capacity=1)
        order = []

        def user(name, hold):
            req = res.request()
            yield req
            order.append(name)
            yield env.timeout(hold)
            res.release(req)

        for name in ("first", "second", "third"):
            env.process(user(name, 1.0))
        env.run()
        assert order == ["first", "second", "third"]

    def test_release_ungranted_cancels_waiter(self, env):
        res = Resource(env, capacity=1)
        held = res.request()
        assert held.triggered
        waiting = res.request()
        assert not waiting.triggered
        res.release(waiting)  # cancel the queued claim
        assert res.queue_length == 0

    def test_double_release_is_error(self, env):
        res = Resource(env, capacity=1)
        req = res.request()
        res.release(req)
        with pytest.raises(RuntimeError):
            res.release(req)

    def test_count_tracks_holders(self, env):
        res = Resource(env, capacity=3)
        reqs = [res.request() for _ in range(3)]
        assert res.count == 3
        res.release(reqs[0])
        assert res.count == 2

    def test_a_grant_carries_no_value(self, env):
        """A request is its own handle, never its own value (a value of
        ``req`` was a one-object reference cycle per device claim)."""
        res = Resource(env, capacity=1)
        resumed = []

        def user():
            req = res.request()
            resumed.append((yield req))
            yield env.timeout(1.0)
            res.release(req)

        env.process(user())  # granted at once
        env.process(user())  # handed the slot by the first one's release
        env.run()
        assert resumed == [None, None]
        held = res.try_acquire()
        assert held.value is None
        waiter = res.request()
        assert not waiter.triggered
        res.release(held)  # the hand-over decides the waiter's value
        assert waiter.value is None


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        results = []

        def producer():
            yield store.put("x")

        def consumer():
            item = yield store.get()
            results.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert results == ["x"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        log = []

        def consumer():
            item = yield store.get()
            log.append((env.now, item))

        def producer():
            yield env.timeout(5.0)
            yield store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert log == [(5.0, "late")]

    def test_put_blocks_when_full(self, env):
        store = Store(env, capacity=1)
        log = []

        def producer():
            yield store.put(1)
            log.append((env.now, "put1"))
            yield store.put(2)
            log.append((env.now, "put2"))

        def consumer():
            yield env.timeout(4.0)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert log == [(0.0, "put1"), (4.0, "put2")]

    def test_fifo_item_order(self, env):
        store = Store(env)
        received = []

        def producer():
            for i in range(5):
                yield store.put(i)

        def consumer():
            for _ in range(5):
                item = yield store.get()
                received.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert received == [0, 1, 2, 3, 4]

    def test_fail_all_waiters(self, env):
        store = Store(env)
        outcomes = []

        def consumer():
            try:
                yield store.get()
            except RuntimeError as exc:
                outcomes.append(str(exc))

        def closer():
            yield env.timeout(1.0)
            store.fail_all_waiters(lambda: RuntimeError("queue closed"))

        env.process(consumer())
        env.process(consumer())
        env.process(closer())
        env.run()
        assert outcomes == ["queue closed", "queue closed"]

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    @given(items=st.lists(st.integers(), min_size=1, max_size=30),
           capacity=st.integers(min_value=1, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_property_fifo_order_preserved(self, items, capacity):
        env = Environment()
        store = Store(env, capacity=capacity)
        received = []

        def producer():
            for item in items:
                yield store.put(item)

        def consumer():
            for _ in items:
                got = yield store.get()
                received.append(got)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert received == items


class TestBandwidthLink:
    def test_single_transfer_time(self, env):
        link = BandwidthLink(env, rate=100.0)  # 100 B/s
        done = []

        def proc():
            yield link.transfer(500.0)
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [pytest.approx(5.0)]

    def test_zero_byte_transfer_immediate(self, env):
        link = BandwidthLink(env, rate=100.0)
        ev = link.transfer(0)
        assert ev.triggered

    def test_negative_size_rejected(self, env):
        link = BandwidthLink(env, rate=100.0)
        with pytest.raises(ValueError):
            link.transfer(-1)

    def test_set_rate_mid_transfer_conserves_bytes(self, env):
        link = BandwidthLink(env, rate=100.0)
        done = []

        def proc():
            yield link.transfer(100.0)
            done.append(env.now)

        def throttle():
            yield env.timeout(0.5)  # 50 bytes moved at 100 B/s
            link.set_rate(10.0)  # remaining 50 bytes take 5 s

        env.process(proc())
        env.process(throttle())
        env.run()
        assert done == [pytest.approx(5.5)]

    def test_set_rate_rejects_nonpositive(self, env):
        link = BandwidthLink(env, rate=100.0)
        with pytest.raises(ValueError):
            link.set_rate(0.0)

    def test_nan_size_and_rate_rejected(self, env):
        # NaN passes `< 0` / `<= 0` guards (every comparison is false) and
        # would then schedule a NaN wake-up into the calendar.
        link = BandwidthLink(env, rate=100.0)
        with pytest.raises(ValueError, match="nan"):
            link.transfer(float("nan"))
        with pytest.raises(ValueError, match="nan"):
            link.set_rate(float("nan"))
        with pytest.raises(ValueError, match="nan"):
            BandwidthLink(env, rate=float("nan"))
        assert link.rate == 100.0 and env.peek() == float("inf")

    def test_two_equal_transfers_share_fairly(self, env):
        link = BandwidthLink(env, rate=100.0)
        done = []

        def proc(name):
            yield link.transfer(100.0)
            done.append((env.now, name))

        env.process(proc("a"))
        env.process(proc("b"))
        env.run()
        # Each gets 50 B/s, both finish at t=2 (not t=1).
        assert done[0][0] == pytest.approx(2.0)
        assert done[1][0] == pytest.approx(2.0)

    def test_late_arrival_slows_first_flow(self, env):
        link = BandwidthLink(env, rate=100.0)
        done = {}

        def first():
            yield link.transfer(100.0)
            done["first"] = env.now

        def second():
            yield env.timeout(0.5)
            yield link.transfer(25.0)
            done["second"] = env.now

        env.process(first())
        env.process(second())
        env.run()
        # First does 50 B in 0.5 s alone; then shares: 50 B/s each.
        # Second finishes 25 B at t = 0.5 + 0.5 = 1.0; first then speeds up:
        # at t=1.0 first has 100-50-25 = 25 B left at 100 B/s -> t=1.25.
        assert done["second"] == pytest.approx(1.0)
        assert done["first"] == pytest.approx(1.25)

    def test_rate_must_be_positive(self, env):
        with pytest.raises(ValueError):
            BandwidthLink(env, rate=0)

    @given(
        sizes=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=8),
        offsets=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_bytes_conserved(self, sizes, offsets):
        """Aggregate throughput never exceeds the link rate, and every flow
        completes no earlier than size/rate after its start."""
        env = Environment()
        rate = 1000.0
        link = BandwidthLink(env, rate=rate)
        n = min(len(sizes), len(offsets))
        finish = {}

        def flow(i, start, size):
            yield env.timeout(start)
            yield link.transfer(size)
            finish[i] = env.now

        for i in range(n):
            env.process(flow(i, offsets[i], sizes[i]))
        env.run()
        for i in range(n):
            lower_bound = offsets[i] + sizes[i] / rate
            assert finish[i] >= lower_bound - 1e-6
        # Full utilisation bound: total bytes <= rate * (makespan - first start).
        makespan = max(finish.values()) - min(offsets[:n])
        assert sum(sizes[:n]) <= rate * makespan + 1e-6


# (rate, flows as (start, nbytes), rate changes as (time, rate)) ->
# (completion time per flow, link.bytes_moved, calendar entries scheduled),
# floats as float.hex. Recorded on the commit whose link told live wake-ups
# from superseded ones by a generation counter and always scanned the flow
# list: wake-ups recognised by timer identity and the one-flow shortcut must
# reproduce every bit, and schedule exactly as many (superseded) timers.
_LINK_GOLDEN = {
    "one_flow": (
        (1.3e9, [(0.0, 7e6 / 3)], ()),
        (["0x1.d683cea3509b8p-10"], "0x1.1cd4aaaaaaaabp+21", 5),
    ),
    "three_staggered": (
        (1.3e9, [(0.0, 5e6), (1e-3, 3e6 / 7), (2.5e-3, 1e7 / 3)], ()),
        (["0x1.7f7e5e4c4b2b1p-8", "0x1.b2fc77758bd3ap-10",
          "0x1.b9b534ece8682p-8"], "0x1.0b64618618618p+23", 17),
    ),
    "join_mid_transfer": (
        (6.1e9, [(0.0, 9e6), (0.7e-3, 9e6), (0.7e-3, 1e3 / 3)], ()),
        (["0x1.2706cf28468a0p-9", "0x1.82c6e95f29752p-9",
          "0x1.6f16699a021d2p-11"], "0x1.12a9cd5555556p+24", 17),
    ),
    "set_rate_mid_transfer": (
        (1.3e9, [(0.0, 5e6), (1e-4, 2e6 / 3)],
         ((1.1e-3, 0.37e9), (2.9e-3, 1.3e9))),
        (["0x1.720f58aa2cd66p-8", "0x1.37f998109ec32p-10"],
         "0x1.59ddaaaaaaaaap+22", 19),
    ),
}


@pytest.mark.parametrize("case", sorted(_LINK_GOLDEN))
def test_bandwidth_link_golden_completion_times(case):
    (rate, flows, rate_changes), expected = _LINK_GOLDEN[case]
    env = Environment()
    link = BandwidthLink(env, rate=rate)
    finish = {}

    def flow(i, start, nbytes):
        yield env.timeout(start)
        yield link.transfer(nbytes)
        finish[i] = env.now

    def change(at, new_rate):
        yield env.timeout(at)
        link.set_rate(new_rate)

    for i, (start, nbytes) in enumerate(flows):
        env.process(flow(i, start, nbytes))
    for at, new_rate in rate_changes:
        env.process(change(at, new_rate))
    env.run()
    assert ([finish[i].hex() for i in range(len(flows))],
            link.bytes_moved.hex(), env._seq) == expected
    # Byte conservation: what the link accounts is what the flows carried.
    assert link.bytes_moved == pytest.approx(sum(n for _, n in flows),
                                             rel=1e-12)
    assert link.active_transfers == 0
