"""Machine-speed probe: what makes host times comparable on a noisy box.

The sandbox this benchmark was built on changes speed by up to 1.5x for
tens of seconds at a time (measured: a fixed pure-Python loop takes
0.49-0.87 s, CPU time tracking wall time, so it is the machine and not
scheduling; ten back-to-back runs of one workload spread 13-40 %). No
median or minimum over a run's few calls survives that, because a whole
run sits inside one slow stretch. So every host time the benchmark gates
is rescaled by the speed the machine had *while it was measured*: a
``SIGALRM`` timer interrupts the main thread every 25 ms and times a
fixed 1 ms probe of interpreter work (heap, dict, method call, integer
arithmetic). A measured interval then reports

    (elapsed - time spent in probes) * NOMINAL_PROBE_S / mean probe time

i.e. the seconds it would have taken with the machine at the reference
speed. On the sandbox this brings the spread between runs from 16 % to
about 5 %. The raw seconds are kept beside every normalised value.

The same timer drives the tracer's 250 Hz sampler in traced children
(``sample``), so only one owner of ``SIGALRM`` exists.
"""

import heapq
import signal
import time

# Median probe time on the reference sandbox (Intel Xeon @ 2.10 GHz,
# CPython 3.11) in its fast state. Only a unit: parent and change are
# measured with the same constant.
NOMINAL_PROBE_S = 0.0008
PROBE_EVERY_S = 0.025
# The issue asked for 1 kHz; that cost stencil_concrete 1.2-1.3x (the
# handler evicts its cache-resident 128 KB blocks), 250 Hz costs 1.01x
# and still gives a thousand samples on the shortest workload.
SAMPLE_PERIOD_S = 0.004


class _Cell:
    def __init__(self):
        self.value = 0

    def add(self, amount):
        self.value += amount
        return self.value


def probe() -> float:
    """Time a fixed piece of interpreter-bound work (about 1 ms)."""
    clock = time.perf_counter
    start = clock()
    heap, table, cell = [], {}, _Cell()
    for i in range(2000):
        heapq.heappush(heap, (i * 7919) % 997)
        table[i & 255] = (i, heap)
        cell.add(i * i)
    while heap:
        heapq.heappop(heap)
    return clock() - start


class SpeedProbe:
    """Owns ``SIGALRM`` between :meth:`start` and :meth:`stop`.

    ``sample(frame)`` — the tracer's sampler — is called on every tick
    at 250 Hz when given; without it the timer only fires for probes.
    """

    def __init__(self, sample=None):
        self._sample = sample
        self._period = SAMPLE_PERIOD_S if sample else PROBE_EVERY_S
        self._probe_every = round(PROBE_EVERY_S / self._period)
        self._ticks = 0
        self.probes: list[float] = []

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._period, self._period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.probes.append(probe())  # never empty, however short the call

    def _tick(self, signum, frame) -> None:
        self._ticks += 1
        if self._sample is not None:
            self._sample(frame)
        if self._ticks % self._probe_every == 0:
            self.probes.append(probe())

    def normalise(self, elapsed: float) -> float:
        """``elapsed`` seconds between start() and stop(), at reference
        speed and without the probes' own time."""
        in_probes = sum(self.probes[:-1])  # the last one ran after stop()
        mean = sum(self.probes) / len(self.probes)
        return (elapsed - in_probes) * NOMINAL_PROBE_S / mean
