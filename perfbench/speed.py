"""A machine-speed probe that runs in the benchmark process while the program runs.

The machines the benchmark runs on are shared virtual machines whose speed
drifts on their own, over seconds and over tens of minutes, by more than the
benchmark's bounds. A fixed piece of stdlib work, timed while the program
runs, measures that drift, so the harness can state program time at a fixed
reference speed.

`SpeedProbe.running()` arms a SIGALRM interval timer. Every INTERVAL_S the
handler runs `probe_work()` (the same fixed mix of hashing, dict, heap and
tuple work every time, touching no state of the program) and records when
it started and how long it took. `reference_s(t0, t1)` turns a host
interval into reference seconds: the interval minus the probes that ran in
it, times PROBE_REF_S over the probes' durations around it.
"""

from __future__ import annotations

import bisect
import hashlib
import hmac
import heapq
import signal
from contextlib import contextmanager
from time import perf_counter

# Seconds between probes, and how many probes around a short interval set its speed.
INTERVAL_S = 0.1
MIN_PROBES = 4
# Duration of probe_work() that defines the reference speed: its usual
# duration on the 2-vCPU Intel Xeon (2.0 GHz) virtual machine the benchmark
# was defined on, with Python 3.11, in that machine's fast state.
PROBE_REF_S = 0.0021

_KEY = bytes(range(32))


def probe_work() -> int:
    """A fixed mix of the operations the simulator spends its time on."""
    table: dict[bytes, tuple] = {}
    heap: list[tuple[int, int]] = []
    acc = 0
    for i in range(480):
        msg = i.to_bytes(4, "big") * 8
        mac = hmac.new(_KEY, msg, hashlib.sha256).digest()
        table[mac[:8]] = (i, msg, mac)
        heapq.heappush(heap, (mac[0], i))
        acc += table[mac[:8]][0] + len(hashlib.sha256(mac + msg).digest())
    while heap:
        acc += heapq.heappop(heap)[1]
    return acc


class SpeedProbe:
    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        probe_work()
        t1 = perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    @contextmanager
    def running(self):
        """Probe every interval_s while the block runs; the timer is off after it."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def reference_s(self, t0: float, t1: float) -> float:
        """Program seconds in the host interval [t0, t1], at the reference speed.

        The probes that started inside the interval are taken out of it. The
        speed is the mean of PROBE_REF_S / duration, the time-weighted mean
        speed, over the probes inside the interval, widened to the
        MIN_PROBES nearest when fewer ran inside. With no probes at all it
        returns host seconds.
        """
        starts = self.starts
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_left(starts, t1)
        busy = (t1 - t0) - sum(self.durations[lo:hi])
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(starts)):
            if hi >= len(starts) or (lo > 0 and t0 - starts[lo - 1] < starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            return busy
        speed = sum(PROBE_REF_S / d for d in self.durations[lo:hi]) / (hi - lo)
        return busy * speed
