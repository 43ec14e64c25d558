"""A clock that corrects for the CPU speed drift of a shared machine.

On a shared 2-core host the same pure-Python work runs up to ~40% slower
for stretches of seconds to minutes, with process CPU time equal to wall
time, so neither more repetitions nor CPU time remove it.  While the
benchmark runs, SIGALRM fires every INTERVAL_S and the handler times a
fixed interpreter loop (the probe).  A measured interval
is then rescaled by PROBE_REF_S / (mean probe time near that interval):
the result is the interval in seconds at the reference speed, the speed
at which the probe takes PROBE_REF_S.  Probe time is subtracted from
every interval, and the program under test is never touched: the
handler only reads the clock and runs its own loop, with the garbage
collector paused so that the program's heap does not slow the probe.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

INTERVAL_S = 0.03
# Typical probe time on the reference machine (2-core Intel Xeon VM,
# CPython 3.11): normalised seconds are close to raw seconds there.
PROBE_REF_S = 2.8e-4
MIN_SAMPLES = 40


def _shift(a, b):
    return a + b if a > b else b - a


def _probe():
    # Calls, a generator and small tuples: of the loops tried, this one
    # tracked the speed of the gramcode operations best (5-second windows:
    # 16% variation in op time, 2.7% after dividing by the probe time).
    values = tuple(range(40))
    total = 0
    for k in range(40):
        shifted = tuple(_shift(v, k) for v in values)
        total += max(shifted) - min(shifted)
    return total


class Speed:
    """Samples the probe on a timer; converts clock intervals to reference seconds."""

    def __init__(self):
        self.spent = 0.0
        self.times: list[float] = []
        self.costs: list[float] = []

    def clock(self) -> float:
        """perf_counter minus the time spent inside probes."""
        return time.perf_counter() - self.spent

    def sample(self, *_):
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _probe()
        cost = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.times.append(start - self.spent)
        self.costs.append(cost)
        self.spent += cost

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """Mean probe time around [t0, t1] over PROBE_REF_S (> 1: machine slow).

        Uses the samples inside the interval, widened on both sides until
        at least MIN_SAMPLES are included.
        """
        while len(self.times) < MIN_SAMPLES:
            self.sample()
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        while hi - lo < MIN_SAMPLES:
            if lo > 0:
                lo -= 1
            if hi < len(self.times) and hi - lo < MIN_SAMPLES:
                hi += 1
        window = self.costs[lo:hi]
        return sum(window) / len(window) / PROBE_REF_S

    def seconds(self, t0: float, t1: float) -> float:
        """Length of [t0, t1] in seconds at the reference speed."""
        return (t1 - t0) / self.factor(t0, t1)
