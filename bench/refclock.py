"""A clock that runs at a fixed reference CPU speed.

On a shared VM the speed of a vCPU changes under the program: on the
2-vCPU Intel Xeon VM the benchmark was built on (Python 3.11.7), each vCPU
switches, independently of the other, between a fast state and one about
1.5x slower, for stretches of a fraction of a second to minutes.  Wall time
then measures the host as much as the program, and a set of runs taken in
a slow stretch reads up to 1.5x slower than one taken in a fast stretch.

RefClock samples the speed of the CPU the process runs on while the
program runs.  Every INTERVAL_S of wall time a SIGALRM handler times
probe(), a fixed loop of interpreter work that does not depend on the
program.  Between two probes the reference clock advances by the wall time
elapsed, scaled by REF_PROBE_S over the probe's duration (the median of the
probes around it, so that one probe hit by an interrupt does not count).
The probes' own time is not counted.  A reference second is then the time
the work would take on a CPU that runs probe() in REF_PROBE_S seconds,
which is about its fast state on that VM.  A change to the program moves
reference time as it moves wall time, but the CPU's state moves it much
less.  The probes cost about 1% of the timed region.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.01
PROBE_LOOPS = 600
# probe() in the fast state of the VM described above
REF_PROBE_S = 60e-6
# probes on each side of a gap whose median sets its rate
SMOOTH = 2


def probe():
    x = 1
    for i in range(PROBE_LOOPS):
        x = (x * 40503 + i) & 0xFFFFFFFF
    return x


class RefClock:
    """Start it, read perf_counter() around the work, stop it, then ask
    elapsed(t0, t1) for the reference seconds between two readings."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)

    def start(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        # rate of the gap that ends at probe k (the gap after the last
        # probe takes the last probe's rate)
        self.rates = [REF_PROBE_S / statistics.median(durations[max(0, k - SMOOTH):k + SMOOTH + 1])
                      for k in range(len(durations))]

    def elapsed(self, t0, t1):
        """Reference seconds of work between perf_counter() readings t0 <= t1."""
        total = 0.0
        k = bisect.bisect_right(self.ends, t0)  # first probe ending after t0
        cursor = t0
        while cursor < t1:
            if k < len(self.starts):
                gap_end = min(self.starts[k], t1)
                rate = self.rates[k]
            else:
                gap_end, rate = t1, self.rates[-1]
            if gap_end > cursor:
                total += (gap_end - cursor) * rate
            if k >= len(self.starts):
                break
            cursor = max(cursor, self.ends[k])
            k += 1
        return total

    def probe_share(self, t0, t1):
        """Share of [t0, t1] spent in probes."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.ends, t1)
        return sum(self.ends[k] - self.starts[k] for k in range(lo, hi)) / max(t1 - t0, 1e-9)
