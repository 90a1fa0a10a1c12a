"""The machine's speed over time, and time measured at a fixed speed.

On a shared host a process runs at one of two speeds about 1.45x apart,
switching every 0.3 to 2 s, and the share of time at each changes from
minute to minute (`cpu_s` follows `wall_s`, so the process is running,
only slower).  A time measured in seconds follows that share more than it
follows the program.  So every workload process runs a Speedometer: a
timer signal interrupts it every INTERVAL_S to time a fixed piece of
reference work that touches nothing of shidoku.  A Timeline made from
those samples turns any stretch of the process's life into *nominal
seconds*: each piece of the stretch is scaled by NOMINAL_S over the
reference work's time around it, and the samples' own time is left out.
Nominal seconds are the seconds the stretch would take on a machine that
does the reference work in NOMINAL_S; a change to the program moves them
as it moves real seconds.

The reference work composes permutations of 16 points as tuples and
files them in a dict, the kind of work shidoku does.  A plain arithmetic
loop slows less than shidoku when the host is busy; this work slows
nearly as much, so it corrects nearly all of the slowdown.

Child side:   speedometer = Speedometer(); speedometer.start(); ...;
              samples = speedometer.stop()
Parent side:  Timeline(samples).seconds(start, end)
"""

from __future__ import annotations

import bisect
import signal
import time

#: how often the speedometer samples, in seconds
INTERVAL_S = 0.025
#: the reference work's time at the nominal speed: about its best time on
#: the 2-core machine the benchmark was built on
NOMINAL_S = 0.00033
#: a sample's speed is the median over this many samples around it
SMOOTHING = 5


#: the maps i -> a*i + b (mod 16) for odd a, which are permutations
_PERMS = [tuple((a * i + b) % 16 for i in range(16)) for a in range(1, 16, 2) for b in range(8)]


def reference_work() -> int:
    filed = {}
    p = _PERMS[0]
    for k in range(300):
        q = _PERMS[k % 64]
        p = tuple(p[i] for i in q)
        filed[p] = k
    return len(filed)


class Speedometer:
    """Times reference_work() at start (twice, as its first run is slower),
    every INTERVAL_S from a timer signal, and at stop.  Uses SIGALRM, which
    the worker processes leave free."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # start, end, start, end, ...

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_work()
        self.samples += (start, time.perf_counter())

    def start(self) -> None:
        self._sample()
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample()
        return self.samples


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class Timeline:
    """A process's speed over time, from a Speedometer's samples (times on
    time.perf_counter, which on Linux is the same clock in every process)."""

    def __init__(self, samples: list[float]) -> None:
        self.starts = samples[0::2]
        self.ends = samples[1::2]
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        half = SMOOTHING // 2
        windows = (durations[max(0, k - half) : k + half + 1] for k in range(len(durations)))
        self.scale = [NOMINAL_S / _median(window) for window in windows]

    def seconds(self, a: float, b: float) -> float:
        """Nominal seconds of the stretch from a to b: each piece between
        samples scaled by the speed of the sample before it (before the
        first sample, by the first one's), the samples' own time left out."""
        k = bisect.bisect_right(self.starts, a) - 1
        t = a if k < 0 else max(a, min(self.ends[k], b))
        total = 0.0
        while k + 1 < len(self.starts) and self.starts[k + 1] < b:
            if t < self.starts[k + 1]:
                total += (self.starts[k + 1] - t) * self.scale[max(k, 0)]
            k += 1
            t = max(t, min(self.ends[k], b))
        return total + max(0.0, b - t) * self.scale[max(k, 0)]
