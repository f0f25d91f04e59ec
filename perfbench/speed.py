"""Machine-speed reference for timings taken on a shared machine.

On a shared virtual machine the speed of a CPU can change by 1.5-2x, for
stretches of a fraction of a second to tens of seconds, when other tenants
load it; a 20-second run may fall wholly in a slow or a fast stretch.  Raw
timings then differ between runs by far more than any regression worth
catching.  So the benchmark times a fixed reference task on the CPU the
requests run on (run.py pins the benchmark to one CPU) and scales every
timing by ``nominal / reference``, averaged over the timed interval.  The
reference tasks do not use qubus_forge, so no change to the package moves
them:

- in-process workloads: :func:`kernel_s`, a pure-Python task of the kind the
  package runs (dict updates, complex arithmetic, tuple keys, a sort), run
  from a SIGALRM handler every 25 ms, so that long requests are sampled
  inside; the time the handler takes is left out of the timings;
- process launches (cli_cold, set-up): :func:`launch_s`, an interpreter
  start that imports numpy, taken between requests.

Nominal values are what each reference takes on an unloaded CPU of a 2-CPU
Xeon virtual machine at 2.0 GHz, so scaled timings read as times on that
machine.  Raw timings are kept beside the scaled ones in the run record.
The reference slows somewhat more or less than the package does, so
scaling leaves a spread of a few percent between runs.
"""

from __future__ import annotations

import bisect
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

KERNEL_NOMINAL_S = 1.15e-3
LAUNCH_NOMINAL_S = 0.15
#: Time between two samples.
KERNEL_INTERVAL_S = 0.025
LAUNCH_INTERVAL_S = 0.5


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    acc = {}
    for i in range(2000):
        key = (i % 61, i % 7)
        acc[key] = acc.get(key, 0j) + complex(i, -i) * 1.5
    sorted(acc.items(), key=lambda kv: (kv[0], abs(kv[1])))
    return time.perf_counter() - start


def launch_s() -> float:
    """Wall time of one interpreter launch that imports numpy: the part of a
    CLI launch that qubus_forge does not control."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import numpy"], stdout=subprocess.DEVNULL, check=True,
        timeout=60,
    )
    return time.perf_counter() - start


class Reference:
    """Reference samples over a run, and timings scaled by them.

    With ``timer`` set, samples are taken from a SIGALRM handler every
    ``interval_s``, also in the middle of a request; the time a sample takes
    is a pause, which scaled timings leave out.  Otherwise call
    :meth:`maybe_take` between requests.
    """

    def __init__(self, sample, nominal_s: float, interval_s: float, timer: bool):
        self._sample = sample
        self.nominal_s = nominal_s
        self.interval_s = interval_s
        self.timer = timer
        self.times: list[float] = []
        self.values: list[float] = []
        self.pauses: list[tuple[float, float]] = []
        self._sampling = False

    def take(self) -> None:
        if self._sampling:  # a timer signal that arrived during a sample
            return
        self._sampling = True
        start = time.perf_counter()
        value = self._sample()
        end = time.perf_counter()
        self.times.append((start + end) / 2.0)
        self.values.append(value)
        self.pauses.append((start, end))
        self._sampling = False

    def maybe_take(self) -> None:
        if not self.timer and (
            not self.times or time.perf_counter() - self.times[-1] >= self.interval_s
        ):
            self.take()

    @contextmanager
    def running(self):
        """Sample for the duration of the block: at its start and end and,
        with a timer, every ``interval_s`` in between."""
        self.take()
        if self.timer:
            previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.take())
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            if self.timer:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            self.take()

    def at(self, t: float) -> float:
        """Reference time at ``t``, linear between the samples around it."""
        i = bisect.bisect(self.times, t)
        if i == 0:
            return self.values[0]
        if i == len(self.times):
            return self.values[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        v0, v1 = self.values[i - 1], self.values[i]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def paused(self, start: float, end: float) -> float:
        """Time of [start, end] spent taking samples."""
        total = 0.0
        for i in range(max(0, bisect.bisect(self.pauses, (start,)) - 1), len(self.pauses)):
            lo, hi = self.pauses[i]
            if lo >= end:
                break
            total += max(0.0, min(hi, end) - max(lo, start))
        return total

    def scaled(self, start: float, end: float) -> float:
        """Time of [start, end], pauses left out, at nominal machine speed.

        The speed factor ``nominal / reference`` is averaged over the
        interval, between the samples taken inside it.
        """
        first = bisect.bisect(self.times, start)
        last = bisect.bisect(self.times, end)
        points = [start] + self.times[first:last] + [end]
        factors = [self.nominal_s / self.at(t) for t in points]
        if end > start:
            factor = sum(
                (b - a) * (fa + fb) / 2.0
                for a, b, fa, fb in zip(points, points[1:], factors, factors[1:])
            ) / (end - start)
        else:
            factor = factors[0]
        return (end - start - self.paused(start, end)) * factor


def for_workload(in_process: bool) -> Reference:
    if in_process:
        return Reference(kernel_s, KERNEL_NOMINAL_S, KERNEL_INTERVAL_S, timer=True)
    return Reference(launch_s, LAUNCH_NOMINAL_S, LAUNCH_INTERVAL_S, timer=False)
