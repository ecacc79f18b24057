"""Host-speed probe: the yardstick the host timings are normalised by.

The machine the benchmark runs on lends it a few virtual CPUs of a shared
host, and their speed swings by up to 2x for a minute or more at a time
(a fixed interpreter loop took 1.1 ms in one minute and 2.5 ms in the
next).  No statistic taken within one run removes a swing that outlasts
the run, so every host timing is also measured in units of a fixed
probe: a short pure-Python loop that belongs to the benchmark, not to
the program, and so never gets faster or slower with the code under
test.

While a repetition sets up and sweeps, an interval timer runs the probe
every ``INTERVAL_S`` seconds in the repetition's main thread, so the
samples fall evenly over the work and on the CPU it runs on.  A sample
is the probe's own thread CPU time: waiting for the interpreter lock
while another thread runs does not count, but a slow host does (on the
build host a CPU second and a wall second slow down alike).  A window's
normalised seconds are its raw seconds, less the probe's own time inside
it, times ``REFERENCE_S`` over the mean probe sample around it::

    normalised = (raw - probe time inside) * REFERENCE_S / mean(probe)

``REFERENCE_S`` is a constant: about the probe's mean on the 2-vCPU Intel
Xeon (2.0 GHz) VM the benchmark was built on, so a normalised second
there reads about one second.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from typing import List, Optional, Tuple

#: The probe's mean duration on the reference host (seconds).
REFERENCE_S = 0.0012

#: Seconds between probe samples while the timer runs.
INTERVAL_S = 0.025

#: Random-access table the probe walks (about 0.8 MB of list slots), so
#: the probe pays memory latency as well as interpreter dispatch.
_TABLE_SIZE = 100_003


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process to the first CPU it may run on; returns that CPU.

    The probe then measures the CPU the work runs on.  Threads and child
    processes started afterwards inherit the pin.
    """

    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def other_cpu(cpu: Optional[int]) -> Optional[int]:
    """A CPU other than ``cpu`` this process may use, if there is one."""

    if cpu is None or not hasattr(os, "sched_getaffinity"):
        return None
    others = sorted(os.sched_getaffinity(0) - {cpu})
    return others[0] if others else None


class HostProbe:
    """Timed samples of a fixed loop, and the windows they normalise."""

    def __init__(self) -> None:
        self._table = list(range(_TABLE_SIZE))
        #: (start, wall seconds, thread CPU seconds) of every sample.
        self.samples: List[Tuple[float, float, float]] = []

    def _loop(self) -> int:
        table, size = self._table, _TABLE_SIZE
        counts = {}
        x, total = 12345, 0
        for i in range(1_500):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            slot = x % size
            table[slot] += 1
            total += table[slot] ^ i
            counts[i & 63] = counts.get(i & 63, 0) + 1
        return total + len(counts)

    def sample(self, *_signal_args) -> None:
        cpu = time.thread_time()
        start = time.perf_counter()
        self._loop()
        wall = time.perf_counter() - start
        self.samples.append((start, wall, time.thread_time() - cpu))

    def start(self) -> None:
        """Sample every ``INTERVAL_S`` seconds until :meth:`stop`."""

        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _inside(self, start: float, end: float):
        return [s for s in self.samples if start <= s[0] < end]

    def spent(self, start: float, end: float) -> Tuple[float, float]:
        """Wall and CPU seconds the probe itself took inside a window."""

        inside = self._inside(start, end)
        return sum(s[1] for s in inside), sum(s[2] for s in inside)

    def factor(self, start: float, end: float, margin: float = 0.5) -> float:
        """``REFERENCE_S`` over the mean probe sample around a window.

        Samples from ``margin`` seconds before the window to ``margin``
        after it count, so a window shorter than the sampling interval
        is covered too.
        """

        near = self._inside(start - margin, end + margin)
        if not near:
            raise RuntimeError("no host-speed probe sample near the window")
        return REFERENCE_S / statistics.fmean(s[2] for s in near)

    def mean_s(self) -> float:
        return statistics.fmean(s[2] for s in self.samples)
