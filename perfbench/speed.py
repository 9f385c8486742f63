"""Host-speed calibration: time measured in units of a fixed reference kernel.

A shared virtual machine changes speed under its tenants.  On the
2-vCPU Xeon VM the baseline was measured on, speed varied by up to 2x in
phases from a fraction of a second to tens of seconds, with CPU time
equal to wall time, and the wall time of one census pass moved by +-17%
from run to run: more than any bound worth having.

So while a pass runs, an interval timer interrupts it every SAMPLE_EVERY_S
seconds and times one call of a fixed pure-Python kernel (big-integer,
dict and Fraction arithmetic, like invseq's own work).  An operation's
time, less the time the samples took, is then multiplied by
REF_KERNEL_S over the mean kernel time of the samples taken within
WINDOW_S of it: the result is the time the operation would take on a
host where one kernel call takes REF_KERNEL_S.  The kernel is benchmark
code and does not touch invseq, so a slower program still reads slower;
a slower host does not.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

REF_KERNEL_S = 0.0005  # one kernel call at the reference speed
SAMPLE_EVERY_S = 0.025
WINDOW_S = 0.25


def kernel() -> None:
    x = 1
    d: dict[int, int] = {}
    for i in range(1500):
        x = x * 3 + i
        d[i & 63] = d.get(i & 63, 0) + x
    f = Fraction(0)
    for i in range(1, 40):
        f += Fraction(1, i)


class SpeedClock:
    """Samples host speed on a timer and rescales intervals to the reference.

    Measure intervals with now(), which excludes the time spent sampling,
    and rescale them with scaled(start, end, seconds) once sampling stopped.
    """

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self.stolen = 0.0
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        was_enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not host speed
        start = perf_counter()
        kernel()
        end = perf_counter()
        if was_enabled:
            gc.enable()
        self.times.append(start)
        self.kernel_s.append(end - start)
        self.stolen += perf_counter() - start

    def now(self) -> float:
        """A clock that stands still while the host speed is sampled."""
        return perf_counter() - self.stolen

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scaled(self, start: float, end: float, seconds: float) -> float:
        """seconds, spent between perf_counter() times start and end, at reference speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        lo, hi = max(0, min(lo, len(self.times) - 1)), max(hi, lo + 1)
        return seconds * REF_KERNEL_S / statistics.fmean(self.kernel_s[lo:hi])
