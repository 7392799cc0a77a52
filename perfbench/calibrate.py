"""Machine-speed calibration: a fixed kernel timed beside the workload.

The reference machine is shared, and its speed flips between a fast
and a slow mode several times a second: this module's kernel takes
1.1x or 2.0x its best time, and the process's CPU time rises with its
wall time, so the drift is contention for the core itself, not
scheduling.  Raw wall times of runs a few minutes apart then spread
by a quarter, more than any useful regression bound.

So every timing is also *normalized*: a background thread runs a fixed
pure-Python kernel (a small set-associative LRU model, the same kind of
interpreter work as the simulator) every :data:`PERIOD` seconds and
records its thread CPU time.  The machine's CPUs slow down largely
independently (kernel times on the two CPUs of the reference machine
correlate at 0.3 over quarter seconds), so the kernel tracks the speed
of the CPU it runs on: short intervals are timed with the measured
process pinned to that CPU (``run.py`` set-up).  A timed interval's
normalized duration is
its raw duration divided by ``1 + SENSITIVITY * (c / REFERENCE_S - 1)``,
where ``c`` is the mean kernel time sampled during the interval and
:data:`REFERENCE_S` the kernel's time on the uncontended reference
machine.  Normalized times are therefore host seconds at the machine's
uncontended speed.  The kernel is benchmark code, so it is identical on
every commit compared.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import List, Tuple

#: Seconds between kernel samples.
PERIOD = 0.025
#: Kernel thread CPU time on the uncontended reference machine (the
#: 10th percentile of 3000 samples, 2 vCPU Intel Xeon at 2.1 GHz).
REFERENCE_S = 0.00056
#: How much of the kernel's slowdown the workloads suffer: the slope
#: that best fits ``paper-sweep`` and ``campaign`` request times against
#: the kernel's mean slowdown over two 60-90 s windows on the reference
#: machine (0.75-0.8 both times; a slope of 1 over-corrects by up to 10%
#: when the machine sits in its slow mode).  Start-ups pinned to the
#: kernel's CPU fit 0.84 (``campaign``) and 0.75 (``service-mix``).
SENSITIVITY = 0.8
#: Samples a factor is taken over, at least, for short intervals.
MIN_SAMPLES = 5


class _Line:
    __slots__ = ("tag", "stamp")

    def __init__(self, tag: int, stamp: int) -> None:
        self.tag = tag
        self.stamp = stamp


class _Cache:
    def __init__(self) -> None:
        self.sets: List[List[_Line]] = [[] for _ in range(32)]
        self.hits = 0

    def access(self, addr: int, now: int) -> bool:
        ways = self.sets[addr & 31]
        tag = addr >> 5
        for line in ways:
            if line.tag == tag:
                line.stamp = now
                self.hits += 1
                return True
        if len(ways) >= 4:
            ways.remove(min(ways, key=lambda line: line.stamp))
        ways.append(_Line(tag, now))
        return False


def kernel(n: int = 500) -> int:
    """The fixed calibration work; returns its hit count."""
    cache = _Cache()
    x = 7
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        cache.access((x >> 3) & 0xFFF, i)
    return cache.hits


def sample() -> float:
    """Thread CPU seconds of one kernel run."""
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


class Calibrator:
    """Background sampler of kernel time; ``factor`` scales intervals."""

    def __init__(self) -> None:
        #: (perf_counter stamp, kernel CPU seconds), in time order.
        self._samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="calibrator", daemon=True
        )

    def __enter__(self) -> "Calibrator":
        for _ in range(MIN_SAMPLES):
            self._record()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        for _ in range(MIN_SAMPLES):
            self._record()

    def _record(self) -> None:
        cost = sample()
        self._samples.append((time.perf_counter(), cost))

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD):
            self._record()

    def factor(self, t0: float, t1: float) -> float:
        """Slowdown against the reference machine over ``[t0, t1]``, from
        the mean kernel time of the samples inside, widened to the nearest
        :data:`MIN_SAMPLES` samples when too few fall inside.  The mean,
        because the machine flips between a fast and a slow mode within
        a second and an interval is slowed by the share of its time
        spent in the slow mode."""
        samples = list(self._samples)
        times = [t for t, _ in samples]
        lo = bisect.bisect_left(times, t0)
        hi = bisect.bisect_right(times, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
            if lo > 0:
                lo -= 1
            if hi < len(times) and hi - lo < MIN_SAMPLES:
                hi += 1
        kernel = statistics.fmean(c for _, c in samples[lo:hi])
        return 1.0 + SENSITIVITY * (kernel / REFERENCE_S - 1.0)

    def normalize(self, t0: float, t1: float) -> float:
        """Normalized duration of the interval ``[t0, t1]``."""
        return (t1 - t0) / self.factor(t0, t1)
