"""Reference speed of the interpreter, to take machine drift out of timings.

On a shared host the same Python code can run 1.8 times slower from one
minute to the next, and the speed can change in the middle of a 7-second
operation.  A small pure-Python kernel with octsieve's mix of work
(signed-table products of small-integer 8-tuples) slows down with it.

``SpeedSampler`` samples that kernel from a SIGALRM handler every
``INTERVAL_S`` while operations run.  The handler runs the kernel twice
and times only the second run, so the sample starts from the kernel's own
warm caches and not from whatever the interrupted operation left there:
the samples measure the host, not the program under test.  Time spent in
the handler is left out of the sampler's clock.  An interval is then
cut into pieces of at most ``PIECE_S``, and each piece is scaled by
``NOMINAL_S / k``, where k is the median kernel time of the samples taken
from ``WINDOW_S`` before to ``WINDOW_S`` after it.  The sum is the
interval's time at a fixed reference speed.  Scaling a long operation
piece by piece follows the host's speed as it changes during the
operation; one median over a whole 7-second operation did not.

``NOMINAL_S`` was set once, from the warm kernel's usual time on a 2-CPU
VM with Python 3.11, so that scaled times read close to wall times there.
It is a unit: it must stay the same for every commit compared.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from time import perf_counter

NOMINAL_S = 110e-6
INTERVAL_S = 0.02
WINDOW_S = 0.25
PIECE_S = 0.5
_TABLE = tuple(
    tuple((i ^ j, -1 if bin(i & j).count("1") % 2 else 1) for j in range(8)) for i in range(8)
)


def kernel() -> tuple[int, ...]:
    a, b = (3, -1, 4, 1, -5, 9, -2, 6), (2, 7, -1, 8, 2, -8, 1, 8)
    for _ in range(10):
        out = [0] * 8
        for i, ai in enumerate(a):
            row = _TABLE[i]
            for j, bj in enumerate(b):
                k, s = row[j]
                out[k] += s * ai * bj
        a = tuple(c % 97 - 48 for c in out)
    return a


def warm_kernel_s() -> float:
    """Seconds of one kernel run that follows another, on warm caches."""
    kernel()
    start = perf_counter()
    kernel()
    return perf_counter() - start


def local_factor(samples: int = 5) -> float:
    """``NOMINAL_S`` over the median of a few warm kernel times, taken now
    and in this process (a fresh interpreter runs it after its import)."""
    return NOMINAL_S / statistics.median(warm_kernel_s() for _ in range(samples))


class SpeedSampler:
    """Samples the kernel's time in the background of the main thread.

    Use as a context manager; ``clock`` excludes the handler's own time,
    and ``scaled(start, seconds)`` converts an interval of that clock to
    reference speed.  Only one sampler may be active per process.
    """

    def __init__(self):
        self.at: list[float] = []  # sample times, on ``clock``
        self.kernel_s: list[float] = []
        self._busy = 0.0
        self._previous = None

    def clock(self) -> float:
        return perf_counter() - self._busy

    def _sample(self, signum, frame):
        entered = perf_counter()
        self.kernel_s.append(warm_kernel_s())
        self.at.append(entered - self._busy)
        self._busy += perf_counter() - entered

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, seconds: float) -> float:
        """The interval [start, start + seconds] of ``clock``, in seconds at
        reference speed."""
        pieces = max(1, math.ceil(seconds / PIECE_S))
        piece = seconds / pieces
        total = 0.0
        for i in range(pieces):
            lo = bisect.bisect_left(self.at, start + i * piece - WINDOW_S)
            hi = bisect.bisect_right(self.at, start + (i + 1) * piece + WINDOW_S)
            window = self.kernel_s[lo:hi] or self.kernel_s
            total += piece * NOMINAL_S / statistics.median(window)
        return total
