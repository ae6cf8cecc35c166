"""Host-speed correction for the benchmark's timings.

On a shared host the same work takes from 1x to 2x its uncontended time,
and the factor changes from one second to the next as other tenants load
the host.  A fixed reference computation that runs next to the timed
work is slowed by nearly the same factor, so a timing divided by the
reference's duration at the same moment, and multiplied by the
reference's nominal duration `REF_S`, is the time the work would take at
the reference host speed.

`Sampler` runs the reference from a SIGALRM handler every `PERIOD`
seconds, in the benchmark's own thread, between the bytecodes of
whatever runs at that moment (nsdpkit included; the reference touches
none of its state).  Each sample's interval is recorded, so the time the
samples take can be taken out of the operation that contained them.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD = 0.05               # seconds between samples (about 1% overhead)
# A host factor is the median of the samples from HALF_WINDOW before an
# operation to HALF_WINDOW after it.  One sample is noisy (its log spreads
# by about 0.13, and a sample the host preempts reads many times too
# long), while the host's speed changes over about a second.
HALF_WINDOW = 0.25
# Nominal duration of a warm `reference()` call: about its median on the
# reference machine (x86_64, 2 vCPU, Python 3.11, numpy 2.4, OpenBLAS on
# one thread) when nothing else loads the host.  It only scales the
# corrected figures; comparisons on one machine do not depend on it.
REF_S = 190e-6

_RNG = np.random.default_rng(0)
_MATS = [(lambda a: a + a.T)(_RNG.standard_normal((k, k))) for k in (2, 3, 2, 4) * 4]


def reference() -> float:
    """Fixed work shaped like nsdpkit's: small eigendecompositions and
    matrix products from Python, plus a little scalar Python."""
    s = 0.0
    for a in _MATS:
        w, v = np.linalg.eigh(a)
        s += float(w[0]) + float((v @ np.diag(w) @ v.T)[0, 0])
        for j in range(20):
            s = s * 0.5 + j
    return s


def warm_reference_seconds() -> float:
    """Duration of one reference call made right after another, so that
    what the interrupted work left in the caches does not count."""
    reference()
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def host_factor(n: int = 15) -> float:
    """How much slower than nominal the host runs now (median of n)."""
    return statistics.median(warm_reference_seconds() for _ in range(n)) / REF_S


class Sampler:
    """Samples the reference's duration every PERIOD seconds while running."""

    def __init__(self):
        self.start: list[float] = []     # interval each sample took
        self.end: list[float] = []
        self.warm: list[float] = []      # its warm reference duration
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.warm.append(warm_reference_seconds())
        self.start.append(t0)
        self.end.append(perf_counter())

    def __enter__(self):
        host_factor(5)                   # first calls pay for lazy set-up
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def correct(self, t0: float, t1: float) -> tuple[float, float]:
        """(measured, corrected) seconds of work timed from t0 to t1.

        `measured` leaves out the samples taken inside the interval.  The
        host factor is the median warm reference duration, over REF_S, of
        the samples from t0 - HALF_WINDOW to t1 + HALF_WINDOW or, if
        there are none, of the nearest sample on each side.
        """
        lo = bisect.bisect_left(self.start, t0)
        hi = bisect.bisect_right(self.end, t1)
        measured = (t1 - t0) - (sum(self.end[lo:hi]) - sum(self.start[lo:hi]))
        wlo = bisect.bisect_left(self.start, t0 - HALF_WINDOW)
        whi = bisect.bisect_right(self.end, t1 + HALF_WINDOW)
        warm = self.warm[wlo:whi] or [self.warm[i] for i in (lo - 1, lo)
                                      if 0 <= i < len(self.warm)]
        return measured, measured * REF_S / statistics.median(warm)
