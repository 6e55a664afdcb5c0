"""The host reference: a fixed kernel sampled on a timer while work runs.

On a shared host the same work takes up to a third longer in one minute
than in the next, and the process's CPU time stretches with it (the
slowdown is the processor's, not the scheduler's), so no statistic over
one run removes drift that lasts longer than the run.  The speed also
changes within a second, so a kernel timed only before and after a unit
of work misses most of what the unit saw.

So while the benchmark measures, a ``SIGALRM`` timer runs a short fixed
kernel every ``INTERVAL_S`` seconds and records how long that took.  A unit of work is reported in ``ref`` units: its time over
the mean of the samples taken while it ran.  The kernel is the
benchmark's own frozen code, so a change to the program moves the ratio
while the host's speed cancels out of it.  The benchmark times its work
on ``HostRef.now``, a clock that leaves out the time spent sampling.

A workload samples the kernel that does the kind of work it spends its
time on, because a slow spell of the host slows interpreted loops and
memory-bound numpy sorts by different amounts:

* ``lru_walk``, a pure-Python set-associative LRU walk: the scalar
  replayer's loop, and the server's plan and assemble loops are
  interpreted Python too;
* ``walk_and_sort``, a shorter walk and the ``unique``/``argsort`` pair
  that stack distances are computed with, for the capacity sweep.

Measured per unit of work, the ratio to ``lru_walk`` varied about 0.6
times as much as the ratio to ``walk_and_sort`` on cells, and the other
way round on capacity curves; a SHA-256 or a larger working set tracked worse.  One
run takes about 2 ms; sampled every 25 ms it costs 6-8% of the run, and
denser sampling tracked better than longer samples.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from typing import Callable

import numpy as np

#: seconds of work between two samples
INTERVAL_S = 0.025

_rng = np.random.default_rng(20151028)
#: a line stream with short forward strides and some reuse, 64 sets x 8 ways
_STREAM = (np.cumsum(_rng.integers(-3, 9, 9000)) & 0x3FFF).tolist()
_SETS, _WAYS = 64, 8
#: lines to rank by first use, as ``stack_distances`` does
_LINES = _rng.integers(0, 1 << 14, 12288)


def lru_walk(stream=_STREAM) -> int:
    """The interpreted reference work; returns its (fixed) miss count."""
    sets = [[] for _ in range(_SETS)]
    misses = 0
    for line in stream:
        s = sets[line & (_SETS - 1)]
        if line in s:
            if s[0] != line:
                s.remove(line)
                s.insert(0, line)
        else:
            misses += 1
            s.insert(0, line)
            if len(s) > _WAYS:
                s.pop()
    return misses


def walk_and_sort() -> int:
    """A third of the walk, then the numpy sorts; returns the misses."""
    misses = lru_walk(_STREAM[:3000])
    _, inverse = np.unique(_LINES, return_inverse=True)
    np.argsort(inverse, kind="stable")
    return misses


class HostRef:
    """Samples a reference ``kernel`` on a timer inside ``with``.

    ``now()`` is ``time.perf_counter()`` minus the time spent sampling;
    ``factor(start, end)`` is the mean sample taken between two readings
    of it.
    """

    def __init__(self, kernel: Callable[[], int]):
        self.kernel = kernel
        #: ``now()`` at the start of each sample, and its duration
        self.stamps: list = []
        self.samples: list = []
        self.spent = 0.0
        self._active = False
        self._previous = None

    def now(self) -> float:
        while True:
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:  # no sample ran in between
                return t - spent

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        seconds = time.perf_counter() - t0
        self.stamps.append(t0 - self.spent)
        self.samples.append(seconds)
        self.spent += seconds

    def __enter__(self) -> "HostRef":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._active = True
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._active = False
        if not self.samples:  # work shorter than one interval
            self._sample(signal.SIGALRM, None)

    @contextlib.contextmanager
    def paused(self):
        """No sampling inside the block (a no-op outside ``with``)."""
        if not self._active:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def factor(self, start: float, end: float) -> float:
        """Mean sample between ``start`` and ``end`` (``now()`` readings);
        for a span too short to hold one, the samples on either side."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        if hi == lo:
            lo, hi = max(lo - 1, 0), lo + 1
        return statistics.fmean(self.samples[lo:hi])
