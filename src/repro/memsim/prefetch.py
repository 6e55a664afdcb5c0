"""Stream (next-line) prefetching — an optional hierarchy extension.

The paper's platforms have hardware prefetchers that our base model
omits; EXPERIMENTS.md lists this as a threat to validity, because
sequential array-order streams are exactly what next-line prefetchers
accelerate.  This module adds a simple per-core stream prefetcher in the
style of the classic N-line sequential prefetcher: it watches the
request stream arriving at a cache level, detects ascending *or*
descending unit-stride line runs, and installs the next ``degree`` lines
of a confirmed run into that cache (without charging the demand stream).

Attach one via :class:`LevelSpec.prefetch <repro.memsim.hierarchy.LevelSpec>`;
ablation A6 (``benchmarks/test_ablation_prefetch.py``) measures how much
of array-order's off-axis penalty it recovers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import Cache

__all__ = ["PrefetchConfig", "StreamPrefetcher"]


@dataclass(frozen=True)
class PrefetchConfig:
    """Stream-prefetcher parameters.

    Attributes
    ----------
    degree : int
        Lines fetched ahead once a stream is confirmed.
    confirm : int
        Consecutive unit-stride requests needed to confirm a stream
        (2 = the second sequential miss starts prefetching).
    """

    degree: int = 2
    confirm: int = 2

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.confirm < 2:
            raise ValueError(f"confirm must be >= 2, got {self.confirm}")


class StreamPrefetcher:
    """Per-core detector + issuer for one cache instance.

    State is one active stream (last line, direction, run length) per
    prefetcher — the single-stream simplification is conservative: a
    real 16-stream prefetcher would help sequential code *more*, so any
    array-order recovery this model shows is a lower bound.
    """

    def __init__(self, config: PrefetchConfig):
        self.config = config
        self._last: int = -(1 << 60)
        self._direction: int = 0
        self._run: int = 1
        self.issued: int = 0
        self.installed: int = 0

    def observe_and_fill(self, lines: np.ndarray, cache: Cache) -> int:
        """Watch a request batch; install predicted lines into ``cache``.

        Returns the number of prefetches issued for this batch.
        """
        cfg = self.config
        issued_before = self.issued
        to_install = []
        last, direction, run = self._last, self._direction, self._run
        for ln in np.asarray(lines, dtype=np.int64).tolist():
            step = ln - last
            if step == direction and direction != 0:
                run += 1
            elif step == 1 or step == -1:
                direction = step
                run = 2
            else:
                direction = 0
                run = 1
            if direction != 0 and run >= cfg.confirm:
                for d in range(1, cfg.degree + 1):
                    # a descending stream stops at line 0
                    if ln + direction * d >= 0:
                        to_install.append(ln + direction * d)
            last = ln
        self._last, self._direction, self._run = last, direction, run
        if to_install:
            self.issued += len(to_install)
            self.installed += cache.install_lines(
                np.array(to_install, dtype=np.int64))
        return self.issued - issued_before

    def reset(self) -> None:
        """Forget the active stream and zero the counters."""
        self._last = -(1 << 60)
        self._direction = 0
        self._run = 1
        self.issued = 0
        self.installed = 0
