"""Reference oracles for reuse-distance histograms.

:func:`reuse_stack` is the quadratic LRU-stack simulation and
:func:`reuse_bit` the Bennett–Kruskal binary-indexed-tree version.
Both walk the stream one access at a time in Python, so they are easy
to read and slow; the production path is the vectorized
:func:`repro.memsim.stackdist.stack_distances`, which the agreement
tests compare against them.  Both return ``{distance: count}`` with
cold accesses keyed by :data:`~repro.analysis.reuse.INFINITE_DISTANCE`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable

from repro.analysis.reuse import INFINITE_DISTANCE


def reuse_stack(lines: Iterable[int]) -> Dict[int, int]:
    """O(n·d) LRU stack simulation."""
    stack: list = []
    hist: Counter = Counter()
    for ln in lines:
        try:
            depth = stack.index(ln)
        except ValueError:
            hist[INFINITE_DISTANCE] += 1
            stack.insert(0, ln)
        else:
            hist[depth] += 1
            del stack[depth]
            stack.insert(0, ln)
    return dict(hist)


class _BIT:
    """Binary indexed tree over positions, counting marked entries."""

    def __init__(self, n: int):
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        i += 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        """Sum of marks at positions 0..i inclusive."""
        i += 1
        s = 0
        while i > 0:
            s += self.tree[i]
            i -= i & (-i)
        return s


def reuse_bit(lines: Iterable[int]) -> Dict[int, int]:
    """Bennett–Kruskal: mark each line's latest position in a BIT.

    At access t to line x last seen at position p, the reuse distance is
    the number of marked positions strictly between p and t — each mark
    is the latest occurrence of some distinct line.
    """
    lines = list(lines)
    hist: Counter = Counter()
    last: Dict[int, int] = {}
    bit = _BIT(len(lines))
    for t, ln in enumerate(lines):
        p = last.get(ln)
        if p is None:
            hist[INFINITE_DISTANCE] += 1
        else:
            hist[bit.prefix(t - 1) - bit.prefix(p)] += 1
            bit.add(p, -1)
        bit.add(t, 1)
        last[ln] = t
    return dict(hist)
