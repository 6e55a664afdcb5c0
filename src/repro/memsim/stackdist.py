"""Single-pass stack-distance (Mattson) replay backend.

The replay backends in :mod:`repro.memsim.cache` re-walk the whole
address stream once per cache geometry.  For a *fully-associative LRU*
cache that is wasted work: an access hits a capacity-``C`` cache iff
its stack distance — the number of distinct lines touched since the
previous access to the same line — is ``< C``, so one pass computing
the stack-distance histogram prices **every** capacity at once
(Mattson et al., 1970).  This module is that pass, fully vectorized,
plus the in-process memo that lets sweeps reuse a histogram across
geometries without touching the trace again.

Algorithm
---------
Per-access stack distances fall out of two classical reductions, both
of which vectorize cleanly:

1. With ``prev[t]`` the previous position of the line accessed at
   ``t``, the window ``(prev[t], t)`` holds ``t - prev[t] - 1``
   accesses, of which the *repeats* are exactly the accesses ``j`` with
   ``prev[j] > prev[t]`` (a repeat's own previous occurrence lies
   inside the window, and ``j > prev[j] > prev[t]`` makes ``j`` land in
   the window automatically).  Hence::

       d[t] = (t - prev[t] - 1) - #{j < t : prev[j] > prev[t]}

2. The correction term is a count-of-earlier-larger over the
   (distinct) ``prev`` values in time order — inversion counting,
   done here by a bottom-up merge accumulation: ``log2(n)`` rounds,
   each one a batched stable row-sort over all current blocks (two
   sorted runs per row, which the stable sort merges in linear time)
   plus O(n) rank arithmetic.  No per-access Python anywhere.

Validity domain
---------------
Histogram pricing is exact for a **single fully-associative LRU cache
fed the raw stream** — and for nothing else.  In particular it does
*not* extend to multi-level hierarchies the way our
:class:`~repro.memsim.hierarchy.Machine` wires them (each outer level
sees only the inner level's misses): the filtered stream scrambles
recency.  Counterexample: stream ``x y x z w x`` through L1=2,
L2=3 lines — the final ``x`` has global stack distance 2 (< 3, so
histogram pricing predicts an L2 hit) but L2, which saw only
``x y z w``, evicted ``x`` on ``w`` and actually misses.
:func:`stack_ineligibility` encodes the exact domain; outside it the
engine replays the schedule on the ``auto`` replay backend instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .cache import CacheConfig
from .hierarchy import LevelSpec, PlatformSpec

__all__ = [
    "COLD",
    "StackDistanceHistogram",
    "stack_distances",
    "stack_distance_histogram",
    "per_thread_histograms",
    "stack_ineligibility",
    "fully_associative_spec",
    "HistogramStore",
    "stream_key",
]

#: distance assigned to cold (first-touch) accesses, matching
#: :data:`repro.analysis.reuse.INFINITE_DISTANCE`
COLD = -1


def _as_line_array(lines) -> np.ndarray:
    """Normalize a stream to a flat int64 ndarray without extra copies.

    Integer ndarrays pass through as (at most) a dtype-cast view chain;
    lists and other iterables are converted once.
    """
    arr = np.asarray(lines)
    if arr.dtype.kind not in "iu":
        if arr.size and not np.issubdtype(arr.dtype, np.number):
            raise TypeError(f"line stream must be integer, got {arr.dtype}")
        arr = arr.astype(np.int64)
    elif arr.dtype != np.int64:
        arr = arr.astype(np.int64)
    return arr.ravel()


def _count_earlier_greater(values: np.ndarray) -> np.ndarray:
    """For each position ``i``: ``#{k < i : values[k] > values[i]}``.

    ``values`` must be pairwise distinct (they are previous-occurrence
    positions here, which are distinct by construction).  Bottom-up
    merge accumulation: at block size ``s``, every element in a right
    half counts the elements of its (earlier-in-time) left half that
    exceed it, read off the element's rank in the merged order.  The
    rows being two sorted runs, the stable row-sort is a linear merge.
    """
    m = values.size
    counts = np.zeros(m, dtype=np.int64)
    if m < 2:
        return counts
    n_pad = 1 << int(m - 1).bit_length()
    vals = np.empty(n_pad, dtype=np.int64)
    vals[:m] = values
    if n_pad > m:
        # ascending pad larger than every real value: sorts to the
        # tail, stays distinct, contributes no cross-block counts
        top = int(values.max()) + 1
        vals[m:] = np.arange(top, top + (n_pad - m), dtype=np.int64)
    src = np.arange(n_pad, dtype=np.int64)
    size = 1
    while size < n_pad:
        width = 2 * size
        rows = vals.reshape(-1, width)
        src_rows = src.reshape(-1, width)
        order = np.argsort(rows, kind="stable", axis=1)
        rank = np.empty_like(order)
        np.put_along_axis(rank, order,
                          np.broadcast_to(np.arange(width), rows.shape),
                          axis=1)
        # a right-half element at column size+j has exactly j smaller
        # right-half siblings (its own run is sorted), so `rank - j` of
        # the `size` left-half elements — all earlier in time — are
        # smaller and the rest are greater
        j = np.arange(size, dtype=np.int64)
        cross = (size - (rank[:, size:] - j)).ravel()
        right_src = src_rows[:, size:].ravel()
        real = right_src < m
        # src is a permutation, so right_src entries are distinct:
        # plain fancy-index accumulation is safe
        counts[right_src[real]] += cross[real]
        vals = np.take_along_axis(rows, order, axis=1).ravel()
        src = np.take_along_axis(src_rows, order, axis=1).ravel()
        size = width
    return counts


def stack_distances(lines) -> np.ndarray:
    """Per-access LRU stack distances; cold accesses get :data:`COLD`.

    The distance of an access is the number of *distinct* lines touched
    since the previous access to the same line, computed in O(n log n)
    numpy passes with no per-access Python loop.
    """
    arr = _as_line_array(lines)
    n = arr.size
    dist = np.full(n, COLD, dtype=np.int64)
    if n == 0:
        return dist
    # previous-occurrence index per access
    _, inv = np.unique(arr, return_inverse=True)
    order = np.argsort(inv, kind="stable")
    inv_sorted = inv[order]
    prev_sorted = np.full(n, -1, dtype=np.int64)
    same = inv_sorted[1:] == inv_sorted[:-1]
    prev_sorted[1:][same] = order[:-1][same]
    prev = np.empty(n, dtype=np.int64)
    prev[order] = prev_sorted
    warm = np.flatnonzero(prev >= 0)
    if warm.size:
        q = prev[warm]
        repeats = _count_earlier_greater(q)
        dist[warm] = warm - q - 1 - repeats
    return dist


@dataclass(frozen=True)
class StackDistanceHistogram:
    """A stream's full stack-distance profile: prices any FA-LRU capacity.

    Attributes
    ----------
    distances : np.ndarray
        Sorted (ascending) distinct finite stack distances.
    counts : np.ndarray
        Access count per entry of ``distances``.
    cold : int
        First-touch accesses (distance ∞).  Also the number of distinct
        lines in the stream — every distinct line is cold exactly once.
    """

    distances: np.ndarray
    counts: np.ndarray
    cold: int

    def __post_init__(self):
        if self.distances.size != self.counts.size:
            raise ValueError("distances/counts length mismatch")
        if self.distances.size and np.any(np.diff(self.distances) <= 0):
            raise ValueError("distances must be sorted strictly ascending")

    @property
    def total(self) -> int:
        """Total accesses in the stream."""
        return int(self.counts.sum()) + self.cold

    @property
    def distinct_lines(self) -> int:
        """Distinct lines touched (== cold accesses)."""
        return self.cold

    def misses(self, capacity_lines: int) -> int:
        """Exact miss count of a fully-associative LRU cache of ``C`` lines."""
        return int(self.miss_counts([capacity_lines])[0])

    def miss_counts(self, capacities: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`misses` over many capacities at once.

        An access misses iff its distance ``>= C`` (cold always misses):
        one cumulative sum plus a sorted lookup per capacity.
        """
        caps = np.asarray(capacities, dtype=np.int64)
        if caps.size and np.any(caps <= 0):
            raise ValueError("capacities must be positive line counts")
        if self.counts.size == 0:  # only cold accesses (or none at all)
            return np.full(caps.shape, self.cold, dtype=np.int64)
        cum = np.cumsum(self.counts)
        finite = int(cum[-1])
        idx = np.searchsorted(self.distances, caps, side="left")
        below = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0)
        return finite - below + self.cold

    def hits(self, capacity_lines: int) -> int:
        """Exact hit count at ``capacity_lines``."""
        return self.total - self.misses(capacity_lines)

    def evictions(self, capacity_lines: int) -> int:
        """Demand evictions at ``capacity_lines``.

        Every miss inserts; the first ``min(distinct, C)`` fills land in
        empty ways (while occupancy is below ``C`` nothing has ever been
        evicted, so every resident line stays resident and all misses
        are cold).
        """
        return self.misses(capacity_lines) - min(self.cold, capacity_lines)

    def miss_ratios(self, capacities: Sequence[int]) -> np.ndarray:
        """Miss ratio per capacity (0.0 for an empty stream)."""
        misses = self.miss_counts(capacities)
        total = self.total
        if total == 0:
            return np.zeros(misses.shape, dtype=np.float64)
        return misses / float(total)

    def as_dict(self) -> Dict[int, int]:
        """``{distance: count}`` with cold keyed by :data:`COLD` — the
        exact shape :func:`repro.analysis.reuse.reuse_distance_histogram`
        returns."""
        out = {int(d): int(c)
               for d, c in zip(self.distances.tolist(), self.counts.tolist())}
        if self.cold:
            out[COLD] = self.cold
        return out

    @classmethod
    def from_distances(cls, dist: np.ndarray) -> "StackDistanceHistogram":
        """Histogram a per-access distance array (:func:`stack_distances`)."""
        dist = np.asarray(dist, dtype=np.int64)
        cold = int((dist == COLD).sum())
        finite = dist[dist != COLD]
        distances, counts = np.unique(finite, return_counts=True)
        return cls(distances=distances, counts=counts.astype(np.int64),
                   cold=cold)

    @classmethod
    def empty(cls) -> "StackDistanceHistogram":
        """Histogram of an empty stream."""
        return cls(distances=np.empty(0, dtype=np.int64),
                   counts=np.empty(0, dtype=np.int64), cold=0)


def stack_distance_histogram(lines) -> StackDistanceHistogram:
    """One vectorized pass over ``lines`` → the full capacity profile."""
    return StackDistanceHistogram.from_distances(stack_distances(lines))


def per_thread_histograms(lines, thread_ids) -> Dict[int, StackDistanceHistogram]:
    """Distances over the *shared* stream, histogrammed per issuer.

    ``lines`` is one cache instance's interleaved access stream and
    ``thread_ids`` names the issuer of each access (the engine passes
    work positions).  Distances are computed once over the shared
    stream (interleaving is what makes a shared cache shared), then
    split by issuer — so pricing a capacity yields exact per-issuer
    hit/miss counts, which the cost model needs for per-thread cycle
    accounting.
    """
    arr = _as_line_array(lines)
    tids = np.asarray(thread_ids, dtype=np.int64).ravel()
    if tids.size != arr.size:
        raise ValueError(
            f"thread_ids length {tids.size} != stream length {arr.size}")
    dist = stack_distances(arr)
    out: Dict[int, StackDistanceHistogram] = {}
    for tid in np.unique(tids).tolist():
        out[int(tid)] = StackDistanceHistogram.from_distances(
            dist[tids == tid])
    return out


# -- engine eligibility ---------------------------------------------------------


def stack_ineligibility(spec: PlatformSpec) -> Optional[str]:
    """Why ``spec`` cannot be priced from stack distances (None = it can).

    The stack backend is exact only for a machine whose every cache
    instance is a single-level fully-associative LRU fed the raw
    stream: multi-level hierarchies filter the stream (see the module
    docstring's counterexample), other policies don't obey stack
    inclusion, set-associativity splits the stream by set, prefetchers
    mutate residency outside the demand stream, and a TLB is an extra
    (set-associative) cache on the side.
    """
    if len(spec.levels) != 1:
        return ("multi-level hierarchy: outer levels see the inner "
                "levels' filtered miss stream, which stack distances "
                "of the raw stream cannot price")
    level = spec.levels[0]
    if level.cache.replacement != "lru":
        return (f"replacement {level.cache.replacement!r} does not obey "
                f"LRU stack inclusion")
    if level.cache.n_sets != 1:
        return (f"{level.cache.n_sets}-set cache is set-associative; "
                f"stack pricing needs a fully-associative geometry")
    if level.prefetch is not None:
        return "prefetcher installs lines outside the demand stream"
    if spec.tlb is not None:
        return "platform models a TLB, which stack pricing does not cover"
    return None


def fully_associative_spec(capacity_lines: int,
                           line_bytes: int = 64,
                           name: Optional[str] = None,
                           level_name: str = "L1",
                           n_cores: int = 1,
                           n_sockets: int = 1,
                           smt: int = 1,
                           scope: str = "core",
                           freq_ghz: float = 1.0,
                           latency_cycles: float = 4.0,
                           mem_latency_cycles: float = 100.0,
                           mem_parallelism: float = 4.0) -> PlatformSpec:
    """A single-level fully-associative LRU platform — the stack backend's
    native geometry, and the natural axis for capacity sweeps.

    Two specs from this helper that differ only in ``capacity_lines``
    are recognized by :func:`repro.experiments.sweep.sweep_cells` as a
    capacity-only sweep and priced from one histogram.
    """
    if capacity_lines <= 0:
        raise ValueError(f"capacity_lines must be positive, got {capacity_lines}")
    cache = CacheConfig(
        name=level_name,
        capacity_bytes=capacity_lines * line_bytes,
        line_bytes=line_bytes,
        ways=capacity_lines,
        replacement="lru",
    )
    return PlatformSpec(
        name=name or f"fa-lru-{capacity_lines}",
        n_cores=n_cores,
        n_sockets=n_sockets,
        smt=smt,
        freq_ghz=freq_ghz,
        levels=(LevelSpec(cache=cache, scope=scope,
                          latency_cycles=latency_cycles),),
        mem_latency_cycles=mem_latency_cycles,
        mem_parallelism=mem_parallelism,
        counters={
            f"{level_name}_TCA": (level_name, "accesses"),
            f"{level_name}_TCM": (level_name, "misses"),
        },
    )


# -- histogram memo ---------------------------------------------------------------


def stream_key(lines: np.ndarray, thread_ids: np.ndarray) -> str:
    """Content key of one instance stream (layout/kernel/order implied).

    Hashes the interleaved line ids plus their per-access issuer id,
    little-endian int64 — everything the per-issuer histograms depend on
    and nothing they don't (capacity, in particular, is *not* part of
    the key: that is the whole point).
    """
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(lines, dtype="<i8").tobytes())
    h.update(b"|")
    h.update(np.ascontiguousarray(thread_ids, dtype="<i8").tobytes())
    return h.hexdigest()


class HistogramStore:
    """In-process memo of per-issuer histograms keyed by stream content.

    Share one store across engines so a capacity sweep prices every
    geometry from one stack-distance pass per stream.  Histograms are
    keyed by stream content (:func:`stream_key`); on top of that, a
    schedule memo (:meth:`get_or_compute_schedule`) maps the works an
    engine prices to their instances' histograms, so pricing the same
    prepared works again neither rebuilds nor re-hashes their streams.
    """

    def __init__(self):
        self._memory: Dict[str, Dict[int, StackDistanceHistogram]] = {}
        self._schedules: Dict[tuple, tuple] = {}
        self.hits = 0
        self.misses = 0

    def get_or_compute(
        self, key: str,
        compute: Callable[[], Dict[int, StackDistanceHistogram]],
    ) -> Dict[int, StackDistanceHistogram]:
        """Fetch the bundle for ``key``, computing it on a miss."""
        cached = self._memory.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        hists = compute()
        self._memory[key] = hists
        return hists

    def get_or_compute_schedule(
        self, streams: Sequence[np.ndarray], schedule: tuple,
        compute: Callable[[], Dict[int, Dict[int, StackDistanceHistogram]]],
    ) -> Dict[int, Dict[int, StackDistanceHistogram]]:
        """Per-instance bundles of ``streams`` replayed as ``schedule``.

        ``schedule`` names everything besides the streams that the
        instance streams depend on (the engine passes its quantum and
        each work's instance).  Streams are matched by identity: an
        entry holds its arrays, so no other array can take their ids
        while it lives, and different arrays are different works.
        Trace arrays must not be changed in place once priced.  A hit
        counts one histogram hit per instance; ``compute`` looks its
        bundles up through :meth:`get_or_compute`.
        """
        key = (schedule, tuple(map(id, streams)))
        entry = self._schedules.get(key)
        if entry is not None:
            held, bundles = entry
            if all(a is b for a, b in zip(held, streams)):
                self.hits += len(bundles)
                return bundles
        bundles = compute()
        self._schedules[key] = (tuple(streams), bundles)
        return bundles
