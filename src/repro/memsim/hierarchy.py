"""Multi-level, multi-core cache hierarchies.

Assembles :class:`~repro.memsim.cache.Cache` instances into a machine
model: private levels are instantiated per core, shared levels per
socket or per machine.  An access enters at the L1 of the issuing core
and percolates outward; the machine reports, per call, how many requests
each level served — the raw material for both the PAPI-style counters
and the runtime cost model.

Scope semantics
---------------
``core``
    One instance per core.  Hardware threads mapped to the same core
    share it (this is how the MIC's 4-way SMT shares its 512 KB L2).
``socket``
    One instance per socket (Ivy Bridge's 30 MB L3 is per-processor;
    the paper's "compact" pinning keeps ≤12 threads on one socket).
``machine``
    One instance globally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cache import Cache, CacheConfig, CacheStats, access_instances
from .prefetch import PrefetchConfig, StreamPrefetcher

__all__ = ["LevelSpec", "PlatformSpec", "ServiceCounts", "Machine"]

_SCOPES = ("core", "socket", "machine")


@dataclass(frozen=True)
class LevelSpec:
    """One cache level of a platform: geometry + scope + latency.

    ``prefetch`` optionally attaches a per-core stream prefetcher that
    watches this level's request stream (see :mod:`repro.memsim.prefetch`).
    """

    cache: CacheConfig
    scope: str = "core"
    latency_cycles: float = 4.0
    prefetch: Optional[PrefetchConfig] = None

    def __post_init__(self):
        if self.scope not in _SCOPES:
            raise ValueError(f"scope must be one of {_SCOPES}, got {self.scope!r}")


@dataclass(frozen=True)
class PlatformSpec:
    """A machine model: cores, SMT width, clock, cache levels, memory.

    Attributes
    ----------
    name : str
        Human-readable platform label.
    n_cores : int
        Physical cores (total across sockets).
    n_sockets : int
        Sockets; cores are split evenly among them.
    smt : int
        Hardware threads per core.
    freq_ghz : float
        Core clock, used to convert cycles to seconds.
    levels : tuple of LevelSpec
        Inner to outer (L1 first).
    mem_latency_cycles : float
        Cost of a request served by DRAM.
    mem_parallelism : float
        Effective overlap of outstanding memory requests; the cost model
        divides the DRAM latency by this (≥ 1).
    counters : dict
        PAPI-style counter name → ``(level_name, "accesses"|"misses")``.
    """

    name: str
    n_cores: int
    n_sockets: int
    smt: int
    freq_ghz: float
    levels: Tuple[LevelSpec, ...]
    mem_latency_cycles: float
    mem_parallelism: float = 4.0
    counters: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: optional per-core data TLB: a CacheConfig whose line_bytes is the
    #: page size and whose geometry gives the entry count/associativity.
    #: Counter wiring may reference it by its name (e.g. ("TLB", "misses")).
    tlb: Optional[CacheConfig] = None
    #: page-walk penalty charged per TLB miss by the cost model.
    tlb_miss_cycles: float = 30.0
    #: enforce LLC inclusion: a line evicted from the outermost level is
    #: back-invalidated from the inner caches it covers (real Ivy Bridge
    #: L3s are inclusive; the default non-inclusive model is simpler and
    #: the difference is measured by tests)
    inclusive: bool = False

    def __post_init__(self):
        if self.n_cores % self.n_sockets:
            raise ValueError(
                f"{self.n_cores} cores do not split over {self.n_sockets} sockets"
            )
        if not self.levels:
            raise ValueError("platform needs at least one cache level")
        line_sizes = {lv.cache.line_bytes for lv in self.levels}
        if len(line_sizes) != 1:
            raise ValueError(f"mixed line sizes unsupported: {line_sizes}")

    @property
    def cores_per_socket(self) -> int:
        """Physical cores per socket."""
        return self.n_cores // self.n_sockets

    @property
    def line_bytes(self) -> int:
        """Cache-line size (uniform across levels)."""
        return self.levels[0].cache.line_bytes

    @property
    def max_threads(self) -> int:
        """Hardware thread capacity ``n_cores * smt``."""
        return self.n_cores * self.smt

    @property
    def replays_per_batch(self) -> bool:
        """True when replay must walk one quantum batch at a time.

        An inclusive LLC back-invalidates inner caches in the middle of
        a round, and a prefetcher observes the 16-line sub-batches of
        each batch; in both cases a later batch's inner-level accesses
        depend on an earlier batch's outer-level ones.
        """
        return self.inclusive or any(lv.prefetch is not None
                                     for lv in self.levels)

    def level_names(self) -> List[str]:
        """Level labels, inner to outer."""
        return [lv.cache.name for lv in self.levels]

    def scaled(self, factor: int, suffix: str = "-scaled") -> "PlatformSpec":
        """Capacities divided by ``factor`` (see :meth:`CacheConfig.scaled`).

        Latencies, counts, clocks, and counter wiring are unchanged — the
        scaled platform is the same machine with proportionally smaller
        caches, for experiments on proportionally smaller volumes.
        """
        levels = tuple(
            replace(lv, cache=lv.cache.scaled(factor)) for lv in self.levels
        )
        return replace(self, name=self.name + suffix, levels=levels)


@dataclass
class ServiceCounts:
    """How many requests each memory level served, for one batch or for
    one thread's whole run."""

    per_level: Dict[str, int] = field(default_factory=dict)
    mem: int = 0
    tlb_misses: int = 0

    @property
    def total(self) -> int:
        """Total requests in the batch (TLB events are not requests)."""
        return sum(self.per_level.values()) + self.mem

    def merge(self, other: "ServiceCounts") -> "ServiceCounts":
        """Elementwise sum."""
        out = ServiceCounts(mem=self.mem + other.mem,
                            tlb_misses=self.tlb_misses + other.tlb_misses)
        for k in set(self.per_level) | set(other.per_level):
            out.per_level[k] = self.per_level.get(k, 0) + other.per_level.get(k, 0)
        return out


def _groups(keys: Sequence[int]) -> Dict[int, List[int]]:
    """Batch indices per distinct key, each list in batch order."""
    groups: Dict[int, List[int]] = {}
    for b, key in enumerate(keys):
        groups.setdefault(key, []).append(b)
    return groups


def _gather(streams: Sequence[np.ndarray], src: List[int], start: List[int],
            end: List[int], batches: List[int]):
    """Concatenate ``streams[src[b]][start[b]:end[b]]`` over ``batches``.

    Returns the lines and the batch offsets into them.  Slices that
    continue one another in the same stream are joined first, so one
    thread's consecutive batches cost a view, not a copy.
    """
    off = [0]
    pieces: List[List[int]] = []
    for b in batches:
        s, a, e = src[b], start[b], end[b]
        off.append(off[-1] + e - a)
        if pieces and pieces[-1][0] == s and pieces[-1][2] == a:
            pieces[-1][2] = e
        else:
            pieces.append([s, a, e])
    if len(pieces) == 1:
        s, a, e = pieces[0]
        return streams[s][a:e], off
    return np.concatenate([streams[s][a:e] for s, a, e in pieces]), off


def _spans(groups: Dict[int, List[int]]) -> List[int]:
    """Where each group's batches start, and the end, in group order."""
    spans = [0]
    for batches in groups.values():
        spans.append(spans[-1] + len(batches))
    return spans


def _tick(timing: Optional[Dict[str, List[float]]], name: str, t0: float,
          lines: int) -> None:
    """Add one level pass's host seconds and input lines to ``timing``."""
    if timing is not None:
        entry = timing.setdefault(name, [0.0, 0])
        entry[0] += time.perf_counter() - t0
        entry[1] += lines


class Machine:
    """Instantiated cache hierarchy for a :class:`PlatformSpec`.

    Use :meth:`access` to push a batch of line ids through one core's
    cache path.  Thread→core placement is the caller's job (see
    :mod:`repro.parallel.affinity`).
    """

    def __init__(self, spec: PlatformSpec, seed: int = 0,
                 backend: str = "auto"):
        self.spec = spec
        self.backend = backend
        # caches[level_index] maps instance key -> Cache
        self._caches: List[Dict[int, Cache]] = []
        # prefetchers[level_index][core] — stream detection is per
        # requesting core even when the cache instance is shared
        self._prefetchers: List[Optional[Dict[int, StreamPrefetcher]]] = []
        for li, level in enumerate(spec.levels):
            instances: Dict[int, Cache] = {}
            n = {
                "core": spec.n_cores,
                "socket": spec.n_sockets,
                "machine": 1,
            }[level.scope]
            for inst in range(n):
                cache = Cache(level.cache, seed=seed + 31 * li + inst,
                              backend=backend)
                if spec.inclusive and li == len(spec.levels) - 1 and li > 0:
                    cache.track_evictions = True
                instances[inst] = cache
            self._caches.append(instances)
            if level.prefetch is not None:
                self._prefetchers.append({
                    core: StreamPrefetcher(level.prefetch)
                    for core in range(spec.n_cores)
                })
            else:
                self._prefetchers.append(None)
        # per-core data TLBs over page numbers
        self._tlbs: Optional[Dict[int, Cache]] = None
        if spec.tlb is not None:
            if spec.tlb.line_bytes < spec.line_bytes:
                raise ValueError(
                    f"TLB page size {spec.tlb.line_bytes} smaller than the "
                    f"cache line size {spec.line_bytes}"
                )
            self._tlbs = {
                core: Cache(spec.tlb, seed=seed + 977 + core, backend=backend)
                for core in range(spec.n_cores)
            }
            self._lines_per_page = spec.tlb.line_bytes // spec.line_bytes

    # -- routing -------------------------------------------------------------

    def instance_key(self, level_index: int, core: int) -> int:
        """Which instance of the level serves ``core`` (scope routing)."""
        level = self.spec.levels[level_index]
        if level.scope == "core":
            return core
        if level.scope == "socket":
            return core // self.spec.cores_per_socket
        return 0

    def level_instances(self, level_index: int) -> Dict[int, Cache]:
        """The instance map of one level (instance key → cache)."""
        return self._caches[level_index]

    def _instance_for(self, level_index: int, core: int) -> Cache:
        return self._caches[level_index][self.instance_key(level_index, core)]

    def access(self, core: int, lines: np.ndarray,
               pre_collapsed_hits: int = 0) -> ServiceCounts:
        """Push ``lines`` (in order) through ``core``'s cache path.

        ``pre_collapsed_hits`` accounts for accesses removed upstream by
        consecutive-same-line compression; they are exact L1 hits and are
        credited to the innermost level without simulation.

        Returns the per-level service counts for this batch.
        """
        if not 0 <= core < self.spec.n_cores:
            raise ValueError(f"core {core} out of range 0..{self.spec.n_cores - 1}")
        lines = np.asarray(lines, dtype=np.int64)
        totals = [[0] for _ in range(len(self.spec.levels) + 2)]
        self.credit_hits(core, pre_collapsed_hits)
        totals[0][0] = pre_collapsed_hits
        self.replay([lines], [core], [0], [0], [lines.size], totals)
        return ServiceCounts(
            per_level={name: row[0] for name, row
                       in zip(self.spec.level_names(), totals)},
            mem=totals[-2][0],
            tlb_misses=totals[-1][0],
        )

    def credit_hits(self, core: int, hits: int) -> None:
        """Count ``hits`` collapsed repeats as hits of ``core``'s L1."""
        if hits:
            stats = self._instance_for(0, core).stats
            stats.accesses += hits
            stats.hits += hits

    def replay(self, streams: Sequence[np.ndarray], core: List[int],
               thread: List[int], start: List[int], end: List[int],
               totals: List[List[int]],
               timing: Optional[Dict[str, List[float]]] = None) -> None:
        """Walk a block of batches through the hierarchy, level by level.

        Batch ``b`` is ``streams[thread[b]][start[b]:end[b]]``, issued by
        ``core[b]``; batches come in schedule order.  Each cache instance
        (and each per-core TLB) is fed once, with every line still
        pending at its level from the batches it serves, concatenated in
        batch order.  This is exact: an instance's state depends only
        on the order of the lines it receives, and it receives them in
        the order a batch-at-a-time walk would feed them.  It is not
        exact when ``spec.replays_per_batch``; then a block must be one
        batch.  A level's instances get their lines in one stream, one
        span each (:func:`~repro.memsim.cache.access_instances`), so a
        level on the reuse-window kernel replays in one call.

        Service counts are added into ``totals``, one row per level,
        then memory, then TLB misses, one column per thread.  When
        ``timing`` is given, each level's (and the TLB's) host seconds
        and input lines are added into ``timing[name]``.
        """
        spec = self.spec
        if len(core) > 1 and spec.replays_per_batch:
            raise ValueError(
                f"platform {spec.name} replays one batch at a time")
        if self._tlbs is not None:
            t0 = time.perf_counter()
            groups = _groups(core)
            order = [b for batches in groups.values() for b in batches]
            stream, off = _gather(streams, thread, start, end, order)
            if stream.size:
                row = totals[-1]
                tlbs = [self._tlbs[key] for key in groups]
                for b, n in zip(order, self._tlb_misses(
                        tlbs, stream, off, _spans(groups))):
                    row[thread[b]] += n
            _tick(timing, spec.tlb.name, t0, stream.size)
        src = thread
        n = len(core)
        for li, level in enumerate(spec.levels):
            if start == end:
                break  # every line was served by an inner level
            t0 = time.perf_counter()
            groups = _groups([self.instance_key(li, c) for c in core])
            order = [b for batches in groups.values() for b in batches]
            stream, off = _gather(streams, src, start, end, order)
            mp = self._level_access(li, groups, core, stream,
                                    [off[k] for k in _spans(groups)])
            cuts = mp.searchsorted(off).tolist()
            row = totals[li]
            next_start, next_end = [0] * n, [0] * n
            for j, b in enumerate(order):
                row[thread[b]] += off[j + 1] - off[j] - (cuts[j + 1] - cuts[j])
                next_start[b] = cuts[j]
                next_end[b] = cuts[j + 1]
            # this level's input is consumed: only its misses go on
            streams, src, start, end = ([stream[mp]], [0] * n, next_start,
                                        next_end)
            _tick(timing, level.cache.name, t0, stream.size)
        row = totals[-2]
        for t, a, e in zip(thread, start, end):
            row[t] += e - a

    def _tlb_misses(self, tlbs: List[Cache], lines: np.ndarray,
                    off: List[int], spans: List[int]) -> List[int]:
        """Look ``lines`` up in the TLBs; misses per batch.

        ``off`` delimits the batches, and ``tlbs[i]`` serves batches
        ``spans[i]`` to ``spans[i + 1]``.  Consecutive lines on one page
        are looked up once, except that the first page of every batch
        is always looked up.  The collapsed repeats are guaranteed hits.
        """
        pages = lines // self._lines_per_page
        keep = np.empty(pages.size, dtype=bool)
        keep[0] = True
        np.not_equal(pages[1:], pages[:-1], out=keep[1:])
        firsts = [a for a, e in zip(off, off[1:]) if e > a]
        keep[firsts] = True
        kept = iter(np.add.reduceat(keep, firsts, dtype=np.int64).tolist())
        kept_off = [0]
        for a, e in zip(off, off[1:]):
            kept_off.append(kept_off[-1] + (next(kept) if e > a else 0))
        kept_bounds = [kept_off[k] for k in spans]
        pages = pages[keep]
        del keep
        cuts = access_instances(tlbs, pages,
                                kept_bounds).searchsorted(kept_off)
        for tlb, a, e in zip(tlbs, spans, spans[1:]):
            repeats = (off[e] - off[a]) - (kept_off[e] - kept_off[a])
            tlb.stats.accesses += repeats
            tlb.stats.hits += repeats
        return (cuts[1:] - cuts[:-1]).tolist()

    def _level_access(self, level_index: int, groups: Dict[int, List[int]],
                      core: List[int], lines: np.ndarray,
                      bounds: List[int]) -> np.ndarray:
        """Feed each instance of a level its span of ``lines``.

        ``groups`` maps instance keys to their batches, in the order of
        their spans.  Returns the positions of the misses, ascending.
        """
        caches = [self._caches[level_index][key] for key in groups]
        prefetchers = self._prefetchers[level_index]
        if prefetchers is None and not caches[0].track_evictions:
            return access_instances(caches, lines, bounds)
        # prefetching and inclusive levels replay one batch per block
        (batches,) = groups.values()
        cache = caches[0]
        if prefetchers is None:
            missed = cache.access_positions(lines)
        else:
            # timely-prefetch approximation: observe/install and
            # demand-access in small sub-batches so the prefetcher
            # never runs unboundedly ahead of the demand stream
            # (which would evict its own fills)
            pf = prefetchers[core[batches[0]]]
            parts = []
            evicted_all: list = []
            for start in range(0, lines.size, 16):
                part = lines[start:start + 16]
                pf.observe_and_fill(part, cache)
                parts.append(cache.access_positions(part) + start)
                if cache.track_evictions:
                    evicted_all.extend(cache.last_evicted)
            missed = np.concatenate(parts)
            if cache.track_evictions:
                cache.last_evicted = evicted_all
        if cache.track_evictions and cache.last_evicted:
            self._back_invalidate(level_index, core[batches[0]],
                                  cache.last_evicted)
        return missed

    def _back_invalidate(self, llc_index: int, core: int,
                         evicted: list) -> None:
        """Inclusion enforcement: drop LLC-evicted lines from the inner
        caches of every core sharing that LLC instance."""
        level = self.spec.levels[llc_index]
        if level.scope == "machine":
            cores = range(self.spec.n_cores)
        elif level.scope == "socket":
            cps = self.spec.cores_per_socket
            socket = core // cps
            cores = range(socket * cps, (socket + 1) * cps)
        else:
            cores = (core,)
        lines = np.asarray(evicted, dtype=np.int64)
        for inner in range(llc_index):
            for c in cores:
                self._instance_for(inner, c).invalidate(lines)

    # -- counters ------------------------------------------------------------

    def level_stats(self, level_name: str) -> CacheStats:
        """Aggregate stats of all instances of the named level (TLB included)."""
        for li, level in enumerate(self.spec.levels):
            if level.cache.name == level_name:
                agg = CacheStats()
                for cache in self._caches[li].values():
                    agg = agg.merge(cache.stats)
                return agg
        if self._tlbs is not None and self.spec.tlb.name == level_name:
            agg = CacheStats()
            for tlb in self._tlbs.values():
                agg = agg.merge(tlb.stats)
            return agg
        raise KeyError(f"no level named {level_name!r}")

    def counter(self, name: str) -> int:
        """Read a PAPI-style counter defined by the platform spec."""
        try:
            level_name, kind = self.spec.counters[name]
        except KeyError:
            raise KeyError(
                f"counter {name!r} not defined for platform {self.spec.name!r}; "
                f"available: {sorted(self.spec.counters)}"
            ) from None
        stats = self.level_stats(level_name)
        return getattr(stats, kind)

    def all_counters(self) -> Dict[str, int]:
        """All platform counters as a dict."""
        return {name: self.counter(name) for name in self.spec.counters}

    def prefetch_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-level prefetcher totals: {level: {issued, installed}}."""
        out: Dict[str, Dict[str, int]] = {}
        for li, prefetchers in enumerate(self._prefetchers):
            if prefetchers is None:
                continue
            name = self.spec.levels[li].cache.name
            out[name] = {
                "issued": sum(p.issued for p in prefetchers.values()),
                "installed": sum(p.installed for p in prefetchers.values()),
            }
        return out

    def reset(self) -> None:
        """Empty all caches and zero all counters."""
        for instances in self._caches:
            for cache in instances.values():
                cache.reset()
        for prefetchers in self._prefetchers:
            if prefetchers is not None:
                for p in prefetchers.values():
                    p.reset()
        if self._tlbs is not None:
            for tlb in self._tlbs.values():
                tlb.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Machine({self.spec.name}, cores={self.spec.n_cores})"
