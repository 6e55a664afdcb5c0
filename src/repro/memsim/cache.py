"""Set-associative cache simulation.

The substitute for the paper's hardware: instead of reading PAPI
counters off Ivy Bridge / MIC silicon, we drive software caches with the
exact line-address streams the kernels generate and count hits/misses
directly.  Caches are set-associative with configurable line size,
associativity, and replacement policy (LRU, FIFO, tree-PLRU, random, and
a fully-vectorized direct-mapped fast path).

Only reads are simulated (the studied kernels are read-dominated:
stencil gathers and ray sampling; their writes are streaming stores of
output pencils/pixels which the paper's counters — L3 total cache
accesses, L2 data *read* miss — do not emphasize).  Write traffic can be
fed through the same ``access_lines`` if desired.

Replay backends
---------------
Interchangeable, bit-for-bit-equivalent replay implementations:

``scalar``
    The original per-access Python loop over per-set lists.  Simple,
    obviously correct, and the reference oracle for the equivalence
    suite.  Fastest when the cache has very few sets (the heavily
    ``scaled()`` experiment geometries), where batch partitioning has
    nothing to fan out over.
``vector``
    Batched numpy replay in two phases.  A *collapse* prefilter first
    removes every access whose previous same-set access was the same
    line — a guaranteed hit that provably changes no policy's state
    (LRU re-touches the MRU way, FIFO/random ignore hits, the PLRU
    steering update is idempotent) — which on stencil streams strips
    95%+ of the batch with a handful of array ops.  The small residual
    is then replayed in *rounds*: round ``r`` applies the ``r``-th
    surviving access of every touched set in one fused gather/scatter
    (each round touches a set at most once, so the transition is
    conflict-free).  State lives in a dense ``(n_sets, ways)`` tag
    matrix (recency-ordered for LRU/FIFO, way-indexed for PLRU).
``auto``
    Routes by measurement.  LRU caches of at most ``_WINDOW_MAX_WAYS``
    ways (every preset's L1, L2 and TLB) replay with the reuse-window
    kernel below; any other cache picks ``vector`` when the geometry
    is wide enough for the fan-out to pay (``n_sets >= 64``), else
    ``scalar``.  ``Cache.backend`` names that state layout either way;
    the kernel reads and writes it in place.  An eviction-tracking
    cache (an inclusive LLC) keeps the layout's replay.

Reuse-window LRU kernel
-----------------------
Exact LRU without replaying state.  Mattson's stack property holds per
set: an access hits iff fewer than ``ways`` distinct lines of its set
were touched since its previous occurrence.  A call stable-sorts its
lines by set and prefixes each touched set's group with the set's
resident lines, LRU first; replaying that prefix into an empty set
rebuilds the set, so distances over the prefixed groups are exactly the
warm cache's.  Cold accesses miss, windows shorter than ``ways`` hit,
and so do the rest when their window holds fewer than ``ways`` lines
new to it (``prev[k] < prev[i]``): a sliding maximum settles the
common miss, a forward scan in column blocks most others, and exact
stack distances of their sets whatever is left after a fixed number of
blocks.  The new state of a set is its last ``ways`` distinct lines;
its evictions are its misses beyond its empty ways.
:func:`access_instances` runs the kernel once for several instances of
one geometry, each instance's set part of a composite set key, which is
how the hierarchy replays a whole level per block: one call sees about
32 K lines where one instance would see about 1.3 K.

Random replacement draws victims from a counter-based keyed hash
(splitmix64 over ``(seed, set, eviction ordinal)``), not from a
stateful RNG stream: victim choices therefore depend only on the
per-set eviction history — never on how the trace was chunked into
``access_lines`` calls (the engine's interleaving quantum) or on any
global RNG state — which keeps multi-process experiment replays
reproducible run-to-run and lets both backends agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.bits import ilog2, is_power_of_two

__all__ = ["CacheConfig", "CacheStats", "Cache", "REPLACEMENT_POLICIES",
           "REPLAY_BACKENDS", "access_instances"]

REPLACEMENT_POLICIES = ("lru", "fifo", "plru", "random", "direct")
REPLAY_BACKENDS = ("scalar", "vector", "auto")

#: ``backend="auto"`` switches to the vectorized replay at this set
#: count: below it, per-round batches are too small for numpy-call
#: overhead to amortize and the plain Python loop wins.
_AUTO_MIN_SETS = 64

#: ``backend="auto"`` replays LRU caches of at most this many ways with
#: the reuse-window kernel (:func:`_window_replay`).  On the per-core
#: L1 block streams of the scaled figure-2 r5 cell it ran 4-11x faster
#: than the scalar or vector replay at 4 to 16 ways and 4 to 256 sets.
#: Wider caches (the presets' 30-way L3) keep their backend's replay.
_WINDOW_MAX_WAYS = 16

#: Column blocks the kernel scans windows in before it prices the
#: accesses still undecided from exact stack distances; a block is
#: ``ways`` columns wide at first and doubles while it holds at most
#: ``_WINDOW_CELLS`` cells.
_WINDOW_STEPS = 8
_WINDOW_CELLS = 1 << 18

#: After the collapse prefilter, replay the residual with a plain
#: per-access loop when the average round would be narrower than this.
#: A round costs ~15us of fixed numpy-call overhead regardless of
#: width, a looped access ~0.3us, so skewed residuals (few sets, deep
#: per-set sequences) replay much faster element-wise.
_RESIDUAL_LOOP_WIDTH = 128

# -- counter-based victim hash (random replacement) ---------------------------

_U64 = (1 << 64) - 1
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB
_SEED_MUL = 0x632BE59BD9B4E019
_SET_MUL = 0xD1B54A32D192ED03


def _victim_way(seed: int, set_idx: int, ordinal: int, ways: int) -> int:
    """Victim way for the ``ordinal``-th eviction in ``set_idx`` (scalar)."""
    x = (seed * _SEED_MUL + set_idx * _SET_MUL + ordinal) & _U64
    x = (x + _SM_GAMMA) & _U64
    x = ((x ^ (x >> 30)) * _SM_MUL1) & _U64
    x = ((x ^ (x >> 27)) * _SM_MUL2) & _U64
    x = x ^ (x >> 31)
    return x % ways


def _victim_way_arr(seed: int, set_idx: np.ndarray, ordinal: np.ndarray,
                    ways: int) -> np.ndarray:
    """Vectorized :func:`_victim_way` (identical values, uint64 wraparound)."""
    x = (set_idx.astype(np.uint64) * np.uint64(_SET_MUL)
         + ordinal.astype(np.uint64)
         + np.uint64((seed * _SEED_MUL) & _U64))
    x = x + np.uint64(_SM_GAMMA)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_SM_MUL1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_SM_MUL2)
    x = x ^ (x >> np.uint64(31))
    return (x % np.uint64(ways)).astype(np.int64)


def _collapse_batch(lines: np.ndarray, set_mask: int, n_sets: int):
    """Two-stage guaranteed-hit collapse + per-set round schedule.

    An access whose previous same-set access (in the full stream) was
    the *same line* is a guaranteed hit that leaves every policy's
    state bit-identical: LRU re-touches the already-MRU way, FIFO and
    random do nothing on a hit, and the PLRU steering update is
    idempotent.  The property composes along chains, so such accesses
    can be dropped before replay without affecting anything downstream.

    Stage 1 catches short-range repeats with pure shifts:
    ``lines[i] == lines[i-k]`` (k = 2..4) with every intervening access
    in a different set.  Stage 2 stable-sorts the survivors by set
    index and drops each access equal to its in-set predecessor.
    Stencil streams collapse by ~95%+; the round replay then runs on
    the small residual only.

    Returns ``(r_lines, r_sets, rank, miss_positions)``: the residual
    in sorted-by-set order (stable, so each set's access order is
    preserved), each access's ``rank`` within its set, and
    ``miss_positions(hits_res)`` which maps residual hit flags to the
    original batch positions of the misses, ascending (collapsed
    accesses are hits by construction, so misses only live in the
    residual).
    """
    n = lines.size
    # narrow keys take numpy's radix-sort path (~8x faster argsort)
    keys = lines & set_mask
    if n_sets <= 65536:
        keys = keys.astype(np.uint16)
    # stage 1: lines[i] == lines[i-k], no intervening same-set access
    recent = np.zeros(n, dtype=bool)
    for k in (2, 3, 4):
        if n <= k:
            break
        cond = lines[k:] == lines[:-k]
        for j in range(1, k):
            cond &= keys[k - j:-j] != keys[k:]
        recent[k:] |= cond
    if recent.any():
        keep = np.flatnonzero(~recent)
        kk = keys[keep]
    else:
        keep = None
        kk = keys
    # drop intermediates as soon as they are used: block replay hands
    # this function long streams, so its peak memory sets the replay's
    del recent, keys
    m0 = kk.size  # >= 1: indices 0..1 are never collapsed
    # stage 2: group by set, drop in-set duplicate runs.  ko maps the
    # sorted survivors straight back to original batch positions.
    order = np.argsort(kk, kind="stable")
    ko = order if keep is None else keep[order]
    sl = lines[ko]
    ss = kk[order]
    del order, keep, kk
    res = np.empty(m0, dtype=bool)
    res[0] = True
    np.logical_and(ss[1:] == ss[:-1], sl[1:] == sl[:-1], out=res[1:])
    np.logical_not(res[1:], out=res[1:])
    r_lines = sl[res]
    r_sets = ss[res]  # uint16 whenever the sets fit in it
    r_pos = ko[res]
    del ko, sl, ss, res
    m = r_lines.size  # >= 1: the first sorted access always survives
    # rank = each residual access's position within its set, in the
    # narrowest dtype that holds m - 1
    rank_t = (np.uint16 if m <= 1 << 16
              else np.int32 if m < 1 << 31 else np.int64)
    new_grp = np.empty(m, dtype=bool)
    new_grp[0] = True
    np.not_equal(r_sets[1:], r_sets[:-1], out=new_grp[1:])
    grp_start = np.flatnonzero(new_grp).astype(rank_t)
    grp_id = np.cumsum(new_grp, dtype=np.int32 if m < 1 << 31 else np.int64)
    grp_id -= 1
    del new_grp
    rank = np.arange(m, dtype=rank_t)
    rank -= grp_start[grp_id]
    del grp_start, grp_id

    def miss_positions(hits_res: np.ndarray) -> np.ndarray:
        mp = r_pos[~hits_res]
        mp.sort()  # ascending position = original stream order
        return mp

    return r_lines, r_sets, rank, miss_positions


def _int_pairs(a: np.ndarray, b: np.ndarray, step: int = 4096):
    """``zip(a.tolist(), b.tolist())``, converted ``step`` elements at a
    time: a long residual never holds all its lines as Python ints."""
    return chain.from_iterable(
        zip(a[lo:lo + step].tolist(), b[lo:lo + step].tolist())
        for lo in range(0, a.size, step))


def _round_schedule(rank: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Conflict-free replay rounds from residual ranks.

    Returns ``(round_order, offsets)``: ``round_order[offsets[r]:
    offsets[r+1]]`` indexes each set's ``r``-th residual access, so a
    round touches every set at most once and its state transition is a
    single gather/scatter.
    """
    counts = np.bincount(rank)
    offsets = np.empty(counts.size + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(counts, out=offsets[1:])
    if rank.size <= 65536:  # radix-sortable narrow keys
        rank = rank.astype(np.uint16, copy=False)
    round_order = np.argsort(rank, kind="stable")
    return round_order, offsets


# -- exact LRU from per-set reuse windows --------------------------------------


def _argsort_stable(a: np.ndarray) -> np.ndarray:
    """``np.argsort(a, kind="stable")`` of an int64 array, by 16-bit
    radix passes over ``a - a.min()`` when its span fits 32 bits."""
    low = int(a.min())
    span = int(a.max()) - low
    if span >= 1 << 32:
        return np.argsort(a, kind="stable")
    # the low 16 bits of a - low, without an int64 temporary
    r = np.subtract(a, low, out=np.empty(a.size, dtype=np.uint16),
                    casting="unsafe")
    order = np.argsort(r, kind="stable")
    if span >= 1 << 16:
        r = (a[order] - low) >> 16
        order = order[np.argsort(r.astype(np.uint16), kind="stable")]
    return order


def _sliding_max(a: np.ndarray, width: int) -> np.ndarray:
    """``out[k] = a[k:k + width].max()`` for every full window."""
    out = a
    span = 1
    while 2 * span <= width:
        out = np.maximum(out[:-span], out[span:])
        span *= 2
    if span < width:
        out = np.maximum(out[:-(width - span)], out[width - span:])
    return out


def _window_hits(lines: np.ndarray, grp: np.ndarray, prev: np.ndarray,
                 pos: np.ndarray, ways: int) -> np.ndarray:
    """Which accesses of a set-grouped stream hit an LRU set of ``ways``.

    ``lines`` is grouped by set (``grp`` numbers the groups), each group
    in access order; ``prev[k]`` is the previous position of
    ``lines[k]`` in its group (``-1`` for a first occurrence), and
    ``pos`` holds the positions to decide.  An access hits iff fewer
    than ``ways`` distinct lines lie in its window ``(prev, pos)``
    (Mattson's stack property, per set).  A line is new to the window at
    ``k`` exactly when ``prev[k] < prev[pos]``.  Cold accesses miss and
    windows shorter than ``ways`` hit; the others are scanned forward in
    column blocks, counting new lines, until the count reaches ``ways``
    (a miss) or the window ends (a hit).  Accesses still undecided after
    ``_WINDOW_STEPS`` blocks are priced from exact stack distances of
    their sets.
    """
    p = prev[pos]
    gap = pos - p - 1
    hit = gap < ways
    hit &= p >= 0
    todo = gap >= ways
    del gap
    todo &= p >= 0
    if todo.any():
        # the common miss: the first `ways` lines of the window are all
        # new to it, i.e. their largest `prev` is below the window start
        top = _sliding_max(prev, ways)
        start = np.minimum(p + 1, top.size - 1)
        todo &= top[start] >= p
        del top, start
    todo = np.flatnonzero(todo)
    gap = pos[todo] - p[todo] - 1
    seen = np.zeros(todo.size, dtype=np.int32)
    last = prev.size - 1
    done = 0  # window columns scanned so far
    width = ways
    for _ in range(_WINDOW_STEPS):
        if not todo.size:
            return hit
        pt = p[todo]
        cols = pt[:, None] + np.arange(done + 1, done + width + 1,
                                       dtype=pt.dtype)
        first = prev[np.minimum(cols, last)] < pt[:, None]
        first &= cols < pos[todo, None]
        del cols
        seen += first.sum(axis=1, dtype=np.int32)
        del first
        done += width
        miss = seen >= ways
        covered = gap <= done
        hit[todo[covered & ~miss]] = True
        keep = ~(miss | covered)
        todo = todo[keep]
        gap = gap[keep]
        seen = seen[keep]
        # long windows are rare: widen the blocks as the rows thin out
        width = max(width, min(2 * width, _WINDOW_CELLS // max(todo.size, 1)))
    if todo.size:
        # a window never leaves its group, and inside a group a line id
        # names one line, so distances over the groups concerned are
        # the per-set distances
        from .stackdist import stack_distances  # stackdist imports cache
        at = pos[todo]
        need = np.zeros(int(grp[-1]) + 1, dtype=bool)
        need[grp[at]] = True
        sub = np.flatnonzero(need[grp])
        d = stack_distances(lines[sub])[np.searchsorted(sub, at)]
        hit[todo] = d < ways  # d >= 0 here: every window is warm
    return hit


def _window_replay(caches: Sequence["Cache"], lines: np.ndarray,
                   bounds: Sequence[int]) -> np.ndarray:
    """Exact LRU replay of several instances of one geometry in one pass.

    ``caches[i]`` receives ``lines[bounds[i]:bounds[i + 1]]``.  Each
    instance's set is part of a composite set key, so the instances'
    lines never alias.  The accesses are stable-sorted by that key and
    every touched set's group is prefixed with its resident lines, LRU
    first: replaying the prefix into an empty set rebuilds the set, so
    per-set stack distances over the prefixed groups are exactly the
    warm cache's (:func:`_window_hits`).  The new state of a set is the
    last ``ways`` distinct lines of its group, and its evictions are its
    misses beyond the ways that were empty.  Counters go into each
    instance's stats; returns the miss positions in ``lines``,
    ascending.
    """
    cfg = caches[0].config
    ways, n_sets = cfg.ways, cfg.n_sets
    n = lines.size
    # positions in the prefixed stream, which adds at most a full row
    # per touched set
    idx = np.int32 if n * (ways + 1) < 2**31 else np.int64
    key = lines & (n_sets - 1)
    if len(caches) > 1:
        key += np.repeat(np.arange(0, len(caches) * n_sets, n_sets),
                         np.diff(bounds))
    if len(caches) * n_sets <= 65536:
        key = key.astype(np.uint16)  # radix argsort
    order = np.argsort(key, kind="stable").astype(idx)
    ks = key[order]
    del key
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(ks[1:], ks[:-1], out=new[1:])
    starts = np.flatnonzero(new)  # first sorted access of each touched set
    touched = ks[starts].astype(np.int64)
    grp = np.cumsum(new, dtype=np.int32)
    grp -= 1  # touched-set index of each sorted access
    del ks, new
    cuts = np.searchsorted(touched, np.arange(len(caches) + 1) * n_sets)
    rows = np.concatenate([
        c._lru_rows(touched[a:b] - i * n_sets)
        for i, (c, a, b) in enumerate(zip(caches, cuts, cuts[1:]))])
    lru_first = rows[:, ::-1]
    valid = lru_first >= 0
    resident = valid.sum(axis=1)
    # merged stream: each group is its resident lines, then its accesses
    n_all = n + int(resident.sum())
    at = np.arange(n, dtype=idx)
    at += np.cumsum(resident, dtype=idx)[grp]
    pre_grp = np.repeat(np.arange(starts.size, dtype=np.int32), resident)
    pre_at = np.arange(n_all - n, dtype=idx)
    pre_at += starts[pre_grp].astype(idx)
    m_lines = np.empty(n_all, dtype=np.int64)
    m_lines[at] = lines[order]
    m_lines[pre_at] = lru_first[valid]
    m_grp = np.empty(n_all, dtype=np.int32)
    m_grp[at] = grp
    m_grp[pre_at] = pre_grp
    del rows, lru_first, valid, pre_grp, pre_at
    # previous occurrence of each line in its group
    by_line = _argsort_stable(m_lines)
    sl = m_lines[by_line]
    sg = m_grp[by_line]
    same = sl[1:] == sl[:-1]
    same &= sg[1:] == sg[:-1]
    del sl, sg
    earlier = by_line[:-1][same]
    prev = np.full(n_all, -1, dtype=idx)
    prev[by_line[1:][same]] = earlier
    del by_line, same
    # new state: the last `ways` distinct lines of each group, MRU first
    last = np.ones(n_all, dtype=bool)
    last[earlier] = False
    del earlier
    keep = np.flatnonzero(last)
    del last
    kg = m_grp[keep]
    age = np.cumsum(np.bincount(kg, minlength=starts.size))[kg]
    age -= np.arange(1, keep.size + 1)
    fits = age < ways
    state = np.full((starts.size, ways), -1, dtype=np.int64)
    state[kg[fits], age[fits]] = m_lines[keep[fits]]
    del keep, kg, age, fits
    hit = _window_hits(m_lines, m_grp, prev, at, ways)
    del m_lines, m_grp, prev, at
    misses = np.bincount(grp[~hit], minlength=starts.size)
    evictions = np.maximum(misses - (ways - resident), 0)
    hits = np.empty(n, dtype=bool)
    hits[order] = hit
    missed = np.flatnonzero(~hits)
    mcuts = missed.searchsorted(bounds).tolist()
    for i, c in enumerate(caches):
        a, b = cuts[i], cuts[i + 1]
        if a == b:
            continue
        c._store_lru_rows(touched[a:b] - i * n_sets, state[a:b])
        n_i = bounds[i + 1] - bounds[i]
        m_i = mcuts[i + 1] - mcuts[i]
        c.stats.accesses += n_i
        c.stats.misses += m_i
        c.stats.hits += n_i - m_i
        c.stats.evictions += int(evictions[a:b].sum())
    return missed


def access_instances(caches: Sequence["Cache"], lines: np.ndarray,
                     bounds: Sequence[int]) -> np.ndarray:
    """Feed ``lines[bounds[i]:bounds[i + 1]]`` to ``caches[i]``.

    Returns the miss positions in ``lines``, ascending.  Instances of
    one geometry that ``auto`` routes to the reuse-window kernel are
    replayed together in one call (:func:`_window_replay`); any other
    instance gets its own :meth:`Cache.access_positions` call.
    """
    if lines.size == 0:
        return np.empty(0, dtype=np.int64)
    cfg = caches[0].config
    if all(c._windowed() and c.config == cfg for c in caches):
        return _window_replay(caches, lines, bounds)
    return np.concatenate([c.access_positions(lines[a:b]) + a
                           for c, a, b in zip(caches, bounds, bounds[1:])])


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache.

    Parameters
    ----------
    name : str
        Level label ("L1", "L2", "L3").
    capacity_bytes : int
        Total data capacity.  Must be ``n_sets * ways * line_bytes`` with
        ``n_sets`` a power of two.
    line_bytes : int
        Cache-line size (64 on both of the paper's platforms).
    ways : int
        Associativity.  ``replacement="direct"`` forces ways == 1.
    replacement : str
        One of ``lru`` (default), ``fifo``, ``plru``, ``random``,
        ``direct`` (direct-mapped, vectorized fast path).
    """

    name: str
    capacity_bytes: int
    line_bytes: int = 64
    ways: int = 8
    replacement: str = "lru"

    def __post_init__(self):
        if self.replacement not in REPLACEMENT_POLICIES:
            raise ValueError(
                f"unknown replacement {self.replacement!r}; "
                f"choose from {REPLACEMENT_POLICIES}"
            )
        if not is_power_of_two(self.line_bytes):
            raise ValueError(f"line_bytes must be a power of two, got {self.line_bytes}")
        if self.replacement == "direct" and self.ways != 1:
            raise ValueError("direct-mapped caches must have ways == 1")
        if self.ways <= 0:
            raise ValueError(f"ways must be positive, got {self.ways}")
        if self.replacement == "plru" and not is_power_of_two(self.ways):
            raise ValueError("tree-PLRU requires power-of-two associativity")
        n_sets, rem = divmod(self.capacity_bytes, self.ways * self.line_bytes)
        if rem or n_sets <= 0 or not is_power_of_two(n_sets):
            raise ValueError(
                f"capacity {self.capacity_bytes} is not line*ways*2^k "
                f"(line={self.line_bytes}, ways={self.ways})"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.capacity_bytes // (self.ways * self.line_bytes)

    @property
    def n_lines(self) -> int:
        """Total line slots."""
        return self.n_sets * self.ways

    def scaled(self, factor: int) -> "CacheConfig":
        """Capacity divided by ``factor`` (rounded down to a valid geometry).

        Associativity and line size are preserved; the set count shrinks
        to the nearest power of two, with a floor of one set.
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        target_sets = max(1, self.n_sets // factor)
        n_sets = 1 << ilog2(target_sets) if is_power_of_two(target_sets) else (
            1 << (target_sets.bit_length() - 1)
        )
        return CacheConfig(
            name=self.name,
            capacity_bytes=n_sets * self.ways * self.line_bytes,
            line_bytes=self.line_bytes,
            ways=self.ways,
            replacement=self.replacement,
        )


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance.

    ``evictions`` counts demand-access replacements of a *resident* line
    (cold fills into empty ways are not evictions; prefetch installs and
    invalidations never touch any counter).
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits / accesses (1.0 for an untouched cache)."""
        return self.hits / self.accesses if self.accesses else 1.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Elementwise sum (for aggregating per-core instances)."""
        return CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )


class Cache:
    """One simulated cache; feed it line ids, get back the missed ones.

    Line ids are byte addresses divided by ``line_bytes`` (the division
    happens upstream, once, vectorized).  State persists across calls so
    a cache can be shared between interleaved threads.

    ``backend`` selects the replay implementation (see the module
    docstring): ``"scalar"``, ``"vector"``, or ``"auto"``.  All of them
    produce bit-for-bit identical misses, counters, and eviction sets;
    ``tests/memsim/test_cache_backends.py`` and
    ``tests/memsim/test_window_lru.py`` pin this.
    """

    def __init__(self, config: CacheConfig, seed: int = 0,
                 backend: str = "auto"):
        if backend not in REPLAY_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {REPLAY_BACKENDS}"
            )
        self.config = config
        self.stats = CacheStats()
        self._set_mask = config.n_sets - 1
        self._seed = seed
        #: ``auto`` replays small-associativity LRU with the reuse-window
        #: kernel; ``backend`` then names the state layout it works on
        self._window = (backend == "auto" and config.replacement == "lru"
                        and config.ways <= _WINDOW_MAX_WAYS)
        if backend == "auto":
            backend = ("vector" if config.replacement != "direct"
                       and config.n_sets >= _AUTO_MIN_SETS else "scalar")
        self.backend = backend
        #: lines evicted by the most recent access_lines call (filled only
        #: when track_evictions is on — the inclusive-hierarchy hook)
        self.track_evictions = False
        self.last_evicted: list = []
        self.reset()

    def reset(self) -> None:
        """Empty the cache and zero the counters."""
        cfg = self.config
        self.stats = CacheStats()
        self.last_evicted = []
        if cfg.replacement == "random":
            # per-set eviction ordinals feeding the victim hash
            self._evict_seq = np.zeros(cfg.n_sets, dtype=np.int64)
        if cfg.replacement == "direct":
            self._dm_state = np.full(cfg.n_sets, -1, dtype=np.int64)
        elif self.backend == "vector":
            # dense tag matrix: recency-ordered (MRU first, -1 empty at
            # the tail) for lru/fifo/random, way-indexed for plru
            self._tags = np.full((cfg.n_sets, cfg.ways), -1, dtype=np.int64)
            if cfg.replacement == "plru":
                self._tree_v = np.zeros(cfg.n_sets, dtype=np.int64)
        elif cfg.replacement == "plru":
            # way-resident line per set, plus the PLRU tree bits per set
            self._lines = [[-1] * cfg.ways for _ in range(cfg.n_sets)]
            self._tree = [0] * cfg.n_sets
        else:
            # lru / fifo / random: per-set list of resident line ids.
            # For LRU the list is MRU-first; for FIFO it is insertion order
            # newest-first; for random order is the append/replace order
            # the victim hash indexes into.
            self._sets: List[list] = [[] for _ in range(cfg.n_sets)]

    # -- main entry ------------------------------------------------------------

    def access_lines(self, lines) -> np.ndarray:
        """Access ``lines`` in order; return the missed lines, in order.

        Misses insert the line (fill on miss, i.e. allocate-on-read).
        """
        lines = np.asarray(lines, dtype=np.int64)
        return lines[self.access_positions(lines)]

    def access_positions(self, lines) -> np.ndarray:
        """Access ``lines`` in order; return the positions of the misses.

        Positions index ``lines`` and ascend.  A caller that fed several
        requesters' lines in one call credits each miss to its requester
        from its position.
        """
        lines = np.asarray(lines, dtype=np.int64)
        if self.track_evictions:
            self.last_evicted = []
        if lines.size == 0:
            return np.empty(0, dtype=np.int64)
        policy = self.config.replacement
        if policy == "direct":
            return self._access_direct(lines)
        if self._windowed():
            return _window_replay([self], lines, [0, lines.size])
        if self.backend == "vector":
            missed = self._vec_replay(lines, policy,
                                      track=self.track_evictions,
                                      count_evictions=True)
        else:
            if policy == "lru":
                missed = self._access_lru(lines)
            elif policy == "fifo":
                missed = self._access_fifo(lines)
            elif policy == "random":
                missed = self._access_random(lines)
            else:
                missed = self._access_plru(lines)
            missed = np.asarray(missed, dtype=np.int64)
        self.stats.accesses += lines.size
        self.stats.misses += missed.size
        self.stats.hits += lines.size - missed.size
        return missed

    def _windowed(self) -> bool:
        """True when accesses go to the reuse-window kernel.  It does not
        report evicted lines, so an eviction-tracking cache (an
        inclusive LLC) keeps its backend's replay."""
        return self._window and not self.track_evictions

    def _lru_rows(self, sets: np.ndarray) -> np.ndarray:
        """MRU-first, ``-1``-padded LRU rows of ``sets``, from either
        state layout."""
        if self.backend == "vector":
            return self._tags[sets]
        ways = self.config.ways
        rows = [row + [-1] * (ways - len(row))
                for row in map(self._sets.__getitem__, sets.tolist())]
        return np.array(rows, dtype=np.int64).reshape(-1, ways)

    def _store_lru_rows(self, sets: np.ndarray, rows: np.ndarray) -> None:
        """Write rows in :meth:`_lru_rows` form back to ``sets``."""
        if self.backend == "vector":
            self._tags[sets] = rows
            return
        for s, row in zip(sets.tolist(), rows.tolist()):
            self._sets[s] = [ln for ln in row if ln >= 0]

    # -- scalar policies (the reference oracle) ---------------------------------
    # each returns the positions of its misses, ascending

    def _access_lru(self, lines: np.ndarray) -> list:
        sets = self._sets
        mask = self._set_mask
        ways = self.config.ways
        track = self.track_evictions
        missed: list = []
        ap = missed.append
        for i, ln in enumerate(lines.tolist()):
            s = sets[ln & mask]
            if ln in s:
                if s[0] != ln:
                    s.remove(ln)
                    s.insert(0, ln)
            else:
                ap(i)
                s.insert(0, ln)
                if len(s) > ways:
                    victim = s.pop()
                    self.stats.evictions += 1
                    if track:
                        self.last_evicted.append(victim)
        return missed

    def _access_fifo(self, lines: np.ndarray) -> list:
        sets = self._sets
        mask = self._set_mask
        ways = self.config.ways
        missed: list = []
        ap = missed.append
        for i, ln in enumerate(lines.tolist()):
            s = sets[ln & mask]
            if ln not in s:
                ap(i)
                s.insert(0, ln)
                if len(s) > ways:
                    victim = s.pop()
                    self.stats.evictions += 1
                    if self.track_evictions:
                        self.last_evicted.append(victim)
        return missed

    def _access_random(self, lines: np.ndarray) -> list:
        sets = self._sets
        mask = self._set_mask
        ways = self.config.ways
        seed = self._seed
        seq = self._evict_seq
        missed: list = []
        ap = missed.append
        for i, ln in enumerate(lines.tolist()):
            si = ln & mask
            s = sets[si]
            if ln not in s:
                ap(i)
                if len(s) < ways:
                    s.append(ln)
                else:
                    v = _victim_way(seed, si, int(seq[si]), ways)
                    seq[si] += 1
                    self.stats.evictions += 1
                    if self.track_evictions:
                        self.last_evicted.append(s[v])
                    s[v] = ln
        return missed

    def _access_plru(self, lines: np.ndarray) -> list:
        """Tree-PLRU: one bit per internal node steers victim selection."""
        ways = self.config.ways
        levels = ways.bit_length() - 1  # ways is a power of two
        mask = self._set_mask
        lines_tab = self._lines
        tree_tab = self._tree
        missed: list = []
        ap = missed.append
        for i, ln in enumerate(lines.tolist()):
            si = ln & mask
            resident = lines_tab[si]
            tree = tree_tab[si]
            try:
                way = resident.index(ln)
                hit = True
            except ValueError:
                hit = False
            if not hit:
                ap(i)
                # walk the tree following the PLRU bits to the victim leaf
                node = 0
                way = 0
                for _ in range(levels):
                    bit = (tree >> node) & 1
                    way = (way << 1) | bit
                    node = 2 * node + 1 + bit
                if resident[way] >= 0:
                    self.stats.evictions += 1
                    if self.track_evictions:
                        self.last_evicted.append(resident[way])
                resident[way] = ln
            # update tree bits to point *away* from this way on the path
            node = 0
            for lvl in range(levels - 1, -1, -1):
                bit = (way >> lvl) & 1
                if bit:
                    tree &= ~(1 << node)
                else:
                    tree |= 1 << node
                node = 2 * node + 1 + bit
            tree_tab[si] = tree
        return missed

    def _access_direct(self, lines: np.ndarray) -> np.ndarray:
        """Vectorized direct-mapped path (no Python per-access loop).

        Exact: a direct-mapped hit happens iff the previous access to the
        same set (within this batch, or the persisted state for the first
        such access) was the same line.
        """
        state = self._dm_state
        sets = lines & self._set_mask
        order = np.argsort(sets, kind="stable")
        s_lines = lines[order]
        s_sets = sets[order]
        hit_sorted = np.empty(lines.size, dtype=bool)
        same_set = np.empty(lines.size, dtype=bool)
        same_set[0] = False
        same_set[1:] = s_sets[1:] == s_sets[:-1]
        prev_line = np.empty_like(s_lines)
        prev_line[0] = -1
        prev_line[1:] = s_lines[:-1]
        # first access per set in the batch compares against persisted state
        first_of_set = ~same_set
        hit_sorted = np.where(first_of_set, state[s_sets] == s_lines,
                              prev_line == s_lines)
        # a miss evicts unless it filled a slot that was empty — only the
        # first access per set can find an empty slot
        filled_empty = first_of_set & (state[s_sets] < 0)
        if self.track_evictions:
            # any resident line replaced during the batch was evicted:
            # walk the per-set subsequences (small python loop over misses)
            prev_state = state.copy()
            for s_idx, ln, hit in zip(s_sets.tolist(), s_lines.tolist(),
                                      hit_sorted.tolist()):
                if not hit:
                    old = prev_state[s_idx]
                    if old >= 0 and old != ln:
                        self.last_evicted.append(int(old))
                    prev_state[s_idx] = ln
        # persist the last line per set
        last_of_set = np.empty(lines.size, dtype=bool)
        last_of_set[:-1] = s_sets[:-1] != s_sets[1:]
        last_of_set[-1] = True
        state[s_sets[last_of_set]] = s_lines[last_of_set]
        hits = np.empty(lines.size, dtype=bool)
        hits[order] = hit_sorted
        self.stats.accesses += lines.size
        n_hits = int(hits.sum())
        self.stats.hits += n_hits
        n_misses = lines.size - n_hits
        self.stats.misses += n_misses
        self.stats.evictions += n_misses - int(filled_empty.sum())
        return np.flatnonzero(~hits)

    # -- vectorized replay -------------------------------------------------------

    def _vec_replay(self, lines: np.ndarray, policy: str, track: bool,
                    count_evictions: bool) -> np.ndarray:
        """One batch through collapse + residual replay.

        Returns the original batch positions of the misses, ascending.
        """
        r_lines, r_sets, rank, miss_positions = _collapse_batch(
            lines, self._set_mask, self.config.n_sets)
        n_rounds = int(rank.max()) + 1
        if r_lines.size < _RESIDUAL_LOOP_WIDTH * n_rounds:
            hits_res = self._residual_loop(r_lines, r_sets, policy,
                                           track=track,
                                           count_evictions=count_evictions)
            return miss_positions(hits_res)
        round_order, offsets = _round_schedule(rank)
        if policy == "lru":
            hits_res = self._vec_lru_fifo(r_lines, r_sets, round_order,
                                          offsets, refresh=True, track=track,
                                          count_evictions=count_evictions)
        elif policy == "fifo":
            hits_res = self._vec_lru_fifo(r_lines, r_sets, round_order,
                                          offsets, refresh=False, track=track,
                                          count_evictions=count_evictions)
        elif policy == "random":
            hits_res = self._vec_random(r_lines, r_sets, round_order, offsets,
                                        track=track,
                                        count_evictions=count_evictions)
        else:
            hits_res = self._vec_plru(r_lines, r_sets, round_order, offsets,
                                      track=track,
                                      count_evictions=count_evictions)
        return miss_positions(hits_res)

    def _residual_loop(self, r_lines: np.ndarray, r_sets: np.ndarray,
                       policy: str, track: bool,
                       count_evictions: bool) -> np.ndarray:
        """Element-wise replay of a deeply-skewed residual.

        Sorted-by-set residual order preserves each set's access order,
        and sets are independent, so replaying in this order is exact.
        Touched rows are unpacked from the tag matrix into Python lists
        once, mutated in place, and written back at the end — the same
        transitions as the scalar oracle, minus the per-access numpy
        overhead the round replay would pay on narrow rounds.
        """
        ways = self.config.ways
        tags = self._tags
        stats = self.stats
        hits: list = []
        ap = hits.append
        state: dict = {}
        get = state.get
        if policy in ("lru", "fifo"):
            # rows stay ways-wide with the -1 padding at the tail: a miss
            # inserts at the front and pops the tail, which is the padded
            # slot when one existed (a fill) and the true victim otherwise
            refresh = policy == "lru"
            for ln, s in _int_pairs(r_lines, r_sets):
                row = get(s)
                if row is None:
                    row = state[s] = tags[s].tolist()
                if ln in row:  # -1 padding never matches a real line
                    ap(True)
                    if refresh and row[0] != ln:
                        row.remove(ln)
                        row.insert(0, ln)
                else:
                    ap(False)
                    row.insert(0, ln)
                    victim = row.pop()
                    if victim >= 0:
                        if count_evictions:
                            stats.evictions += 1
                        if track:
                            self.last_evicted.append(victim)
        elif policy == "random":
            seed = self._seed
            seq = self._evict_seq
            for ln, s in _int_pairs(r_lines, r_sets):
                row = get(s)
                if row is None:
                    row = state[s] = tags[s].tolist()
                if ln in row:
                    ap(True)
                else:
                    ap(False)
                    if row[-1] < 0:  # padding left: fill the first slot
                        row[row.index(-1)] = ln
                    else:
                        v = _victim_way(seed, s, int(seq[s]), ways)
                        seq[s] += 1
                        if count_evictions:
                            stats.evictions += 1
                        if track:
                            self.last_evicted.append(row[v])
                        row[v] = ln
        else:  # plru: way positions are fixed, -1 may sit mid-row
            trees = self._tree_v
            levels = ways.bit_length() - 1
            tstate: dict = {}
            for ln, s in _int_pairs(r_lines, r_sets):
                row = get(s)
                if row is None:
                    row = state[s] = tags[s].tolist()
                    tstate[s] = int(trees[s])
                tree = tstate[s]
                try:
                    way = row.index(ln)
                    ap(True)
                except ValueError:
                    ap(False)
                    node = 0
                    way = 0
                    for _ in range(levels):
                        bit = (tree >> node) & 1
                        way = (way << 1) | bit
                        node = 2 * node + 1 + bit
                    old = row[way]
                    if old >= 0:
                        if count_evictions:
                            stats.evictions += 1
                        if track:
                            self.last_evicted.append(old)
                    row[way] = ln
                node = 0
                for lvl in range(levels - 1, -1, -1):
                    bit = (way >> lvl) & 1
                    if bit:
                        tree &= ~(1 << node)
                    else:
                        tree |= 1 << node
                    node = 2 * node + 1 + bit
                tstate[s] = tree
            for s, tree in tstate.items():
                trees[s] = tree
        for s, row in state.items():  # rows are ways-wide in every branch
            tags[s] = row
        return np.asarray(hits, dtype=bool)

    def _vec_lru_fifo(self, lines: np.ndarray, sets: np.ndarray,
                      round_order: np.ndarray, offsets: np.ndarray,
                      refresh: bool, track: bool,
                      count_evictions: bool) -> np.ndarray:
        """LRU (``refresh=True``) / FIFO rounds over the tag matrix.

        A row is recency-ordered MRU-first with ``-1`` padding at the
        tail; a miss shifts the whole row right and inserts at the
        front, an LRU hit rotates the prefix up to the hit position.
        """
        ways = self.config.ways
        tags = self._tags
        # gather into round order once; rounds then work on slice views
        s_all = sets[round_order]
        ln_all = lines[round_order]
        hits_ro = np.empty(lines.size, dtype=bool)
        col = np.arange(ways, dtype=np.int64)
        for r in range(offsets.size - 1):
            a, b = offsets[r], offsets[r + 1]
            s = s_all[a:b]
            ln = ln_all[a:b]
            rows = tags[s]
            eq = rows == ln[:, None]
            hit = eq.any(axis=1)
            hits_ro[a:b] = hit
            shifted = np.empty_like(rows)
            shifted[:, 0] = ln
            shifted[:, 1:] = rows[:, :-1]
            if refresh:
                pos = np.where(hit, eq.argmax(axis=1), ways - 1)
                new = np.where(col[None, :] > pos[:, None], rows, shifted)
            else:
                new = np.where(hit[:, None], rows, shifted)
            tags[s] = new
            if count_evictions or track:
                victims = rows[~hit, ways - 1]
                victims = victims[victims >= 0]
                if count_evictions:
                    self.stats.evictions += int(victims.size)
                if track and victims.size:
                    self.last_evicted.extend(victims.tolist())
        hits = np.empty(lines.size, dtype=bool)
        hits[round_order] = hits_ro
        return hits

    def _vec_random(self, lines: np.ndarray, sets: np.ndarray,
                    round_order: np.ndarray, offsets: np.ndarray, track: bool,
                    count_evictions: bool) -> np.ndarray:
        """Random-replacement rounds: appends fill the first empty slot;
        full-set victims come from the counter-based hash."""
        ways = self.config.ways
        tags = self._tags
        s_all = sets[round_order]
        ln_all = lines[round_order]
        hits_ro = np.empty(lines.size, dtype=bool)
        for r in range(offsets.size - 1):
            a, b = offsets[r], offsets[r + 1]
            s = s_all[a:b]
            ln = ln_all[a:b]
            rows = tags[s]
            hit = (rows == ln[:, None]).any(axis=1)
            hits_ro[a:b] = hit
            miss = ~hit
            if not miss.any():
                continue
            ms = s[miss]
            mln = ln[miss]
            cnt = (rows[miss] >= 0).sum(axis=1)
            space = cnt < ways
            if space.any():
                tags[ms[space], cnt[space]] = mln[space]
            full = ~space
            if full.any():
                fs = ms[full]
                seq = self._evict_seq[fs]
                vic = _victim_way_arr(self._seed, fs, seq, ways)
                self._evict_seq[fs] = seq + 1
                if count_evictions:
                    self.stats.evictions += int(fs.size)
                if track:
                    self.last_evicted.extend(tags[fs, vic].tolist())
                tags[fs, vic] = mln[full]
        hits = np.empty(lines.size, dtype=bool)
        hits[round_order] = hits_ro
        return hits

    def _vec_plru(self, lines: np.ndarray, sets: np.ndarray,
                  round_order: np.ndarray, offsets: np.ndarray, track: bool,
                  count_evictions: bool) -> np.ndarray:
        """Tree-PLRU rounds: vectorized victim walk + steering-bit update."""
        ways = self.config.ways
        levels = ways.bit_length() - 1
        tags = self._tags
        trees = self._tree_v
        s_all = sets[round_order]
        ln_all = lines[round_order]
        hits_ro = np.empty(lines.size, dtype=bool)
        one = np.int64(1)
        for r in range(offsets.size - 1):
            a, b = offsets[r], offsets[r + 1]
            s = s_all[a:b]
            ln = ln_all[a:b]
            rows = tags[s]
            eq = rows == ln[:, None]
            hit = eq.any(axis=1)
            hits_ro[a:b] = hit
            way = eq.argmax(axis=1).astype(np.int64)
            tree = trees[s]
            miss = ~hit
            if miss.any():
                # walk the steering bits down to each miss's victim leaf
                tm = tree[miss]
                node = np.zeros(tm.size, dtype=np.int64)
                w = np.zeros(tm.size, dtype=np.int64)
                for _ in range(levels):
                    bit = (tm >> node) & one
                    w = (w << one) | bit
                    node = 2 * node + 1 + bit
                ms = s[miss]
                old = tags[ms, w]
                resident = old >= 0
                if count_evictions:
                    self.stats.evictions += int(resident.sum())
                if track and resident.any():
                    self.last_evicted.extend(old[resident].tolist())
                tags[ms, w] = ln[miss]
                way[miss] = w
            # point every touched path's bits *away* from the used way
            node = np.zeros(s.size, dtype=np.int64)
            for lvl in range(levels - 1, -1, -1):
                bit = (way >> np.int64(lvl)) & one
                m = one << node
                tree = np.where(bit == 1, tree & ~m, tree | m)
                node = 2 * node + 1 + bit
            trees[s] = tree
        hits = np.empty(lines.size, dtype=bool)
        hits[round_order] = hits_ro
        return hits

    # -- prefetch support ---------------------------------------------------------

    def install_lines(self, lines) -> int:
        """Insert lines without counting accesses (prefetch fills).

        Lines already resident are refreshed to MRU under LRU (matching
        hardware prefetchers that update replacement state); evictions
        follow the normal policy but are never recorded in counters or
        ``last_evicted``.  Returns how many lines were newly installed
        (i.e. were not already resident).
        """
        lines = np.asarray(lines, dtype=np.int64)
        if lines.size == 0:
            return 0
        cfg = self.config
        installed = 0
        if cfg.replacement == "direct":
            sets = lines & self._set_mask
            installed = int((self._dm_state[sets] != lines).sum())
            self._dm_state[sets] = lines
            return installed
        if self.backend == "vector":
            # random installs skip the victim-hash draw: front insertion
            # with no hit refresh is exactly the FIFO transition
            policy = ("fifo" if cfg.replacement == "random"
                      else cfg.replacement)
            missed_idx = self._vec_replay(lines, policy, track=False,
                                          count_evictions=False)
            return int(missed_idx.size)
        if cfg.replacement == "plru":
            before = (self.stats.accesses, self.stats.hits,
                      self.stats.misses, self.stats.evictions)
            track = self.track_evictions
            self.track_evictions = False
            try:
                missed = self._access_plru(lines)
            finally:
                self.track_evictions = track
            (self.stats.accesses, self.stats.hits,
             self.stats.misses, self.stats.evictions) = before
            return len(missed)
        mask = self._set_mask
        ways = cfg.ways
        sets = self._sets
        for ln in lines.tolist():
            s = sets[ln & mask]
            if ln in s:
                if cfg.replacement == "lru" and s[0] != ln:
                    s.remove(ln)
                    s.insert(0, ln)
            else:
                installed += 1
                s.insert(0, ln)
                if len(s) > ways:
                    s.pop()
        return installed

    def invalidate(self, lines) -> int:
        """Drop lines from the cache if present (inclusion back-invalidate).

        Returns how many were actually resident.  No counters change: an
        invalidation is not a demand access.
        """
        lines = np.asarray(lines, dtype=np.int64)
        cfg = self.config
        dropped = 0
        if cfg.replacement == "direct":
            sets = lines & self._set_mask
            match = self._dm_state[sets] == lines
            dropped = int(match.sum())
            self._dm_state[sets[match]] = -1
            return dropped
        if self.backend == "vector":
            mask = self._set_mask
            tags = self._tags
            plru = cfg.replacement == "plru"
            for ln in lines.tolist():
                row = tags[ln & mask]
                pos = np.flatnonzero(row == ln)
                if not pos.size:
                    continue
                dropped += 1
                p = int(pos[0])
                if plru:
                    row[p] = -1  # way positions are fixed under PLRU
                else:
                    # recency rows compact left, keeping -1 at the tail
                    row[p:-1] = row[p + 1:]
                    row[-1] = -1
            return dropped
        if cfg.replacement == "plru":
            for ln in lines.tolist():
                resident = self._lines[ln & self._set_mask]
                try:
                    resident[resident.index(ln)] = -1
                    dropped += 1
                except ValueError:
                    pass
            return dropped
        for ln in lines.tolist():
            s = self._sets[ln & self._set_mask]
            if ln in s:
                s.remove(ln)
                dropped += 1
        return dropped

    # -- introspection -----------------------------------------------------------

    def resident_lines(self) -> set:
        """Set of line ids currently resident (for tests)."""
        cfg = self.config
        if cfg.replacement == "direct":
            return {int(x) for x in self._dm_state if x >= 0}
        if self.backend == "vector":
            return {int(x) for x in self._tags.ravel() if x >= 0}
        if cfg.replacement == "plru":
            return {ln for s in self._lines for ln in s if ln >= 0}
        return {ln for s in self._sets for ln in s}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.config
        return (
            f"Cache({c.name}, {c.capacity_bytes}B, {c.ways}-way, "
            f"{c.replacement}, sets={c.n_sets}, backend={self.backend})"
        )
