"""Reference oracle for block replay: the per-batch schedule walk.

:func:`per_batch_run` walks the engine's round-robin quantum schedule
one batch at a time: each batch goes through the TLB and every cache
level before the next batch starts, and its cycles are charged as it
goes.  That is how :meth:`SimulationEngine.run` worked before it
replayed blocks of rounds level by level.  The oracle drives the
engine's own :class:`Machine`, so its results and the final state of
every cache can be compared with the production path.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.memsim import ServiceCounts, SimResult, SimulationEngine, ThreadWork


def access_batch(machine, core: int, lines: np.ndarray,
                 pre_collapsed_hits: int = 0) -> ServiceCounts:
    """One batch through ``core``'s TLB and cache path, level by level."""
    spec = machine.spec
    counts = ServiceCounts()
    lines = np.asarray(lines, dtype=np.int64)
    if machine._tlbs is not None and lines.size:
        pages = lines // machine._lines_per_page
        keep = np.empty(pages.size, dtype=bool)
        keep[0] = True
        np.not_equal(pages[1:], pages[:-1], out=keep[1:])
        tlb = machine._tlbs[core]
        missed_pages = tlb.access_lines(pages[keep])
        repeats = int(pages.size - keep.sum())
        tlb.stats.accesses += repeats
        tlb.stats.hits += repeats
        counts.tlb_misses = int(missed_pages.size)
    pending = lines
    for li, level in enumerate(spec.levels):
        cache = machine._instance_for(li, core)
        name = level.cache.name
        if li == 0 and pre_collapsed_hits:
            cache.stats.accesses += pre_collapsed_hits
            cache.stats.hits += pre_collapsed_hits
        if pending.size == 0:
            counts.per_level.setdefault(name, 0)
            if li == 0 and pre_collapsed_hits:
                counts.per_level[name] += pre_collapsed_hits
            continue
        prefetchers = machine._prefetchers[li]
        if prefetchers is not None:
            pf = prefetchers[core]
            missed_parts = []
            evicted_all: list = []
            for start in range(0, pending.size, 16):
                part = pending[start:start + 16]
                pf.observe_and_fill(part, cache)
                missed_parts.append(cache.access_lines(part))
                if cache.track_evictions:
                    evicted_all.extend(cache.last_evicted)
            missed = np.concatenate(missed_parts)
            if cache.track_evictions:
                cache.last_evicted = evicted_all
        else:
            missed = cache.access_lines(pending)
        if (spec.inclusive and li == len(spec.levels) - 1
                and li > 0 and cache.last_evicted):
            machine._back_invalidate(li, core, cache.last_evicted)
        counts.per_level[name] = pending.size - missed.size + (
            pre_collapsed_hits if li == 0 else 0)
        pending = missed
    counts.mem = int(pending.size)
    return counts


def per_batch_run(engine: SimulationEngine, works: List[ThreadWork],
                  reset: bool = True) -> SimResult:
    """:meth:`SimulationEngine.run`, one quantum batch at a time.

    ``level_served`` names every level even when no batch ran.
    """
    spec = engine.spec
    machine = engine.machine
    if reset:
        machine.reset()
    cycles: Dict[int, float] = {w.thread_id: 0.0 for w in works}
    served_total = ServiceCounts(
        per_level={name: 0 for name in spec.level_names()})
    positions = [0] * len(works)
    pre_credit = [w.chunk.collapsed_hits for w in works]
    active = [w.chunk.lines.size > 0 or pre_credit[i] > 0
              for i, w in enumerate(works)]
    q = engine.quantum
    while any(active):
        for idx, w in enumerate(works):
            if not active[idx]:
                continue
            pos = positions[idx]
            batch = w.chunk.lines[pos:pos + q]
            positions[idx] = pos + batch.size
            credit = pre_credit[idx]
            pre_credit[idx] = 0
            counts = access_batch(machine, w.core, batch, credit)
            cycles[w.thread_id] += engine.cost.access_cycles(counts, spec)
            served_total = served_total.merge(counts)
            if positions[idx] >= w.chunk.lines.size:
                active[idx] = False
    for w in works:
        cycles[w.thread_id] += engine.cost.compute_cycles(w.chunk.n_ops)
    level_served = {k: float(v) for k, v in served_total.per_level.items()}
    level_served["MEM"] = float(served_total.mem)
    return SimResult(
        counters={k: float(v) for k, v in machine.all_counters().items()},
        level_served=level_served,
        runtime_seconds=engine.cost.seconds(
            max(cycles.values(), default=0.0), spec),
        per_thread_cycles=cycles,
        n_accesses=sum(w.chunk.n_accesses for w in works),
    )


def machine_state(machine) -> list:
    """Everything a later run can observe: per cache instance (TLBs
    included) its counters and replacement state, and each prefetcher's
    stream state."""
    caches = [c for level in machine._caches for c in level.values()]
    caches += list((machine._tlbs or {}).values())
    state = []
    for cache in caches:
        entry = [cache.stats]
        for attr in ("_sets", "_lines", "_tree", "_tags", "_tree_v",
                     "_evict_seq", "_dm_state"):
            value = getattr(cache, attr, None)
            if value is not None:
                entry.append((attr, np.asarray(value).tolist()
                              if isinstance(value, np.ndarray) else value))
        state.append(entry)
    for prefetchers in machine._prefetchers:
        for pf in (prefetchers or {}).values():
            state.append((pf._last, pf._direction, pf._run, pf.issued,
                          pf.installed))
    return state
