"""Trace-driven simulation engine with multi-thread interleaving.

Takes one :class:`~repro.memsim.trace.TraceChunk` per simulated thread
(plus that thread's core binding), interleaves the streams round-robin
in fixed quanta, and drives them through a :class:`Machine`.  Quantum
interleaving is what makes shared caches behave like shared caches:
threads pinned to the same core (MIC SMT) or socket (Ivy Bridge L3)
evict each other exactly as concurrent hardware threads would, up to
the quantum granularity.  The schedule is replayed in blocks of rounds,
level by level (:meth:`Machine.replay`), which gives exactly the
results of replaying it one quantum batch at a time.

The result bundles the platform counters, per-level service totals, and
the cost-model runtime, with optional extrapolation factors applied by
the experiment harness when it simulated only a sample of the work.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from ..instrument import trace as _trace
from .cache import REPLAY_BACKENDS, CacheStats
from .cost import CostModel
from .hierarchy import Machine, PlatformSpec, ServiceCounts
from .stackdist import HistogramStore, per_thread_histograms, stack_ineligibility, stream_key
from .trace import TraceChunk

__all__ = ["ThreadWork", "SimResult", "SimulationEngine"]

#: Lines of quantum batches replayed per block.  A block walks the
#: hierarchy level by level, so its size trades per-call overhead
#: against the memory its intermediate streams hold.
_BLOCK_LINES = 1 << 15


@dataclass
class ThreadWork:
    """One simulated thread's entire memory traffic and compute weight."""

    thread_id: int
    core: int
    chunk: TraceChunk


@dataclass
class SimResult:
    """Outcome of one simulation run.

    Attributes
    ----------
    counters : dict
        PAPI-style counters as wired by the platform spec, already
        multiplied by ``count_scale``.
    level_served : dict
        Requests served per level name (plus ``"MEM"``), scaled.
    runtime_seconds : float
        Cost-model runtime (slowest thread), multiplied by ``work_scale``.
    per_thread_cycles : dict
        Unscaled cycles per simulated thread id.
    n_accesses : int
        Total (pre-collapse) accesses simulated, unscaled.
    count_scale, work_scale : float
        Extrapolation factors recorded by the harness (1.0 when the full
        workload was simulated).
    """

    counters: Dict[str, float]
    level_served: Dict[str, float]
    runtime_seconds: float
    per_thread_cycles: Dict[int, float]
    n_accesses: int
    count_scale: float = 1.0
    work_scale: float = 1.0

    def scaled(self, count_scale: float, work_scale: float) -> "SimResult":
        """Apply extrapolation factors (see harness sampling docs)."""
        return SimResult(
            counters={k: v * count_scale for k, v in self.counters.items()},
            level_served={k: v * count_scale for k, v in self.level_served.items()},
            runtime_seconds=self.runtime_seconds * work_scale,
            per_thread_cycles=dict(self.per_thread_cycles),
            n_accesses=self.n_accesses,
            count_scale=self.count_scale * count_scale,
            work_scale=self.work_scale * work_scale,
        )


class SimulationEngine:
    """Interleaves per-thread traces through a machine model.

    Parameters
    ----------
    spec : PlatformSpec
        The machine to instantiate.
    cost : CostModel, optional
        Cycle accounting; defaults to :class:`CostModel` defaults.
    quantum : int
        Lines per thread per round-robin turn.  Smaller quanta model
        finer-grained concurrency (more cross-thread interference);
        256 lines ≈ 16 KB of traffic per turn.
    backend : str
        Cache replay backend.  ``"scalar"``, ``"vector"``, and ``"auto"``
        are forwarded to every :class:`~repro.memsim.cache.Cache` and are
        bit-for-bit equivalent (see :mod:`repro.memsim.cache`).
        ``"stack"`` prices miss counts from a single stack-distance pass
        (:mod:`repro.memsim.stackdist`) — exact for a single-level
        fully-associative LRU platform, and automatically falling back to
        the replayer on any other configuration
        (:attr:`stack_fallback_reason` says why).
    histogram_store : HistogramStore, optional
        Where the stack backend caches per-stream histograms.  Pass a
        shared (optionally durable) store so capacity sweeps re-price
        geometries without recomputing; defaults to a private in-memory
        store.
    """

    def __init__(self, spec: PlatformSpec, cost: Optional[CostModel] = None,
                 quantum: int = 256, seed: int = 0, backend: str = "auto",
                 histogram_store: Optional[HistogramStore] = None):
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        if backend != "stack" and backend not in REPLAY_BACKENDS:
            raise ValueError(
                f"backend must be 'stack' or one of {REPLAY_BACKENDS}, "
                f"got {backend!r}"
            )
        self.spec = spec
        self.cost = cost or CostModel()
        self.quantum = quantum
        self.backend = backend
        #: why ``backend="stack"`` falls back to the replayer on this
        #: platform (None when stack pricing is exact and active)
        self.stack_fallback_reason: Optional[str] = (
            stack_ineligibility(spec) if backend == "stack" else None
        )
        self.histogram_store = histogram_store or HistogramStore()
        # the stack path keeps a replay-capable machine around both for
        # counter wiring and as the fallback engine
        machine_backend = "auto" if backend == "stack" else backend
        self.machine = Machine(spec, seed=seed, backend=machine_backend)

    @property
    def uses_stack(self) -> bool:
        """True when runs are priced from stack distances, not replayed."""
        return self.backend == "stack" and self.stack_fallback_reason is None

    def run(self, works: List[ThreadWork], reset: bool = True) -> SimResult:
        """Simulate all thread streams to completion and account costs."""
        if self.uses_stack:
            if not reset:
                raise ValueError(
                    "backend='stack' prices each run from a cold cache and "
                    "cannot continue warm state; use reset=True or a replay "
                    "backend"
                )
            return self._run_stack(works)
        if reset:
            self.machine.reset()
        self._check_cores(works)
        spec = self.spec
        machine = self.machine
        # rows: one per level, then memory, then TLB misses; one column
        # per work
        totals = [[0] * len(works) for _ in range(len(spec.levels) + 2)]
        with _trace.span("engine.replay", platform=spec.name,
                         threads=len(works), quantum=self.quantum) as sp:
            for i, w in enumerate(works):
                machine.credit_hits(w.core, w.chunk.collapsed_hits)
                totals[0][i] = w.chunk.collapsed_hits
            streams = [w.chunk.lines for w in works]
            timing: Dict[str, List[float]] = {}
            for thread, start, end in self._blocks(streams):
                machine.replay(streams, [works[t].core for t in thread],
                               thread, start, end, totals, timing)
            sp.add("lines", sum(w.chunk.lines.size for w in works))
            sp.add("accesses", sum(w.chunk.n_accesses for w in works))
            for name, (seconds, lines) in timing.items():
                sp.add(f"{name}_s", seconds)
                sp.add(f"{name}_lines", lines)
        with _trace.span("engine.cost") as sp:
            names = spec.level_names()
            by_thread: Dict[int, List[int]] = {}
            n_ops: Dict[int, int] = {}
            for i, w in enumerate(works):
                column = by_thread.setdefault(w.thread_id, [0] * len(totals))
                for r, row in enumerate(totals):
                    column[r] += row[i]
                n_ops[w.thread_id] = n_ops.get(w.thread_id, 0) + w.chunk.n_ops
            cycles = {
                tid: self.cost.thread_cycles(
                    ServiceCounts(per_level=dict(zip(names, t)),
                                  mem=t[-2], tlb_misses=t[-1]),
                    n_ops[tid], spec)
                for tid, t in by_thread.items()
            }
            runtime = self.cost.seconds(max(cycles.values(), default=0.0),
                                        spec)
            served = [sum(row) for row in totals]
            level_served = {name: float(n) for name, n in zip(names, served)}
            level_served["MEM"] = float(served[-2])
            result = SimResult(
                counters={k: float(v)
                          for k, v in machine.all_counters().items()},
                level_served=level_served,
                runtime_seconds=runtime,
                per_thread_cycles=cycles,
                n_accesses=sum(w.chunk.n_accesses for w in works),
            )
            sp.add("mem_lines", level_served["MEM"])
        return result

    def _check_cores(self, works: List[ThreadWork]) -> None:
        for w in works:
            if not 0 <= w.core < self.spec.n_cores:
                raise ValueError(
                    f"thread {w.thread_id} bound to core {w.core}, but platform "
                    f"{self.spec.name} has {self.spec.n_cores} cores"
                )

    def _blocks(self, streams: List[np.ndarray]):
        """The round-robin quantum schedule, in blocks of whole rounds.

        Round ``r`` gives every thread with lines left its next
        ``quantum`` lines, in thread order.  Yields per block the
        batches' ``(thread, start, end)`` lists in schedule order.  A
        block holds as many rounds as fit in ``_BLOCK_LINES`` (at least
        one), or a single batch when the platform
        :attr:`~repro.memsim.hierarchy.PlatformSpec.replays_per_batch`.
        """
        q = self.quantum
        lens = np.array([s.size for s in streams], dtype=np.int64)
        n_rounds = int(-(-lens.max() // q)) if lens.size else 0
        single = self.spec.replays_per_batch
        threads = np.arange(lens.size, dtype=np.int64)
        r = 0
        while r < n_rounds:
            width = int(np.count_nonzero(lens > r * q)) * q
            stop = min(n_rounds, r + max(1, _BLOCK_LINES // width))
            starts = np.arange(r, stop, dtype=np.int64)[:, None] * q
            live = lens > starts
            thread = np.broadcast_to(threads, live.shape)[live]
            start = np.broadcast_to(starts, live.shape)[live]
            end = np.minimum(start + q, lens[thread])
            batches = thread.tolist(), start.tolist(), end.tolist()
            if single:
                for t, a, e in zip(*batches):
                    yield [t], [a], [e]
            else:
                yield batches
            r = stop

    # -- stack-distance pricing ----------------------------------------------

    def _instance_streams(self, works: List[ThreadWork]):
        """Interleave the thread streams exactly as :meth:`run` would.

        Replays the round-robin quantum schedule without touching any
        cache, yielding per cache instance the (lines, thread_ids)
        arrays in machine arrival order, plus the pre-collapsed-hit
        credit per (instance, thread).  The interleave order is what
        makes a shared instance shared, so it must match the replayer's
        bit for bit.
        """
        batches: Dict[int, List[np.ndarray]] = {}
        batch_tids: Dict[int, List[np.ndarray]] = {}
        credits: Dict[int, Dict[int, int]] = {}
        keys = [self.machine.instance_key(0, w.core) for w in works]
        for key, w in zip(keys, works):
            credits.setdefault(key, {})
            credits[key][w.thread_id] = (credits[key].get(w.thread_id, 0)
                                         + w.chunk.collapsed_hits)
        positions = [0] * len(works)
        active = [w.chunk.lines.size > 0 for w in works]
        q = self.quantum
        while any(active):
            for idx, w in enumerate(works):
                if not active[idx]:
                    continue
                pos = positions[idx]
                batch = w.chunk.lines[pos:pos + q]
                positions[idx] = pos + batch.size
                key = keys[idx]
                batches.setdefault(key, []).append(batch)
                batch_tids.setdefault(key, []).append(
                    np.full(batch.size, w.thread_id, dtype=np.int64))
                if positions[idx] >= w.chunk.lines.size:
                    active[idx] = False
        streams = {}
        for key in credits:
            if key in batches:
                lines = np.concatenate(batches[key])
                tids = np.concatenate(batch_tids[key])
            else:
                lines = np.empty(0, dtype=np.int64)
                tids = np.empty(0, dtype=np.int64)
            streams[key] = (lines, tids, credits[key])
        return streams

    def _run_stack(self, works: List[ThreadWork]) -> SimResult:
        """Price the run from per-stream stack-distance histograms.

        Miss counts are bit-for-bit those of the replayer on this
        (single-level fully-associative LRU) platform, and the runtime
        comes from the same per-thread totals through the same
        :meth:`CostModel.thread_cycles`, so it is identical too.
        """
        self.machine.reset()
        self._check_cores(works)
        level = self.spec.levels[0]
        level_name = level.cache.name
        capacity_lines = level.cache.capacity_bytes // level.cache.line_bytes
        hits: Dict[int, int] = {w.thread_id: 0 for w in works}
        misses: Dict[int, int] = dict(hits)
        total_hits = 0
        total_misses = 0
        store_hits_before = self.histogram_store.hits
        with _trace.span("engine.replay", platform=self.spec.name,
                         threads=len(works), quantum=self.quantum,
                         backend="stack") as sp:
            streams = self._instance_streams(works)
            instances = self.machine.level_instances(0)
            for key, (lines, tids, credit_by_tid) in streams.items():
                hists = self.histogram_store.get_or_compute(
                    stream_key(lines, tids),
                    lambda lines=lines, tids=tids:
                        per_thread_histograms(lines, tids))
                inst_hits = 0
                inst_misses = 0
                inst_cold = 0
                for tid, credit in credit_by_tid.items():
                    hist = hists.get(tid)
                    if hist is not None:
                        t_hits = hist.hits(capacity_lines)
                        t_misses = hist.misses(capacity_lines)
                        inst_cold += hist.cold
                    else:  # thread contributed only collapsed hits
                        t_hits = t_misses = 0
                    hits[tid] += t_hits + credit
                    misses[tid] += t_misses
                    inst_hits += t_hits + credit
                    inst_misses += t_misses
                instances[key].stats = CacheStats(
                    accesses=inst_hits + inst_misses,
                    hits=inst_hits,
                    misses=inst_misses,
                    evictions=inst_misses - min(inst_cold, capacity_lines),
                )
                total_hits += inst_hits
                total_misses += inst_misses
            sp.add("lines", sum(w.chunk.lines.size for w in works))
            sp.add("accesses", sum(w.chunk.n_accesses for w in works))
            sp.add("histogram_cache_hits",
                   self.histogram_store.hits - store_hits_before)
        with _trace.span("engine.cost") as sp:
            n_ops: Dict[int, int] = {}
            for w in works:
                n_ops[w.thread_id] = n_ops.get(w.thread_id, 0) + w.chunk.n_ops
            cycles = {
                tid: self.cost.thread_cycles(
                    ServiceCounts(per_level={level_name: hits[tid]},
                                  mem=misses[tid]),
                    n_ops[tid], self.spec)
                for tid in hits
            }
            runtime = self.cost.seconds(max(cycles.values(), default=0.0),
                                        self.spec)
            result = SimResult(
                counters={k: float(v)
                          for k, v in self.machine.all_counters().items()},
                level_served={level_name: float(total_hits),
                              "MEM": float(total_misses)},
                runtime_seconds=runtime,
                per_thread_cycles=cycles,
                n_accesses=sum(w.chunk.n_accesses for w in works),
            )
            sp.add("mem_lines", float(total_misses))
        return result
