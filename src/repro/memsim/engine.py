"""Trace-driven simulation engine with multi-thread interleaving.

Takes one :class:`~repro.memsim.trace.TraceChunk` per simulated thread
(plus that thread's core binding), interleaves the streams round-robin
in fixed quanta, and drives them through a :class:`Machine`.  Quantum
interleaving is what makes shared caches behave like shared caches:
threads pinned to the same core (MIC SMT) or socket (Ivy Bridge L3)
evict each other exactly as concurrent hardware threads would, up to
the quantum granularity.  The schedule is replayed in blocks of rounds,
level by level (:meth:`Machine.replay`), which gives exactly the
results of replaying it one quantum batch at a time.  The ``stack``
backend walks the same blocks and prices each cache instance's stream
from stack distances instead; both paths fill the same per-thread
totals, and one cost step turns them into a result.

The result bundles the platform counters, per-level service totals, and
the cost-model runtime, with optional extrapolation factors applied by
the experiment harness when it simulated only a sample of the work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from ..instrument import trace as _trace
from .cache import REPLAY_BACKENDS
from .cost import CostModel
from .hierarchy import Machine, PlatformSpec, ServiceCounts, _gather, _groups
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
        Where the stack backend memoizes per-stream histograms.  Pass a
        shared store so capacity sweeps re-price geometries without
        recomputing; defaults to a private store.
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
        stack = self.uses_stack
        if stack and not reset:
            raise ValueError(
                "backend='stack' prices each run from a cold cache and "
                "cannot continue warm state; use reset=True or a replay "
                "backend"
            )
        spec = self.spec
        machine = self.machine
        if reset:
            machine.reset()
        self._check_cores(works)
        # rows: one per level, then memory, then TLB misses; one column
        # per work
        totals = [[0] * len(works) for _ in range(len(spec.levels) + 2)]
        for i, w in enumerate(works):
            machine.credit_hits(w.core, w.chunk.collapsed_hits)
            totals[0][i] = w.chunk.collapsed_hits
        streams = [w.chunk.lines for w in works]
        cores = [w.core for w in works]
        attrs = {"backend": "stack"} if stack else {}
        with _trace.span("engine.replay", platform=spec.name,
                         threads=len(works), quantum=self.quantum,
                         **attrs) as sp:
            price = self._price_stack if stack else self._replay
            counters = price(streams, cores, totals)
            sp.add("lines", sum(w.chunk.lines.size for w in works))
            sp.add("accesses", sum(w.chunk.n_accesses for w in works))
            for name, value in counters.items():
                sp.add(name, value)
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

    def _replay(self, streams: List[np.ndarray], cores: List[int],
                totals: List[List[int]]) -> Dict[str, float]:
        """Replay the schedule through the machine into ``totals``.

        Returns each level's (and the TLB's) host seconds and input
        lines as span counters.
        """
        timing: Dict[str, List[float]] = {}
        for thread, start, end in self._blocks(streams):
            self.machine.replay(streams, [cores[t] for t in thread],
                                thread, start, end, totals, timing)
        counters: Dict[str, float] = {}
        for name, (seconds, lines) in timing.items():
            counters[f"{name}_s"] = seconds
            counters[f"{name}_lines"] = lines
        return counters

    def _price_stack(self, streams: List[np.ndarray], cores: List[int],
                     totals: List[List[int]]) -> Dict[str, float]:
        """Price the schedule from per-instance stack-distance histograms.

        Each cache instance's stream is the lines of its batches in
        :meth:`_blocks` order, exactly what :meth:`_replay` would feed
        it, so hit and miss counts are bit-for-bit the replayer's on
        this (single-level fully-associative LRU) platform.  Histograms
        are keyed by work position, and their counts go into the same
        ``totals`` columns the replayer fills.  Returns the histogram
        store hits as a span counter.
        """
        cache = self.spec.levels[0].cache
        capacity = cache.capacity_bytes // cache.line_bytes
        keys = [self.machine.instance_key(0, c) for c in cores]
        store = self.histogram_store
        store_hits = store.hits
        bundles = store.get_or_compute_schedule(
            streams, (self.quantum, tuple(keys)),
            partial(self._instance_histograms, streams, keys))
        instances = self.machine.level_instances(0)
        for key, hists in bundles.items():
            stats = instances[key].stats
            cold = 0
            for position, hist in hists.items():
                misses = hist.misses(capacity)
                totals[0][position] += hist.total - misses
                totals[-2][position] += misses
                stats.accesses += hist.total
                stats.hits += hist.total - misses
                stats.misses += misses
                stats.evictions += misses
                cold += hist.cold
            stats.evictions -= min(cold, capacity)
        return {"histogram_cache_hits": store.hits - store_hits}

    def _instance_histograms(self, streams: List[np.ndarray],
                             keys: List[int]) -> Dict[int, dict]:
        """Per-work histograms of each instance's stream (see
        :meth:`_price_stack`), looked up by stream content."""
        parts: Dict[int, List[np.ndarray]] = {key: [] for key in keys}
        owners: Dict[int, List[np.ndarray]] = {key: [] for key in keys}
        for thread, start, end in self._blocks(streams):
            for key, batches in _groups([keys[t] for t in thread]).items():
                lines, off = _gather(streams, thread, start, end, batches)
                parts[key].append(lines)
                owners[key].append(np.repeat([thread[b] for b in batches],
                                             np.diff(off)))
        store = self.histogram_store
        empty = np.empty(0, dtype=np.int64)
        bundles = {}
        for key in parts:
            lines = np.concatenate(parts[key] or [empty])
            owner = np.concatenate(owners[key] or [empty])
            bundles[key] = store.get_or_compute(
                stream_key(lines, owner),
                partial(per_thread_histograms, lines, owner))
        return bundles
