"""Tests for the single-pass stack-distance replay backend.

The load-bearing property: on every fully-associative LRU platform in
the cross-validation matrix, ``backend="stack"`` must produce miss
counts *bit-for-bit* equal to the vectorized replayer — the stack
backend is a reformulation, not an approximation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.memsim.engine as engine_mod
from repro.memsim import (
    Cache,
    CacheConfig,
    HistogramStore,
    LevelSpec,
    PlatformSpec,
    SimulationEngine,
    StackDistanceHistogram,
    ThreadWork,
    TraceChunk,
    fully_associative_spec,
    get_platform,
    per_thread_histograms,
    stack_distance_histogram,
    stack_distances,
    stack_ineligibility,
)
from repro.memsim.prefetch import PrefetchConfig
from repro.memsim.stackdist import stream_key

from ..analysis.reuse_oracle import reuse_bit, reuse_stack

lines_st = st.lists(st.integers(0, 40), min_size=0, max_size=300)

ADVERSARIAL = {
    "all-distinct": np.arange(200, dtype=np.int64),
    "all-same": np.zeros(200, dtype=np.int64),
    "periodic": np.tile(np.arange(7, dtype=np.int64), 40),
    "single-element": np.array([42], dtype=np.int64),
    "empty": np.array([], dtype=np.int64),
    "two-phase": np.concatenate([np.arange(50), np.arange(50)[::-1]]),
}


def brute_lru_misses(seq, capacity):
    """Oracle: simulate a fully-associative LRU cache one access at a time."""
    resident: OrderedDict = OrderedDict()
    misses = 0
    for x in seq:
        if x in resident:
            resident.move_to_end(x)
        else:
            misses += 1
            if len(resident) >= capacity:
                resident.popitem(last=False)
            resident[x] = True
    return misses


class TestStackDistances:
    @given(lines_st)
    @settings(max_examples=60)
    def test_matches_bit_reference(self, lines):
        arr = np.asarray(lines, dtype=np.int64)
        assert stack_distance_histogram(arr).as_dict() == reuse_bit(lines)

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_adversarial_patterns(self, name):
        arr = ADVERSARIAL[name]
        assert (stack_distance_histogram(arr).as_dict()
                == reuse_stack(arr.tolist()))

    def test_per_access_distances(self):
        # a b b b a : one distinct line between the two a's
        assert stack_distances([1, 2, 2, 2, 1]).tolist() == [-1, -1, 0, 0, 1]

    def test_cold_count_is_distinct_lines(self):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 37, size=500)
        hist = stack_distance_histogram(arr)
        assert hist.cold == np.unique(arr).size
        assert hist.total == arr.size

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            stack_distances(np.array(["a", "b"]))


class TestHistogramPricing:
    @pytest.mark.parametrize("capacity", [1, 2, 3, 7, 16, 64, 1000])
    def test_misses_match_brute_force_lru(self, capacity):
        rng = np.random.default_rng(1)
        seq = rng.integers(0, 50, size=800).tolist()
        hist = stack_distance_histogram(seq)
        assert hist.misses(capacity) == brute_lru_misses(seq, capacity)

    def test_miss_counts_vectorized_over_capacities(self):
        rng = np.random.default_rng(2)
        seq = rng.integers(0, 80, size=600)
        hist = stack_distance_histogram(seq)
        caps = [1, 2, 4, 8, 16, 32, 64, 128]
        assert hist.miss_counts(caps).tolist() \
            == [hist.misses(c) for c in caps]

    def test_evictions_formula(self):
        # misses - min(distinct, C): cold fills into empty ways are
        # not evictions, exactly the replayer's counting rule
        seq = [0, 1, 2, 0, 3, 4, 0]
        hist = stack_distance_histogram(seq)
        assert hist.evictions(2) == hist.misses(2) - 2
        assert hist.evictions(100) == 0

    def test_rejects_nonpositive_capacity(self):
        hist = stack_distance_histogram([1, 2, 1])
        with pytest.raises(ValueError):
            hist.miss_counts([0])

    def test_empty_histogram(self):
        hist = StackDistanceHistogram.empty()
        assert hist.total == 0
        assert hist.misses(4) == 0
        assert hist.miss_ratios([1, 2]).tolist() == [0.0, 0.0]


class TestPerThread:
    def test_partition_of_shared_stream(self):
        rng = np.random.default_rng(3)
        lines = rng.integers(0, 60, size=400)
        tids = rng.integers(0, 3, size=400)
        hists = per_thread_histograms(lines, tids)
        dist = stack_distances(lines)
        for tid, hist in hists.items():
            expect = StackDistanceHistogram.from_distances(dist[tids == tid])
            assert hist.as_dict() == expect.as_dict()
        # the split is exhaustive: totals and miss counts add up
        combined = stack_distance_histogram(lines)
        assert sum(h.total for h in hists.values()) == combined.total
        for c in (4, 16, 64):
            assert sum(h.misses(c) for h in hists.values()) \
                == combined.misses(c)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            per_thread_histograms([1, 2, 3], [0, 0])


class TestHistogramStore:
    def test_capacity_not_part_of_key(self):
        # the whole point: one histogram prices every geometry
        lines = np.array([1, 2, 3, 1], dtype=np.int64)
        tids = np.zeros(4, dtype=np.int64)
        store = HistogramStore()
        k1 = stream_key(lines, tids)
        store.get_or_compute(k1, lambda: per_thread_histograms(lines, tids))
        assert store.get_or_compute(k1, lambda: pytest.fail("recomputed"))

    def test_memory_only_store_writes_nothing(self, tmp_path):
        store = HistogramStore()
        lines = np.array([1, 2], dtype=np.int64)
        tids = np.zeros(2, dtype=np.int64)
        store.get_or_compute(stream_key(lines, tids),
                             lambda: per_thread_histograms(lines, tids))
        assert list(tmp_path.iterdir()) == []


#: ``(thread_id, stream length)`` of work ``t`` for a base length
#: ``n``: shapes of the work list the engine must not assume away
WORK_SHAPES = {
    None: lambda t, n: (t, n),
    "sparse-tids": lambda t, n: (90 - 7 * t, n),   # not 0..n-1
    "shared-tid": lambda t, n: (t // 2, n),        # two works per id
    "empty-stream": lambda t, n: (t, 0 if t == 1 else n),
}


def _works(rng, spec, n_threads, n, k, collapsed=0, shape=None):
    works = []
    for t in range(n_threads):
        tid, size = WORK_SHAPES[shape](t, n)
        works.append(ThreadWork(
            thread_id=tid, core=t % spec.n_cores,
            chunk=TraceChunk(
                lines=rng.integers(0, k, size=size).astype(np.int64),
                collapsed_hits=collapsed, n_ops=100 + 13 * t)))
    return works


class TestEngineStackBackend:
    """Cross-validation matrix: stack vs vectorized replayer."""

    MATRIX = [
        # (capacity_lines, n_threads, n_cores, n_sockets, scope, works)
        (4, 1, 1, 1, "core", None),
        (16, 2, 2, 1, "core", None),      # private instances
        (16, 4, 2, 1, "core", None),      # two threads share each core cache
        (64, 4, 4, 2, "socket", None),    # socket-shared instances
        (64, 3, 2, 1, "machine", None),   # one global instance
        (257, 2, 2, 1, "machine", None),  # non-power-of-two capacity
        (16, 4, 2, 1, "core", "sparse-tids"),
        (64, 4, 4, 2, "socket", "shared-tid"),
        (16, 4, 2, 1, "core", "shared-tid"),
        (64, 3, 2, 1, "machine", "empty-stream"),
        (16, 3, 3, 1, "core", "empty-stream"),
    ]

    @pytest.mark.parametrize(
        "cap,n_threads,n_cores,n_sockets,scope,shape", MATRIX,
        ids=["-".join(str(v) for v in row if v is not None)
             for row in MATRIX])
    def test_bit_for_bit_vs_vector_replayer(self, cap, n_threads, n_cores,
                                            n_sockets, scope, shape):
        rng = np.random.default_rng(cap + n_threads)
        spec = fully_associative_spec(cap, n_cores=n_cores,
                                      n_sockets=n_sockets, scope=scope)
        works = _works(rng, spec, n_threads, 600, 300, collapsed=5,
                       shape=shape)
        ref_eng = SimulationEngine(spec, backend="vector", quantum=64)
        ref = ref_eng.run(works)
        stk_eng = SimulationEngine(spec, backend="stack", quantum=64)
        assert stk_eng.uses_stack
        got = stk_eng.run(works)
        # counters, level totals, per-thread cycles and runtime: the
        # same integer totals through the same cost model, so exact
        assert got == ref
        # full per-instance stats, including evictions
        assert stk_eng.machine.level_stats("L1") \
            == ref_eng.machine.level_stats("L1")

    def test_histograms_cached_across_capacities(self):
        rng = np.random.default_rng(7)
        store = HistogramStore()
        chunk = TraceChunk(lines=rng.integers(0, 200, 500).astype(np.int64),
                           collapsed_hits=0, n_ops=10)
        works = [ThreadWork(0, 0, chunk)]
        for cap in (8, 16, 32, 64):
            spec = fully_associative_spec(cap)
            eng = SimulationEngine(spec, backend="stack",
                                   histogram_store=store)
            eng.run(works)
        assert store.misses == 1  # one analysis pass, four pricings
        assert store.hits == 3

    def test_schedule_memo_builds_and_keys_streams_once(self):
        rng = np.random.default_rng(8)
        spec4 = fully_associative_spec(16, n_cores=2)
        works = _works(rng, spec4, 4, 500, 200)
        store = HistogramStore()
        calls = []

        def counting_key(lines, owner):
            calls.append(lines.size)
            return stream_key(lines, owner)

        with mock.patch.object(engine_mod, "stream_key", counting_key):
            for cap in (8, 16, 32, 64):
                spec = fully_associative_spec(cap, n_cores=2)
                got = SimulationEngine(spec, backend="stack", quantum=64,
                                       histogram_store=store).run(works)
                assert got == SimulationEngine(
                    spec, backend="vector", quantum=64).run(works)
        assert len(calls) == 2  # one per core instance, first capacity only
        assert (store.misses, store.hits) == (2, 6)

    def test_schedule_memo_tells_schedules_apart(self):
        """A shared store prices other quanta, core maps and works
        exactly as a fresh store does."""
        rng = np.random.default_rng(9)
        spec = fully_associative_spec(32, n_cores=2)
        works = _works(rng, spec, 4, 400, 150)
        remapped = [replace(w, core=0) for w in works]  # one shared cache
        fresh = [ThreadWork(w.thread_id, w.core, TraceChunk(
            lines=w.chunk.lines[::-1].copy(), collapsed_hits=0,
            n_ops=w.chunk.n_ops)) for w in works]
        store = HistogramStore()
        for ws, quantum in ((works, 64), (works, 16), (remapped, 16),
                            (fresh, 16), (works, 64)):
            shared = SimulationEngine(spec, backend="stack", quantum=quantum,
                                      histogram_store=store)
            alone = SimulationEngine(spec, backend="vector", quantum=quantum)
            assert shared.run(ws) == alone.run(ws)
            assert shared.machine.level_stats("L1") \
                == alone.machine.level_stats("L1")

    def test_empty_works(self):
        spec = fully_associative_spec(8)
        res = SimulationEngine(spec, backend="stack").run([])
        assert res.n_accesses == 0
        assert res.runtime_seconds == 0.0

    def test_collapsed_hits_only_thread(self):
        spec = fully_associative_spec(8)
        empty = TraceChunk(lines=np.empty(0, dtype=np.int64),
                           collapsed_hits=11, n_ops=5)
        ref = SimulationEngine(spec, backend="vector").run(
            [ThreadWork(0, 0, empty)])
        got = SimulationEngine(spec, backend="stack").run(
            [ThreadWork(0, 0, empty)])
        assert got.counters == ref.counters
        assert got.level_served == ref.level_served

    def test_out_of_range_core_rejected(self):
        spec = fully_associative_spec(8, n_cores=2)
        chunk = TraceChunk(lines=np.array([1], dtype=np.int64),
                           collapsed_hits=0, n_ops=1)
        with pytest.raises(ValueError, match="core"):
            SimulationEngine(spec, backend="stack").run(
                [ThreadWork(0, 5, chunk)])


class TestStackFallback:
    """stack on an ineligible config must fall back (or raise), never
    return wrong counts."""

    def _ineligible_specs(self):
        fa = fully_associative_spec(16)
        level = fa.levels[0]
        set_assoc = replace(fa, levels=(replace(
            level, cache=CacheConfig("L1", 4 * 2 * 64, ways=2)),))
        non_lru = replace(fa, levels=(replace(
            level, cache=replace(level.cache, replacement="fifo")),))
        prefetching = replace(fa, levels=(replace(
            level, prefetch=PrefetchConfig()),))
        with_tlb = replace(fa, tlb=CacheConfig(
            "TLB", 16 * 4096, line_bytes=4096, ways=4))
        multi_level = get_platform("ivybridge")
        return {
            "set-associative": set_assoc,
            "non-lru": non_lru,
            "prefetcher": prefetching,
            "tlb": with_tlb,
            "multi-level": multi_level,
        }

    def test_ineligibility_reasons(self):
        assert stack_ineligibility(fully_associative_spec(4)) is None
        for name, spec in self._ineligible_specs().items():
            assert stack_ineligibility(spec) is not None, name

    @pytest.mark.parametrize("which", ["set-associative", "non-lru",
                                       "prefetcher", "tlb", "multi-level"])
    def test_fallback_matches_replayer(self, which):
        spec = self._ineligible_specs()[which]
        rng = np.random.default_rng(11)
        works = _works(rng, spec, 2, 300, 500)
        eng = SimulationEngine(spec, backend="stack")
        assert not eng.uses_stack
        assert eng.stack_fallback_reason
        got = eng.run(works)
        ref = SimulationEngine(spec, backend="auto").run(works)
        assert got.counters == ref.counters
        assert got.runtime_seconds == ref.runtime_seconds

    def test_multi_level_counterexample(self):
        # x y x z w x through L1=2, L2=3 lines: the final x is an L2
        # miss in reality but a hit by global-histogram pricing — the
        # reason multi-level configs must fall back.
        stream = np.array([0, 1, 0, 2, 3, 0], dtype=np.int64)
        hist = stack_distance_histogram(stream)
        naive_l2_misses = hist.misses(3)
        l1 = Cache(CacheConfig("L1", 2 * 64, ways=2))
        l2 = Cache(CacheConfig("L2", 3 * 64, ways=3))
        actual_l2_misses = l2.access_lines(l1.access_lines(stream)).size
        assert naive_l2_misses != actual_l2_misses

    def test_warm_continuation_raises(self):
        spec = fully_associative_spec(8)
        chunk = TraceChunk(lines=np.array([1, 2], dtype=np.int64),
                           collapsed_hits=0, n_ops=1)
        eng = SimulationEngine(spec, backend="stack")
        with pytest.raises(ValueError, match="cold"):
            eng.run([ThreadWork(0, 0, chunk)], reset=False)

    def test_cache_rejects_stack_backend(self):
        with pytest.raises(ValueError):
            Cache(CacheConfig("L1", 64 * 64, ways=64), backend="stack")

    def test_engine_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            SimulationEngine(fully_associative_spec(8), backend="bogus")

