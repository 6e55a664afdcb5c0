"""Tests for the stream prefetcher and its hierarchy integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.memsim import (
    Cache,
    CacheConfig,
    LevelSpec,
    Machine,
    PlatformSpec,
    PrefetchConfig,
    StreamPrefetcher,
)


def _cache(lines=64, ways=4, replacement="lru"):
    return Cache(CacheConfig("T", lines * 64, line_bytes=64, ways=ways,
                             replacement=replacement))


class TestPrefetchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrefetchConfig(degree=0)
        with pytest.raises(ValueError):
            PrefetchConfig(confirm=1)


class TestInstallLines:
    def test_install_does_not_touch_stats(self):
        c = _cache()
        n = c.install_lines(np.array([1, 2, 3]))
        assert n == 3
        assert c.stats.accesses == 0
        assert c.resident_lines() == {1, 2, 3}

    def test_installed_lines_hit_on_demand(self):
        c = _cache()
        c.install_lines(np.array([5, 6]))
        missed = c.access_lines(np.array([5, 6, 7]))
        assert list(missed) == [7]

    def test_already_resident_not_counted(self):
        c = _cache()
        c.access_lines(np.array([9]))
        assert c.install_lines(np.array([9, 10])) == 1

    def test_install_respects_eviction(self):
        c = _cache(lines=2, ways=2)  # 1 set, 2 ways
        c.install_lines(np.array([0, 1, 2]))
        assert len(c.resident_lines()) == 2

    def test_install_on_direct_mapped(self):
        c = _cache(lines=4, ways=1, replacement="direct")
        assert c.install_lines(np.array([0, 1])) == 2
        assert c.access_lines(np.array([0, 1])).size == 0

    def test_install_on_plru(self):
        c = Cache(CacheConfig("T", 4 * 64, ways=4, replacement="plru"))
        c.install_lines(np.array([0, 1]))
        assert c.stats.accesses == 0
        assert c.access_lines(np.array([0, 1])).size == 0

    def test_install_empty(self):
        assert _cache().install_lines(np.array([], dtype=np.int64)) == 0


class TestStreamPrefetcher:
    def test_sequential_stream_detected(self):
        p = StreamPrefetcher(PrefetchConfig(degree=2, confirm=2))
        c = _cache()
        p.observe_and_fill(np.array([10, 11, 12]), c)
        # 11 confirms the stream -> installs 12, 13; 12 -> 13, 14
        assert p.issued == 4
        assert {13, 14} <= c.resident_lines()

    def test_descending_stream_detected(self):
        p = StreamPrefetcher(PrefetchConfig(degree=1, confirm=2))
        c = _cache()
        p.observe_and_fill(np.array([20, 19, 18]), c)
        assert {17} <= c.resident_lines()

    def test_random_stream_not_prefetched(self):
        p = StreamPrefetcher(PrefetchConfig())
        c = _cache()
        p.observe_and_fill(np.array([5, 90, 17, 44]), c)
        assert p.issued == 0
        assert c.resident_lines() == set()

    def test_stream_state_persists_across_batches(self):
        p = StreamPrefetcher(PrefetchConfig(degree=1, confirm=2))
        c = _cache()
        p.observe_and_fill(np.array([30]), c)
        assert p.issued == 0
        p.observe_and_fill(np.array([31]), c)  # confirmed across the seam
        assert p.issued == 1
        assert 32 in c.resident_lines()

    def test_reset(self):
        p = StreamPrefetcher(PrefetchConfig())
        c = _cache()
        p.observe_and_fill(np.array([1, 2, 3]), c)
        p.reset()
        assert p.issued == 0
        p.observe_and_fill(np.array([4]), c)
        assert p.issued == 0  # run was forgotten


class TestMachineIntegration:
    def _spec(self, prefetch):
        return PlatformSpec(
            name="pf",
            n_cores=2,
            n_sockets=1,
            smt=1,
            freq_ghz=1.0,
            levels=(
                LevelSpec(CacheConfig("L1", 64 * 4, ways=2), scope="core",
                          latency_cycles=2),
                LevelSpec(CacheConfig("L2", 64 * 64, ways=4), scope="core",
                          latency_cycles=10, prefetch=prefetch),
            ),
            mem_latency_cycles=100,
            counters={"L2_MISS": ("L2", "misses")},
        )

    def test_prefetch_cuts_sequential_miss_count(self):
        stream = np.arange(400, dtype=np.int64)
        base = Machine(self._spec(None))
        pf = Machine(self._spec(PrefetchConfig(degree=4)))
        base.access(0, stream)
        pf.access(0, stream)
        assert pf.counter("L2_MISS") < base.counter("L2_MISS") / 2

    def test_prefetch_neutral_on_random_stream(self, rng):
        stream = rng.permutation(10_000)[:400].astype(np.int64)
        base = Machine(self._spec(None))
        pf = Machine(self._spec(PrefetchConfig()))
        base.access(0, stream)
        pf.access(0, stream)
        assert pf.counter("L2_MISS") == base.counter("L2_MISS")

    def test_prefetch_stats_and_reset(self):
        m = Machine(self._spec(PrefetchConfig(degree=2)))
        m.access(0, np.arange(100, dtype=np.int64))
        stats = m.prefetch_stats()
        assert stats["L2"]["issued"] > 0
        assert stats["L2"]["installed"] <= stats["L2"]["issued"]
        m.reset()
        assert m.prefetch_stats()["L2"]["issued"] == 0

    def test_per_core_stream_state(self):
        """Interleaved cores each have their own detector: core 1's
        random traffic must not break core 0's sequential stream."""
        m = Machine(self._spec(PrefetchConfig(degree=2)))
        rng = np.random.default_rng(1)
        for start in range(0, 100, 10):
            m.access(0, np.arange(start, start + 10, dtype=np.int64))
            m.access(1, rng.permutation(10_000)[:10].astype(np.int64) + 50_000)
        assert m.prefetch_stats()["L2"]["issued"] > 0


class TestDescendingStreamStopsAtZero:
    @pytest.mark.parametrize("backend", ["scalar", "vector"])
    def test_no_negative_line_is_installed(self, backend):
        c = Cache(CacheConfig("L2", 64 * 4, ways=4, replacement="random"),
                  backend=backend)
        pf = StreamPrefetcher(PrefetchConfig(degree=2))
        pf.observe_and_fill(np.array([2, 1, 0]), c)
        assert pf.issued == 1  # only line 0; -1 and -2 do not exist
        assert c.resident_lines() == {0}
        assert c.access_lines(np.array([0, 5, 6, 7])).tolist() == [5, 6, 7]
