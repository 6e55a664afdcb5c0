"""The reuse-window LRU kernel equals the scalar LRU loop, exactly.

``backend="auto"`` replays LRU caches of at most ``_WINDOW_MAX_WAYS``
ways with the kernel, one instance per call or several instances of one
geometry per call (``access_instances``).  Every test compares it with
``Cache(backend="scalar")``: misses, counters (evictions included),
residency and the recency order of every set.
"""

from __future__ import annotations

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.memsim.cache as cache_mod
import repro.memsim.stackdist as stackdist_mod
from repro.memsim.cache import (
    Cache,
    CacheConfig,
    _WINDOW_MAX_WAYS,
    access_instances,
)


def _config(ways: int, n_sets: int) -> CacheConfig:
    return CacheConfig("T", 64 * ways * n_sets, ways=ways)


def _rows(cache: Cache) -> list:
    """Every set's resident lines, MRU first."""
    rows = cache._lru_rows(np.arange(cache.config.n_sets))
    return [[ln for ln in row if ln >= 0] for row in rows.tolist()]


def _assert_same(kernel: Cache, scalar: Cache) -> None:
    assert kernel.stats == scalar.stats
    assert kernel.resident_lines() == scalar.resident_lines()
    assert _rows(kernel) == _rows(scalar)


#: 0 scan blocks sends every long window to the stack-distance fallback
SCAN_STEPS = (0, 1, cache_mod._WINDOW_STEPS)


@st.composite
def geometries(draw):
    ways = draw(st.integers(1, _WINDOW_MAX_WAYS))
    n_sets = draw(st.sampled_from((1, 2, 4, 8, 16, 32, 64)))
    return _config(ways, n_sets)


def _streams(draw, n_sets: int, ways: int, n_calls: int):
    span = draw(st.sampled_from((2, ways + 1, 4 * n_sets * ways, 4096)))
    return [np.array(draw(st.lists(st.integers(0, span), max_size=300)),
                     dtype=np.int64) for _ in range(n_calls)]


class TestSingleInstance:
    def test_auto_routes_small_lru_to_the_kernel(self):
        for ways in (1, 4, _WINDOW_MAX_WAYS):
            for n_sets in (2, 64):
                assert Cache(_config(ways, n_sets), backend="auto")._windowed()
        wide = _config(_WINDOW_MAX_WAYS + 2, 4)
        assert not Cache(wide, backend="auto")._windowed()
        fifo = CacheConfig("T", 64 * 4 * 4, ways=4, replacement="fifo")
        assert not Cache(fifo, backend="auto")._windowed()
        for backend in ("scalar", "vector"):
            assert not Cache(_config(4, 4), backend=backend)._windowed()
        tracked = Cache(_config(4, 4), backend="auto")
        tracked.track_evictions = True
        assert not tracked._windowed()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), cfg=geometries(),
           steps=st.sampled_from(SCAN_STEPS))
    def test_warm_calls_with_installs_and_invalidations(self, data, cfg,
                                                        steps):
        kernel = Cache(cfg, backend="auto")
        scalar = Cache(cfg, backend="scalar")
        assert kernel._windowed()
        with mock.patch.object(cache_mod, "_WINDOW_STEPS", steps):
            for lines in _streams(data.draw, cfg.n_sets, cfg.ways,
                                  data.draw(st.integers(1, 4))):
                np.testing.assert_array_equal(
                    kernel.access_positions(lines),
                    scalar.access_positions(lines))
                _assert_same(kernel, scalar)
                extra = np.array(data.draw(st.lists(
                    st.integers(0, 8 * cfg.n_sets * cfg.ways), max_size=12)),
                    dtype=np.int64)
                if data.draw(st.booleans()):
                    assert (kernel.install_lines(extra)
                            == scalar.install_lines(extra))
                else:
                    assert kernel.invalidate(extra) == scalar.invalidate(extra)
                _assert_same(kernel, scalar)

    @pytest.mark.parametrize("ways", [1, 2, 8, _WINDOW_MAX_WAYS])
    @pytest.mark.parametrize("n_sets", [1, 2, 64])
    def test_random_streams(self, ways, n_sets):
        rng = np.random.default_rng(ways * 131 + n_sets)
        cfg = _config(ways, n_sets)
        kernel = Cache(cfg, backend="auto")
        scalar = Cache(cfg, backend="scalar")
        for span in (ways * n_sets, 3 * ways * n_sets, 64 * ways * n_sets):
            lines = rng.integers(0, span, size=3000).astype(np.int64)
            np.testing.assert_array_equal(kernel.access_lines(lines),
                                          scalar.access_lines(lines))
            _assert_same(kernel, scalar)

    @pytest.mark.parametrize("stride", [8, 1 << 12, 1 << 30])
    def test_line_id_spans(self, stride):
        """Spans under 16 bits, under 32 bits and wider take one radix
        pass, two, or a plain stable sort to find previous occurrences."""
        rng = np.random.default_rng(17)
        cfg = _config(4, 8)
        # six tags per set over four ways: hits and misses both common,
        # and tags 0/16 differ only in the second radix digit at 1 << 12
        tags = np.array([0, 1, 16, 17, 128, 255], dtype=np.int64)
        lines = (rng.choice(tags, 4000) * stride
                 + rng.integers(0, 8, 4000)).astype(np.int64)
        kernel = Cache(cfg, backend="auto")
        scalar = Cache(cfg, backend="scalar")
        np.testing.assert_array_equal(kernel.access_positions(lines),
                                      scalar.access_positions(lines))
        _assert_same(kernel, scalar)


class TestLevelWide:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), cfg=geometries(), n_inst=st.integers(1, 5),
           steps=st.sampled_from(SCAN_STEPS))
    def test_instances_sharing_line_ids(self, data, cfg, n_inst, steps):
        """One call for several instances equals one scalar call each,
        also when the instances see the very same line ids."""
        kernels = [Cache(cfg, backend="auto") for _ in range(n_inst)]
        scalars = [Cache(cfg, backend="scalar") for _ in range(n_inst)]
        with mock.patch.object(cache_mod, "_WINDOW_STEPS", steps):
            for _ in range(data.draw(st.integers(1, 3))):
                shared = _streams(data.draw, cfg.n_sets, cfg.ways, 1)[0]
                parts = [shared if data.draw(st.booleans())
                         else _streams(data.draw, cfg.n_sets, cfg.ways, 1)[0]
                         for _ in range(n_inst)]
                bounds = [0, *np.cumsum([p.size for p in parts]).tolist()]
                got = access_instances(kernels, np.concatenate(parts), bounds)
                want = np.concatenate([np.empty(0, dtype=np.int64), *(
                    s.access_positions(p) + a
                    for s, p, a in zip(scalars, parts, bounds))])
                np.testing.assert_array_equal(got, want)
                for k, s in zip(kernels, scalars):
                    _assert_same(k, s)

    def test_composite_keys_wider_than_16_bits(self):
        cfg = _config(2, 1 << 14)
        rng = np.random.default_rng(4)
        kernels = [Cache(cfg, backend="auto") for _ in range(5)]
        scalars = [Cache(cfg, backend="scalar") for _ in range(5)]
        for _ in range(2):
            parts = [rng.integers(0, 1 << 16, 3000).astype(np.int64)
                     for _ in kernels]
            bounds = [0, *np.cumsum([p.size for p in parts]).tolist()]
            got = access_instances(kernels, np.concatenate(parts), bounds)
            want = np.concatenate([s.access_positions(p) + a
                                   for s, p, a in zip(scalars, parts, bounds)])
            np.testing.assert_array_equal(got, want)
            for k, s in zip(kernels, scalars):
                assert k.stats == s.stats
                assert k.resident_lines() == s.resident_lines()

    def test_mixed_routing_falls_back_per_instance(self):
        cfg = _config(4, 4)
        caches = [Cache(cfg, backend="auto"), Cache(cfg, backend="vector")]
        scalars = [Cache(cfg, backend="scalar") for _ in caches]
        rng = np.random.default_rng(3)
        parts = [rng.integers(0, 64, 500).astype(np.int64) for _ in caches]
        got = access_instances(caches, np.concatenate(parts), [0, 500, 1000])
        want = np.concatenate([scalars[0].access_positions(parts[0]),
                               scalars[1].access_positions(parts[1]) + 500])
        np.testing.assert_array_equal(got, want)
        for c, s in zip(caches, scalars):
            assert c.stats == s.stats


class TestLongWindows:
    """Thousands of accesses over two lines, then the decisive ones: the
    windows are too long to scan and go to exact stack distances."""

    @pytest.mark.parametrize("tail,decided_hit", [
        ([9], True),          # window {1, 2}: 2 distinct < 4 ways
        ([7, 8, 9], False),   # window {1, 2, 7, 8}: the 4th line comes last
    ])
    def test_fallback_is_exact_and_bounded(self, tail, decided_hit):
        cfg = _config(4, 1)
        stream = np.array([9, *[1, 2] * 20000, *tail], dtype=np.int64)
        kernel = Cache(cfg, backend="auto")
        scalar = Cache(cfg, backend="scalar")
        calls = []
        real = stackdist_mod.stack_distances

        def spy(lines):
            calls.append(len(lines))
            return real(lines)

        t0 = time.perf_counter()
        with mock.patch.object(stackdist_mod, "stack_distances", spy):
            missed = kernel.access_positions(stream)
        elapsed = time.perf_counter() - t0
        np.testing.assert_array_equal(missed, scalar.access_positions(stream))
        _assert_same(kernel, scalar)
        assert calls, "the long window must reach the exact fallback"
        assert (stream.size - 1 not in missed) == decided_hit
        assert elapsed < 10.0
